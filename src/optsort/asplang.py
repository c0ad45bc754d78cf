"""Ground answer-set programs and their brute-force semantics.

Programs mix normal rules, choice rules, cardinality constraints and nogoods
over positive integer atoms.  A literal is an int as in aspif: ``a`` for
atom a, ``-a`` for its default negation.  Everything here is meant for
desk-scale verification: answer sets are enumerated exhaustively, every guess
at once as one bit lane of a Python integer, guarded by an atom-count limit.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Iterable, NamedTuple, Sequence, TypeVar

# The most atoms an enumeration guesses: each guess is one bit lane, so every
# atom's lane vector then takes 2 MB.
MAX_ENUM_ATOMS = 24


class SemanticsError(ValueError):
    """Raised for malformed programs or blown enumeration guards."""


class NormalRule(NamedTuple):
    head: int
    pos_body: frozenset[int] = frozenset()
    neg_body: frozenset[int] = frozenset()

    def atoms(self) -> frozenset[int]:
        return frozenset({self.head}) | self.pos_body | self.neg_body


# A record that validates is a thin subclass of its fields' NamedTuple that
# checks them in ``__new__``: NamedTuple bodies may not define ``__new__``.


class _ChoiceRule(NamedTuple):
    head_atoms: frozenset[int]
    body: frozenset[int] = frozenset()

    def atoms(self) -> frozenset[int]:
        return self.head_atoms | frozenset(map(abs, self.body))


class ChoiceRule(_ChoiceRule):
    """Justifies any subset of its head atoms when the body holds."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ChoiceRule:
        self = super().__new__(cls, *args, **kwargs)
        if not self.head_atoms:
            raise SemanticsError("choice rule needs a nonempty head")
        return self


class _CardinalityConstraint(NamedTuple):
    literals: tuple[int, ...]
    lower_bound: int

    def atoms(self) -> frozenset[int]:
        return frozenset(map(abs, self.literals))


class CardinalityConstraint(_CardinalityConstraint):
    """Requires at least ``lower_bound`` of the listed literals to hold."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CardinalityConstraint:
        self = super().__new__(cls, *args, **kwargs)
        n = len(set(self.literals))
        if not (0 <= self.lower_bound <= n + 1):
            raise SemanticsError(
                f"cardinality bound {self.lower_bound} outside 0..{n + 1}"
            )
        return self


class _Nogood(NamedTuple):
    literals: frozenset[int]

    def conflicts_with(self, interpretation: frozenset[int]) -> bool:
        return all((abs(l) in interpretation) == (l > 0) for l in self.literals)

    def atoms(self) -> frozenset[int]:
        return frozenset(map(abs, self.literals))


class Nogood(_Nogood):
    """Forbids every total assignment in which all its literals hold."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Nogood:
        self = super().__new__(cls, *args, **kwargs)
        if len(self.atoms()) != len(self.literals):
            raise SemanticsError("nogood mentions an atom with both signs")
        return self


class _GroundProgram(NamedTuple):
    signature: frozenset[int]
    normal_rules: tuple[NormalRule, ...] = ()
    choice_rules: tuple[ChoiceRule, ...] = ()
    cardinality_constraints: tuple[CardinalityConstraint, ...] = ()
    nogoods: tuple[Nogood, ...] = ()

    def used_atoms(self) -> frozenset[int]:
        used: set[int] = set()
        for r in self.normal_rules:
            used |= r.atoms()
        for c in self.choice_rules:
            used |= c.atoms()
        for cc in self.cardinality_constraints:
            used |= cc.atoms()
        for ng in self.nogoods:
            used |= ng.atoms()
        return frozenset(used)


class GroundProgram(_GroundProgram):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GroundProgram:
        self = super().__new__(cls, *args, **kwargs)
        used = self.used_atoms()
        if not used <= self.signature:
            raise SemanticsError(
                f"atoms {sorted(used - self.signature)} missing from signature"
            )
        for a in self.signature:
            if a < 1:
                raise SemanticsError(f"atom ids must be >= 1, got {a}")
        return self


class FreshAtoms:
    """Hands out unused atom ids, counting up from a start value."""

    def __init__(self, first_free: int):
        self._next = first_free

    def take(self) -> int:
        atom = self._next
        self._next += 1
        return atom

    def reserve(self, count: int) -> int:
        """Claim a contiguous block of ids; returns the first one."""
        first = self._next
        self._next += count
        return first


class LaneRule(NamedTuple):
    """A positive rule that derives its head only in the given bit lanes."""

    head: int
    pos_body: frozenset[int]
    lanes: int


_Rule = TypeVar("_Rule", NormalRule, LaneRule)


def _dependency_order(rules: Sequence[_Rule]) -> tuple[list[_Rule], bool]:
    """The rules ordered so that each follows every rule deriving its body atoms.

    Only a positive cycle prevents such an order; the flag says whether one
    does, and the rules come in depth-first finishing order all the same.
    """
    by_head: dict[int, list[_Rule]] = {}
    for r in rules:
        by_head.setdefault(r.head, []).append(r)
    graph = {
        h: set().union(*(r.pos_body for r in group)) & by_head.keys()
        for h, group in by_head.items()
    }
    ordered: list[_Rule] = []
    cyclic = False
    state: dict[int, int] = {}
    for start in graph:
        if state.get(start):
            continue
        stack = [(start, iter(graph[start]))]
        state[start] = 1
        while stack:
            node, children = stack[-1]
            for child in children:
                if state.get(child) == 1:
                    cyclic = True
                elif not state.get(child):
                    state[child] = 1
                    stack.append((child, iter(graph[child])))
                    break
            else:
                state[node] = 2
                ordered += by_head[node]
                stack.pop()
    return ordered, cyclic


def least_model(rules: Sequence[LaneRule]) -> dict[int, int]:
    """The least model of positive rules in every bit lane at once.

    Maps each head atom to the lanes in which it is derived.  Acyclic rules
    close in one pass in dependency order; over a positive cycle the passes
    repeat until no atom gains a lane.
    """
    ordered, cyclic = _dependency_order(rules)
    true_in: dict[int, int] = {}
    grew = True
    while grew:
        grew = False
        for head, body, lanes in ordered:
            for atom in body:
                lanes &= true_in.get(atom, 0)
            known = true_in.get(head, 0)
            true_in[head] = known | lanes
            if cyclic and lanes & ~known:
                grew = True
    return true_in


def _choice_lanes(n: int) -> list[int]:
    """For each guessed atom number b, the lanes whose subset index has bit b set."""
    width = 1 << n
    lanes = []
    for b in range(n):
        run = 1 << b
        vector, period = ((1 << run) - 1) << run, 2 * run
        while period < width:
            vector |= vector << period
            period *= 2
        lanes.append(vector)
    return lanes


def _at_least(vectors: Iterable[int], bound: int, all_lanes: int) -> int:
    """The lanes in which at least ``bound`` of the lane vectors are set."""
    # reached[j]: the lanes where at least j of the vectors seen so far are set
    reached = [all_lanes] + [0] * bound
    for vector in vectors:
        for j in range(bound, 0, -1):
            reached[j] |= reached[j - 1] & vector
    return reached[bound]


# Lane flags (one 0 or 1 byte per lane) to and from base-2 digits, and 0 and 1
# swapped.
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FLAGS = bytes.maketrans(b"01", b"\0\1")
_SWAP = bytes.maketrans(b"\0\1", b"\1\0")


def _lane_flags(vector: int, width: int) -> bytes:
    """One byte per lane, 1 where the vector has the lane's bit set (none at width 0)."""
    return format(vector, f"0{width}b")[::-1][:width].encode().translate(_FLAGS)


def flag_lanes(flags: bytes) -> int:
    """The lanes whose flag byte is set, lane i from byte i."""
    return int(flags[::-1].translate(_DIGITS) or b"0", 2)


def _row_order(row: bytes) -> bytes:
    # At the first atom two rows disagree on, the row that holds it comes
    # first by its sorted atoms, unless the other holds no later atom.  The
    # swapped flags without their trailing ones order the rows the same way.
    return row.translate(_SWAP).rstrip(b"\1")


def lane_rows(true_in: dict[int, int], lanes: int, width: int) -> tuple[list[int], list[bytes]]:
    """The models held in the given lanes as flag rows, in order of their sorted atoms.

    Returns the atoms that any of the lanes holds, sorted, and one row per
    lane: a byte per atom, 1 where the lane holds it.
    """
    keep = _lane_flags(lanes, width)
    atoms = sorted(a for a, held in true_in.items() if held & lanes)
    n, count = len(atoms), lanes.bit_count()
    if not n:
        return atoms, [b""] * count
    # The lanes' rows one after another: each atom's column is every n-th byte.
    matrix = bytearray(n * count)
    for p, a in enumerate(atoms):
        matrix[p::n] = bytes(compress(_lane_flags(true_in[a], width), keep))
    rows = [bytes(matrix[i : i + n]) for i in range(0, len(matrix), n)]
    rows.sort(key=_row_order)
    return atoms, rows


def lane_values(terms: Sequence[tuple[int, int]], lanes: dict[int, int], width: int) -> list[int]:
    """Each lane's value: the summed weights of the (literal, weight) terms
    whose literal holds in it.

    An atom missing from ``lanes`` holds in no lane, so its negation in all.
    """
    all_lanes = (1 << width) - 1
    weights = [w for _, w in terms]
    columns = [
        _lane_flags(lanes.get(abs(l), 0) ^ (0 if l > 0 else all_lanes), width)
        for l, _ in terms
    ]
    rows = zip(*columns) if columns else repeat((), width)
    return [sum(compress(weights, row)) for row in rows]


def _guessed_atoms(program: GroundProgram, bottom_atoms: frozenset[int]) -> list[int]:
    """The atoms a guess must fix, sorted, once the bottom atoms are checked to split the program.

    These are the bottom's head atoms that the reduct reads: choice heads and
    negated atoms.  Every other atom is derived from them.
    """
    heads: set[int] = set()
    read: set[int] = set()
    for r in program.normal_rules:
        if r.head in bottom_atoms:
            if not r.atoms() <= bottom_atoms:
                raise SemanticsError(
                    f"rule for {r.head} reaches outside the splitting set"
                )
            heads.add(r.head)
        elif r.neg_body - bottom_atoms:
            raise SemanticsError(
                f"rule for {r.head} negates atoms "
                f"{sorted(r.neg_body - bottom_atoms)} above the splitting set"
            )
        read |= r.neg_body
    for c in program.choice_rules:
        if not c.head_atoms & bottom_atoms:
            raise SemanticsError(
                f"choice rule for {sorted(c.head_atoms)} lies above the splitting set"
            )
        if not c.atoms() <= bottom_atoms:
            raise SemanticsError("choice rule straddles the splitting set")
        heads |= c.head_atoms
        read |= c.head_atoms | {-l for l in c.body if l < 0}
    return sorted(heads & read)


def auto_split_atoms(program: GroundProgram) -> frozenset[int]:
    """Smallest workable splitting set for layered enumeration.

    Seeds with everything that demands search or constrains models (choice
    rules, nogoods, cardinality constraints, negated body atoms), so the part
    above the split is positive and derived once the bottom is guessed.  Then
    adds all atoms of each rule that defines a bottom atom, until none is left.
    """
    bottom: set[int] = set()
    for c in program.choice_rules:
        bottom |= c.atoms()
    for ng in program.nogoods:
        bottom |= ng.atoms()
    for cc in program.cardinality_constraints:
        bottom |= cc.atoms()
    for r in program.normal_rules:
        bottom |= r.neg_body
    changed = True
    while changed:
        changed = False
        for r in program.normal_rules:
            if r.head in bottom and not r.atoms() <= bottom:
                bottom |= r.atoms()
                changed = True
    return frozenset(bottom)


def enumerate_answer_sets_layered(program: GroundProgram) -> tuple[list[int], list[bytes]]:
    """Answer sets across the smallest workable splitting set, as flag rows.

    Only the choice heads and negated atoms below it are guessed, so
    programs whose upper layers are positive and deterministic (for example
    attached network translations) stay enumerable far beyond the guard's
    count of atoms.
    """
    return enumerate_answer_sets_split(program, auto_split_atoms(program))


def enumerate_answer_sets_split(
    program: GroundProgram, bottom_atoms: frozenset[int]
) -> tuple[list[int], list[bytes]]:
    """Answer sets across a splitting set as flag rows, in order of their sorted atoms.

    See ``answer_lanes`` for the split and ``lane_rows`` for the rows.
    """
    return lane_rows(*answer_lanes(program, bottom_atoms))


def answer_lanes(
    program: GroundProgram,
    bottom_atoms: frozenset[int],
    bottom: tuple[dict[int, int], int] | None = None,
) -> tuple[dict[int, int], int, int]:
    """Answer sets across a splitting set as (atom lanes, answer lanes, lane count).

    ``bottom_atoms`` must be closed under rule heads: any rule defining a
    bottom atom may only mention bottom atoms.  The part above the split may
    negate bottom atoms only and may hold no choice rule; anything else
    raises SemanticsError.

    Each guess is one bit lane: a subset of the bottom atoms that the reduct
    reads, the choice heads and the negated atoms.  One ``least_model`` call
    closes the bottom and upper rules in every lane: a negated atom is read
    from the guess, and a choice head is derivable only where it is guessed.
    A lane is stable when the atoms it derives equal its guess on the guessed
    atoms; every other atom is derived.  The stable lanes that pass the
    nogoods and cardinality constraints are the answer sets, one lane each.

    ``bottom``, when given, must hold the answer sets of the part below the
    split as lanes, answer set i in lane i: each bottom atom's lanes and the
    lane count.  They are the answer sets of the rules defining bottom atoms
    and the constraints over them alone.  Nothing is guessed then.  Lane i
    holds bottom model i as facts, and only the rules above the split are
    closed over it; by the splitting-set theorem each lane that passes the
    constraints is one answer set.
    """
    bottom_atoms = frozenset(bottom_atoms)
    guessed = _guessed_atoms(program, bottom_atoms)
    if bottom is None:
        if len(guessed) > MAX_ENUM_ATOMS:
            raise SemanticsError(
                f"{len(guessed)} atoms exceed the brute-force guard of {MAX_ENUM_ATOMS}"
            )
        width = 1 << len(guessed)
        guess = dict(zip(guessed, _choice_lanes(len(guessed))))
        normal_rules, choice_rules = program.normal_rules, program.choice_rules
    elif not bottom[1]:
        return {}, 0, 0
    else:
        bottom_lanes, width = bottom
        guess = {a: bottom_lanes.get(a, 0) for a in bottom_atoms}
        normal_rules = [r for r in program.normal_rules if r.head not in bottom_atoms]
        choice_rules = ()
    all_lanes = (1 << width) - 1

    def unguessed(atoms: Iterable[int]) -> int:
        lanes = all_lanes
        for atom in atoms:
            lanes &= all_lanes ^ guess.get(atom, 0)
        return lanes

    rules = [LaneRule(r.head, r.pos_body, unguessed(r.neg_body)) for r in normal_rules]
    for c in choice_rules:
        pos_body = frozenset(l for l in c.body if l > 0)
        lanes = unguessed(-l for l in c.body if l < 0)
        rules += (LaneRule(a, pos_body, lanes & guess[a]) for a in c.head_atoms)
    if bottom is not None:
        rules += (LaneRule(a, frozenset(), lanes) for a, lanes in guess.items())
    true_in = least_model(rules)

    def holds(literal: int) -> int:
        lanes = true_in.get(abs(literal), 0)
        return lanes if literal > 0 else all_lanes ^ lanes

    answers = all_lanes
    for atom, lanes in guess.items():
        answers &= ~(true_in.get(atom, 0) ^ lanes)
    for ng in program.nogoods:
        conflict = all_lanes
        for literal in ng.literals:
            conflict &= holds(literal)
        answers &= ~conflict
    for cc in program.cardinality_constraints:
        satisfied = [holds(l) for l in set(cc.literals)]
        answers &= _at_least(satisfied, cc.lower_bound, all_lanes)
    return true_in, answers, width
