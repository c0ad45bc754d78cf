"""Ground answer-set programs and their brute-force semantics.

Programs mix normal rules, choice rules, cardinality constraints and nogoods
over positive integer atoms.  Everything here is meant for desk-scale
verification: answer sets are enumerated exhaustively, every guess at
once as one bit lane of a Python integer, guarded by an atom-count limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from typing import Iterable, NamedTuple, Sequence, TypeVar

# The most atoms an enumeration guesses: each guess is one bit lane, so every
# atom's lane vector then takes 2 MB.
MAX_ENUM_ATOMS = 24


class SemanticsError(ValueError):
    """Raised for malformed programs or blown enumeration guards."""


class Literal(NamedTuple):
    """An atom or its default negation."""

    atom: int
    positive: bool = True

    def satisfied_by(self, interpretation: frozenset[int]) -> bool:
        return (self.atom in interpretation) == self.positive

    def negated(self) -> "Literal":
        return Literal(self.atom, not self.positive)


@dataclass(frozen=True)
class NormalRule:
    head: int
    pos_body: frozenset[int] = frozenset()
    neg_body: frozenset[int] = frozenset()

    def atoms(self) -> frozenset[int]:
        return frozenset({self.head}) | self.pos_body | self.neg_body


@dataclass(frozen=True)
class ChoiceRule:
    """Justifies any subset of its head atoms when the body holds."""

    head_atoms: frozenset[int]
    body: frozenset[Literal] = frozenset()

    def __post_init__(self) -> None:
        if not self.head_atoms:
            raise SemanticsError("choice rule needs a nonempty head")

    def atoms(self) -> frozenset[int]:
        return self.head_atoms | frozenset(l.atom for l in self.body)


@dataclass(frozen=True)
class CardinalityConstraint:
    """Requires at least ``lower_bound`` of the listed literals to hold."""

    literals: tuple[Literal, ...]
    lower_bound: int

    def __post_init__(self) -> None:
        n = len(set(self.literals))
        if not (0 <= self.lower_bound <= n + 1):
            raise SemanticsError(
                f"cardinality bound {self.lower_bound} outside 0..{n + 1}"
            )

    def satisfied_by(self, interpretation: frozenset[int]) -> bool:
        distinct = set(self.literals)
        return sum(1 for l in distinct if l.satisfied_by(interpretation)) >= self.lower_bound

    def atoms(self) -> frozenset[int]:
        return frozenset(l.atom for l in self.literals)


@dataclass(frozen=True)
class Nogood:
    """Forbids every total assignment extending the signed literals.

    Signed literals are (atom, sign) pairs, sign True meaning assigned true.
    """

    signed_literals: frozenset[tuple[int, bool]]

    def __post_init__(self) -> None:
        atoms = [a for a, _ in self.signed_literals]
        if len(atoms) != len(set(atoms)):
            raise SemanticsError("nogood mentions an atom with both signs")

    def conflicts_with(self, interpretation: frozenset[int]) -> bool:
        return all((a in interpretation) == sign for a, sign in self.signed_literals)

    def satisfied_by(self, interpretation: frozenset[int]) -> bool:
        return not self.conflicts_with(interpretation)

    def atoms(self) -> frozenset[int]:
        return frozenset(a for a, _ in self.signed_literals)


@dataclass(frozen=True)
class GroundProgram:
    signature: frozenset[int]
    normal_rules: tuple[NormalRule, ...] = ()
    choice_rules: tuple[ChoiceRule, ...] = ()
    cardinality_constraints: tuple[CardinalityConstraint, ...] = ()
    nogoods: tuple[Nogood, ...] = ()

    def __post_init__(self) -> None:
        used = self.used_atoms()
        if not used <= self.signature:
            raise SemanticsError(
                f"atoms {sorted(used - self.signature)} missing from signature"
            )
        for a in self.signature:
            if a < 1:
                raise SemanticsError(f"atom ids must be >= 1, got {a}")

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


@dataclass(frozen=True)
class ObjectiveFunction:
    """One priority level of a minimize statement: weighted literals."""

    terms: tuple[tuple[int, Literal], ...]


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


# Lane flags (one 0 or 1 byte per lane) to and from base-2 digits.
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _lane_flags(vector: int, width: int) -> bytes:
    """One byte per lane, 1 where the vector has the lane's bit set (none at width 0)."""
    return format(vector, f"0{width}b")[::-1][:width].encode().translate(_FLAGS)


def _lane_models(true_in: dict[int, int], lanes: int, width: int) -> list[frozenset[int]]:
    """The models held in the given lanes, in order of their sorted atoms."""
    keep = _lane_flags(lanes, width)
    atoms = sorted(a for a, held in true_in.items() if held & lanes)
    columns = [bytes(compress(_lane_flags(true_in[a], width), keep)) for a in atoms]
    rows = zip(*columns) if columns else repeat((), lanes.bit_count())
    models: list = [tuple(compress(atoms, row)) for row in rows]
    # Sorted atom tuples order the models as their sorted atoms do.  Each
    # becomes its frozenset in place, so no model is held twice; copied from
    # a set, the frozenset's table is sized to its atoms, where one grown
    # straight from the tuple can be twice as large.
    models.sort()
    for i, model in enumerate(models):
        models[i] = frozenset(set(model))
    return models


def lane_values(objective: ObjectiveFunction, lanes: dict[int, int], width: int) -> list[int]:
    """Each lane's value: the summed weights of the literals that hold in it.

    An atom missing from ``lanes`` holds in no lane, so its negation in all.
    """
    all_lanes = (1 << width) - 1
    weights = [w for w, _ in objective.terms]
    columns = [
        _lane_flags(lanes.get(l.atom, 0) ^ (0 if l.positive else all_lanes), width)
        for _, l in objective.terms
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
        read |= c.head_atoms | {l.atom for l in c.body if not l.positive}
    return sorted(heads & read)


def model_lanes(models: Sequence[frozenset[int]], atom: int) -> int:
    """The lanes, one per model in order, of the models that hold the atom."""
    flags = bytes(map(frozenset.__contains__, reversed(models), repeat(atom)))
    return int(flags.translate(_DIGITS), 2)


def splitting_set(program: GroundProgram, atoms: Iterable[int]) -> frozenset[int]:
    """The smallest superset of the atoms holding all atoms of each rule that defines one."""
    bottom = set(atoms)
    changed = True
    while changed:
        changed = False
        for r in program.normal_rules:
            if r.head in bottom and not r.atoms() <= bottom:
                bottom |= r.atoms()
                changed = True
    return frozenset(bottom)


def auto_split_atoms(program: GroundProgram) -> frozenset[int]:
    """Smallest workable splitting set for layered enumeration.

    Seeds with everything that demands search or constrains models (choice
    rules, nogoods, cardinality constraints, negated body atoms), so the part
    above the split is positive and derived once the bottom is guessed.
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
    return splitting_set(program, bottom)


def enumerate_answer_sets_layered(program: GroundProgram) -> list[frozenset[int]]:
    """Answer sets across the smallest workable splitting set.

    Only the choice heads and negated atoms below it are guessed, so
    programs whose upper layers are positive and deterministic (for example
    attached network translations) stay enumerable far beyond the guard's
    count of atoms.
    """
    return enumerate_answer_sets_split(program, auto_split_atoms(program))


def enumerate_answer_sets_split(
    program: GroundProgram,
    bottom_atoms: frozenset[int],
    bottom_models: Sequence[frozenset[int]] | None = None,
) -> list[frozenset[int]]:
    """Answer sets across a splitting set, in order of their sorted atoms (see ``answer_lanes``)."""
    return _lane_models(*answer_lanes(program, bottom_atoms, bottom_models))


def answer_lanes(
    program: GroundProgram,
    bottom_atoms: frozenset[int],
    bottom_models: Sequence[frozenset[int]] | None = None,
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

    ``bottom_models``, when given, must be the answer sets of the part below
    the split: the rules defining bottom atoms and the constraints over them
    alone.  Nothing is guessed then.  Lane i holds bottom model i as facts,
    and only the rules above the split are closed over it; by the
    splitting-set theorem each lane that passes the constraints is one
    answer set.
    """
    bottom_atoms = frozenset(bottom_atoms)
    guessed = _guessed_atoms(program, bottom_atoms)
    if bottom_models is None:
        if len(guessed) > MAX_ENUM_ATOMS:
            raise SemanticsError(
                f"{len(guessed)} atoms exceed the brute-force guard of {MAX_ENUM_ATOMS}"
            )
        width = 1 << len(guessed)
        guess = dict(zip(guessed, _choice_lanes(len(guessed))))
        normal_rules, choice_rules = program.normal_rules, program.choice_rules
    elif not bottom_models:
        return {}, 0, 0
    else:
        width = len(bottom_models)
        guess = {a: model_lanes(bottom_models, a) for a in bottom_atoms}
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
        pos_body = frozenset(l.atom for l in c.body if l.positive)
        lanes = unguessed(l.atom for l in c.body if not l.positive)
        rules += (LaneRule(a, pos_body, lanes & guess[a]) for a in c.head_atoms)
    if bottom_models is not None:
        rules += (LaneRule(a, frozenset(), lanes) for a, lanes in guess.items())
    true_in = least_model(rules)

    def holds(atom: int, positive: bool) -> int:
        lanes = true_in.get(atom, 0)
        return lanes if positive else all_lanes ^ lanes

    answers = all_lanes
    for atom, lanes in guess.items():
        answers &= ~(true_in.get(atom, 0) ^ lanes)
    for ng in program.nogoods:
        conflict = all_lanes
        for a, sign in ng.signed_literals:
            conflict &= holds(a, sign)
        answers &= ~conflict
    for cc in program.cardinality_constraints:
        satisfied = [holds(l.atom, l.positive) for l in set(cc.literals)]
        answers &= _at_least(satisfied, cc.lower_bound, all_lanes)
    return true_in, answers, width
