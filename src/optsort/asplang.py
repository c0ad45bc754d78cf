"""Ground answer-set programs and their brute-force semantics.

Programs mix normal rules, choice rules, cardinality constraints and nogoods
over positive integer atoms.  A literal is an int as in aspif: ``a`` for
atom a, ``-a`` for its default negation.  Everything here is meant for
desk-scale verification: answer sets are enumerated exhaustively, every guess
at once as one bit lane of a Python integer, guarded by an atom-count limit.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

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
    repeat until no atom gains a lane.  A head derived exactly where its body
    atom holds gets that atom's int itself, so copy rules add no lane vector.
    """
    ordered, cyclic = _dependency_order(rules)
    true_in: dict[int, int] = {}
    grew = True
    while grew:
        grew = False
        for head, body, lanes in ordered:
            for atom in body:
                # a lane vector that the rule copies unchanged is shared, not rebuilt
                held = true_in.get(atom, 0)
                both = lanes & held
                lanes = held if both == held else both
            known = true_in.get(head, 0)
            true_in[head] = known | lanes if known else lanes
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


def lane_sum(terms: Sequence[tuple[int, int]]) -> list[int]:
    """Each lane's sum of the weights of the (lane vector, weight) terms set in it, as bit planes.

    Plane b holds bit b of every lane's sum in two's complement, and the last
    plane is the sign.  The planes are wide enough for any sum the absolute
    weights allow, so a lane sums to zero exactly where no plane holds it.
    """
    bits = sum(abs(w) for _, w in terms).bit_length() + 1
    planes = [0] * bits
    for vector, weight in terms:
        size = abs(weight)
        for b in range(size.bit_length()):
            if size >> b & 1:
                # add or subtract the vector at plane b, rippling the carry
                # or borrow upwards
                carry = vector
                for p in range(b, bits):
                    held = planes[p] & carry
                    planes[p] ^= carry
                    carry = held if weight > 0 else held ^ carry
                    if not carry:
                        break
    return planes


def in_sorted_order(
    lanes: dict[int, int], live: Callable[[], int]
) -> Iterator[tuple[list[int], int]]:
    """The models held in the live lanes as (sorted atoms, lane), in order of their sorted atoms.

    ``lanes`` maps each atom to the lanes that hold it, and the lanes hold
    distinct models.  ``live()`` gives the lanes wanted: the walk starts from
    its first value, and it is read again at every step, so it may drop lanes
    between two models, never add one, and the walk skips what it dropped.
    """
    atoms = sorted(lanes)
    columns = [lanes[a] for a in atoms]
    everything = live()
    # ended[p]: the lanes that hold no atom at position p or after
    ended = [everything & ~later for later in accumulate(reversed(columns), or_, initial=0)][::-1]
    # Depth first: a node holds the lanes whose models agree on the atoms
    # before position p.  The lane that holds no further atom comes first,
    # then the lanes that hold the atom at p, then those that skip it.
    stack = [(0, everything, ())]
    while stack:
        p, mask, model = stack.pop()
        mask &= live()
        done = mask & ended[p]
        if done:
            yield list(model), done.bit_length() - 1
            mask ^= done
        if mask:
            held = mask & columns[p]
            if held != mask:
                stack.append((p + 1, mask ^ held, model))
            if held:
                stack.append((p + 1, held, (*model, atoms[p])))


def guessed_atoms(program: GroundProgram, bottom_atoms: frozenset[int]) -> list[int]:
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


def enumerate_answer_sets_layered(program: GroundProgram) -> tuple[dict[int, int], int]:
    """Answer sets across the smallest workable splitting set, as lanes.

    Only the choice heads and negated atoms below it are guessed, so
    programs whose upper layers are positive and deterministic (for example
    attached network translations) stay enumerable far beyond the guard's
    count of atoms.
    """
    return enumerate_answer_sets_split(program, auto_split_atoms(program))


def enumerate_answer_sets_split(
    program: GroundProgram, bottom_atoms: frozenset[int]
) -> tuple[dict[int, int], int]:
    """Answer sets across a splitting set as (atom lanes, answers), one answer set per answer lane.

    ``answers`` is the mask of lanes that hold an answer set, and each atom
    that some answer set holds maps to the answer lanes that hold it.  See
    ``answer_lanes`` for the split and the lanes.
    """
    true_in, answers = answer_lanes(program, bottom_atoms)
    lanes = {a: held for a, derived in true_in.items() if (held := derived & answers)}
    return lanes, answers


def answer_lanes(
    program: GroundProgram,
    bottom_atoms: frozenset[int],
    bottom: tuple[dict[int, int], int] | None = None,
) -> tuple[dict[int, int], int]:
    """Answer sets across a splitting set as (atom lanes, answers), one answer set per answer lane.

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
    nogoods and cardinality constraints are the answer sets, and ``answers``
    is their mask.  An atom's lanes may also hold lanes outside it.

    ``bottom``, when given, must hold the answer sets of the part below the
    split as the enumerators return them: each bottom atom's lanes and the
    mask of answer lanes.  They are the answer sets of the rules defining
    bottom atoms and the constraints over them alone.  Nothing is guessed
    then, and the mask is the lane universe: each of its lanes holds its
    bottom model as facts, and only the rules above the split are closed
    over it.  By the splitting-set theorem each lane that passes the
    constraints is one answer set, in the lane of its bottom model.
    """
    bottom_atoms = frozenset(bottom_atoms)
    guessed = guessed_atoms(program, bottom_atoms)
    if bottom is None:
        if len(guessed) > MAX_ENUM_ATOMS:
            raise SemanticsError(
                f"{len(guessed)} atoms exceed the brute-force guard of {MAX_ENUM_ATOMS}"
            )
        all_lanes = (1 << (1 << len(guessed))) - 1
        # The smallest atom takes the top bit: the models that come first by
        # their sorted atoms lie in the top lanes, which pch prunes first.
        guess = dict(zip(reversed(guessed), _choice_lanes(len(guessed))))
        normal_rules, choice_rules = program.normal_rules, program.choice_rules
    else:
        bottom_lanes, all_lanes = bottom
        guess = {a: bottom_lanes.get(a, 0) for a in bottom_atoms}
        normal_rules = [r for r in program.normal_rules if r.head not in bottom_atoms]
        choice_rules = ()

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
        count = [(holds(l), 1) for l in set(cc.literals)]
        answers &= ~lane_sum([*count, (all_lanes, -cc.lower_bound)])[-1]
    return true_in, answers
