"""Ground answer-set programs and their brute-force semantics.

Programs mix normal and choice rules, weight constraints and nogoods over
positive integer atoms.  A literal is an int as in aspif: ``a`` for atom a,
``-a`` for its default negation.  Everything here is meant for desk-scale
verification: answer sets are enumerated exhaustively, every guess at once as
one bit lane of a Python integer, guarded by an atom-count limit.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

# The most atoms an enumeration guesses: each guess is one bit lane, so every
# atom's lane vector then takes 2 MB.
MAX_ENUM_ATOMS = 24


class SemanticsError(ValueError):
    """Raised for malformed programs or blown enumeration guards."""


class GroundRule(NamedTuple):
    """``head :- pos_body, not neg_body``, or ``{head} :- ...`` with ``choice``:
    the body may justify the head but does not force it."""

    head: int
    pos_body: frozenset[int] = frozenset()
    neg_body: frozenset[int] = frozenset()
    choice: bool = False


class WeightConstraint(NamedTuple):
    """Forbids every assignment where sum(w_i * [l_i]) >= bound over its
    (literal, weight) terms, kept as written, for any integer weights."""

    terms: tuple[tuple[int, int], ...]
    bound: int


class Nogood(NamedTuple):
    """Forbids every total assignment in which all its literals hold."""

    literals: frozenset[int]

    def conflicts_with(self, interpretation: frozenset[int]) -> bool:
        return all((abs(l) in interpretation) == (l > 0) for l in self.literals)


class GroundProgram(NamedTuple):
    signature: frozenset[int]
    rules: tuple[GroundRule, ...] = ()
    weight_constraints: tuple[WeightConstraint, ...] = ()
    nogoods: tuple[Nogood, ...] = ()


class LaneRule(NamedTuple):
    """A positive rule that derives its head only in the given bit lanes."""

    head: int
    pos_body: frozenset[int]
    lanes: int


def _dependency_order(rules: Sequence[LaneRule]) -> tuple[list[LaneRule], bool]:
    """The rules ordered so that each follows every rule deriving its body atoms.

    Only a positive cycle prevents such an order; the flag says whether one
    does, and the rules come in depth-first finishing order all the same.
    """
    by_head: dict[int, list[LaneRule]] = {}
    for r in rules:
        by_head.setdefault(r.head, []).append(r)
    graph = {
        h: set().union(*(r.pos_body for r in group)) & by_head.keys()
        for h, group in by_head.items()
    }
    ordered: list[LaneRule] = []
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


def guessed_atoms(program: GroundProgram) -> list[int]:
    """The atoms a guess must fix, sorted: the derivable atoms that the reduct reads.

    These are the choice heads and the negated atoms that some rule derives.
    Every other atom is derived from them, or false where no rule derives it.
    """
    heads = {r.head for r in program.rules}
    read = {r.head for r in program.rules if r.choice}
    for r in program.rules:
        read |= r.neg_body
    return sorted(heads & read)


def enumerate_answer_sets_layered(program: GroundProgram) -> tuple[dict[int, int], int]:
    """The same as ``enumerate_answer_sets_split``.

    Both names stay only because the benchmark's tracer spans each:
    ``verify`` calls this one, ``pch`` the other.  A change to the benchmark
    can drop one of them.
    """
    return enumerate_answer_sets_split(program)


def enumerate_answer_sets_split(program: GroundProgram) -> tuple[dict[int, int], int]:
    """Answer sets as (atom lanes, answers), one answer set per answer lane.

    ``answers`` is the mask of lanes that hold an answer set, and each atom
    that some answer set holds maps to the answer lanes that hold it.  See
    ``answer_lanes`` for the guess and the lanes.
    """
    true_in, answers = answer_lanes(program)
    lanes = {a: held for a, derived in true_in.items() if (held := derived & answers)}
    return lanes, answers


def answer_lanes(
    program: GroundProgram, given: tuple[dict[int, int], int] | None = None
) -> tuple[dict[int, int], int]:
    """Answer sets as (atom lanes, answers), one answer set per answer lane.

    Each lane is one guess.  Without ``given``, the lanes are the subsets of
    the program's ``guessed_atoms``.  ``given`` is (atom lanes, lane
    universe) instead: each lane of the universe guesses true the atoms
    whose lanes hold it and false the other atoms of ``given``, which must
    include every guessed atom, or SemanticsError is raised.  One
    ``least_model`` call closes the rules in every lane: a negated atom is
    read from the guess, and a choice head is derivable only where it is
    guessed.  A lane is stable when the atoms it derives equal its guess on
    every atom it guesses; every other atom is derived.  The stable lanes that
    pass the nogoods and weight constraints are the answer sets, and
    ``answers`` is their mask.  A weight constraint fires in the lanes where
    sum(w_i * [l_i]) >= bound, decided by one ``lane_sum`` over its atoms' own
    lanes.  An atom's lanes may also hold lanes outside it.
    """
    guessed = guessed_atoms(program)
    if given is None:
        if len(guessed) > MAX_ENUM_ATOMS:
            raise SemanticsError(
                f"{len(guessed)} atoms exceed the brute-force guard of {MAX_ENUM_ATOMS}"
            )
        all_lanes = (1 << (1 << len(guessed))) - 1
        # The smallest atom takes the top bit: the models that come first by
        # their sorted atoms lie in the top lanes, which pch prunes first.
        guess = dict(zip(reversed(guessed), _choice_lanes(len(guessed))))
    else:
        guess, all_lanes = given
        if missing := [a for a in guessed if a not in guess]:
            raise SemanticsError(f"the guess leaves out the guessed atoms {missing}")

    def unguessed(atoms: Iterable[int]) -> int:
        lanes = all_lanes
        for atom in atoms:
            lanes &= all_lanes ^ guess.get(atom, 0)
        return lanes

    rules = []
    for r in program.rules:
        lanes = unguessed(r.neg_body)
        if r.choice:
            # without a negated body a head takes its guess's own int: no new lane vector
            lanes = lanes & guess[r.head] if r.neg_body else guess[r.head]
        rules.append(LaneRule(r.head, r.pos_body, lanes))
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
    for wc in program.weight_constraints:
        # keep the lanes where bound - 1 - sum >= 0; a term (-a, w) weighs w - w*[a]
        slack = [(true_in.get(abs(l), 0), w if l < 0 else -w) for l, w in wc.terms]
        constant = wc.bound - 1 - sum(w for l, w in wc.terms if l < 0)
        answers &= ~lane_sum([*slack, (all_lanes, constant)])[-1]
    return true_in, answers
