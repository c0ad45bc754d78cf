"""Binomial benchmark family and the abstract branch-and-bound propagator model.

The simulator replays the final unsatisfiability phase of branch-and-bound
optimization: it repeatedly presents total supported-model candidates to a
cardinality propagator, accumulating the learned nogoods (never deleting any)
until no candidate survives.  The trace length measures solving difficulty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Iterable, Sequence

from . import aspif
from .asplang import GroundProgram, Nogood, NormalRule, SemanticsError
from .encode import WireAtomMap, asp_of_network, dense_wire_atom_map
from .network import Network


def binomial_document(n: int, k: int, opt: bool = False) -> aspif.AspifDocument:
    """Free choice over n atoms constrained to keep at least k of them.

    The constraint fires when at least n - k + 1 atoms are false; with n = 0
    and k > 0 it has no terms and always fires.  ``opt`` adds the unit-weight
    objective over the atoms.
    """
    if n < 0 or k < 0:
        raise SemanticsError("binomial parameters must be non-negative")
    atoms = tuple(range(1, n + 1))
    statements: list[aspif.Statement] = []
    if n:
        statements.append(aspif.Rule(aspif.CHOICE, atoms, aspif.NormalBody(())))
    if n or k:
        statements.append(
            aspif.Rule(
                aspif.DISJUNCTIVE,
                (),
                aspif.WeightBody(n - k + 1, tuple((-a, 1) for a in atoms)),
            )
        )
    if opt:
        statements.append(aspif.Minimize(0, tuple((a, 1) for a in atoms)))
    return aspif.AspifDocument(statements=tuple(statements))


def binomial_program(n: int, k: int) -> GroundProgram:
    """The binomial document in the semantic model."""
    return aspif.to_ground_program(binomial_document(n, k))[0]


@dataclass(frozen=True)
class Propagator:
    """Lazily represented all-true-k-subset constraint over some atoms.

    Conflicts are explained by the nogood over the k smallest true atoms of
    the conflicting assignment.
    """

    atoms: tuple[int, ...]
    bound: int

    def conflicts_with(self, assignment: frozenset[int]) -> bool:
        return sum(1 for a in self.atoms if a in assignment) >= self.bound

    def explain(self, assignment: frozenset[int]) -> Nogood:
        true_atoms = sorted(a for a in self.atoms if a in assignment)
        if len(true_atoms) < self.bound:
            raise SemanticsError("explain called on a non-conflicting assignment")
        return Nogood(frozenset((a, True) for a in true_atoms[: self.bound]))


def card_propagator(atoms: Sequence[int], k: int) -> Propagator:
    if k > len(atoms):
        raise SemanticsError(f"bound {k} exceeds {len(atoms)} atoms")
    return Propagator(tuple(atoms), k)


@dataclass(frozen=True)
class PropagatorTrace:
    """Recorded propagator call history with its learned nogoods."""

    assignments: tuple[frozenset[int], ...]
    nogoods: tuple[Nogood, ...]
    complete: bool

    @property
    def m(self) -> int:
        return len(self.assignments)

    def summary(self) -> str:
        return f"m={self.m} complete={'true' if self.complete else 'false'}"

    def to_text(self) -> str:
        lines = []
        for idx, (assignment, ng) in enumerate(zip(self.assignments, self.nogoods), 1):
            atoms = ",".join(f"T{a}" for a, _ in sorted(ng.signed_literals))
            lines.append(f"call {idx}: |A|={len(assignment)} nogood={{{atoms}}}")
        lines.append(self.summary())
        return "\n".join(lines)


def _dependency_order(rules: Sequence[NormalRule]) -> list[NormalRule]:
    """The rules ordered so that each follows every rule deriving its body atoms.

    A positive cycle has no such order and is refused.
    """
    by_head: dict[int, list[NormalRule]] = {}
    for r in rules:
        by_head.setdefault(r.head, []).append(r)
    graph = {
        h: set().union(*(r.pos_body for r in group)) & by_head.keys()
        for h, group in by_head.items()
    }
    ordered: list[NormalRule] = []
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
                    raise SemanticsError("positive rule cycle defeats candidate closure")
                if not state.get(child):
                    state[child] = 1
                    stack.append((child, iter(graph[child])))
                    break
            else:
                state[node] = 2
                ordered += by_head[node]
                stack.pop()
    return ordered


def _choice_lanes(n: int) -> list[int]:
    """For each choice atom number b, the lanes whose subset index has bit b set."""
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
    """One byte per lane, 1 where the vector has the lane's bit set."""
    return format(vector, f"0{width}b")[::-1].encode().translate(_FLAGS)


# Closing every choice subset costs about 2^n x (normal rules + n) steps.  The
# budget admits bare binomial programs up to n = 17 and full sorters up to
# n = 14.  End to end on a shared 2-vCPU machine, `optsort pch` takes 0.26 s
# at 14 7, 0.41 s at 15 7, 0.73 s at 16 8, 1.6 s at 17 8 and 0.42 s at 14 7
# with a full sorter; time roughly doubles per atom, as the lanes do.
CANDIDATE_COST_BUDGET = 1 << 22


def _supported_candidates(program: GroundProgram) -> list[frozenset[int]]:
    """Total supported-model candidates, in order of their sorted atoms.

    Requires empty-bodied choice rules and negation-free, acyclic normal
    rules: then supported models are exactly the closures of choice subsets
    that pass the constraints.  Subset number i is bit lane i of every
    vector: choice atom number b is true in the lanes whose index has bit b
    set, and one pass over the rules in dependency order closes all subsets.
    """
    choice_atoms: set[int] = set()
    for c in program.choice_rules:
        if c.body:
            raise SemanticsError("candidate enumeration needs empty choice bodies")
        choice_atoms |= c.head_atoms
    for r in program.normal_rules:
        if r.neg_body:
            raise SemanticsError("candidate enumeration needs negation-free rules")
    rules = _dependency_order(program.normal_rules)
    order = sorted(choice_atoms)
    n = len(order)
    if n > 24:
        raise SemanticsError(f"{n} choice atoms exceed the enumeration guard")
    cost = (1 << n) * (len(program.normal_rules) + n)
    if cost > CANDIDATE_COST_BUDGET:
        raise SemanticsError(
            f"closing 2^{n} choice subsets over {len(program.normal_rules)} rules "
            f"costs about {cost} steps, over the budget of {CANDIDATE_COST_BUDGET}"
        )
    width = 1 << n
    all_lanes = (1 << width) - 1
    choice_lanes = _choice_lanes(n)
    true_in = dict(zip(order, choice_lanes))
    for r in rules:
        derived = all_lanes
        for a in r.pos_body:
            derived &= true_in.get(a, 0)
        true_in[r.head] = true_in.get(r.head, 0) | derived

    def holds(atom: int, positive: bool) -> int:
        lanes = true_in.get(atom, 0)
        return lanes if positive else all_lanes ^ lanes

    survivors = all_lanes
    # A closure that derives further choice atoms is also the closure of
    # exactly those choice atoms, so only that subset keeps it.
    for a, lanes in zip(order, choice_lanes):
        survivors &= ~(true_in[a] & ~lanes)
    for ng in program.nogoods:
        conflict = all_lanes
        for a, sign in ng.signed_literals:
            conflict &= holds(a, sign)
        survivors &= ~conflict
    for cc in program.cardinality_constraints:
        satisfied = [holds(l.atom, l.positive) for l in set(cc.literals)]
        survivors &= _at_least(satisfied, cc.lower_bound, all_lanes)

    keep = _lane_flags(survivors, width)
    atoms = sorted(a for a, lanes in true_in.items() if lanes & survivors)
    columns = [bytes(compress(_lane_flags(true_in[a], width), keep)) for a in atoms]
    rows = zip(*columns) if columns else repeat((), survivors.bit_count())
    candidates: list = [tuple(compress(atoms, row)) for row in rows]
    # Sorted atom tuples order the models as their sorted atoms do.  Each
    # becomes its frozenset in place, so no model is held twice; copied from
    # a set, the frozenset's table is sized to its atoms, where one grown
    # straight from the tuple can be twice as large.
    candidates.sort()
    for i, model in enumerate(candidates):
        candidates[i] = frozenset(set(model))
    return candidates


def run_pch(
    program: GroundProgram,
    propagator: Propagator,
    shuffle_rng: random.Random | None = None,
) -> PropagatorTrace:
    """Drive the propagator with supported-model candidates until none remain.

    Candidates are visited in lexicographic order (or shuffled with the given
    generator); each conflicting one contributes its explanation to the pool
    of learned nogoods, which immediately prunes the remaining candidates.
    A surviving non-conflicting candidate would be an answer set, ending the
    history incomplete.
    """
    candidates = _supported_candidates(program)
    if shuffle_rng is not None:
        shuffle_rng.shuffle(candidates)
    # Bit i stands for candidates[i]: in remaining while no learned nogood
    # prunes it, and in an atom's column when the candidate holds the atom.
    everyone = remaining = (1 << len(candidates)) - 1
    columns: dict[int, int] = {}

    def holds(atom: int, positive: bool) -> int:
        if atom not in columns:
            flags = bytes(map(frozenset.__contains__, reversed(candidates), repeat(atom)))
            columns[atom] = int(flags.translate(_DIGITS), 2)
        return columns[atom] if positive else everyone ^ columns[atom]

    assignments: list[frozenset[int]] = []
    learned: list[Nogood] = []
    while remaining:
        current = candidates[(remaining & -remaining).bit_length() - 1]
        if not propagator.conflicts_with(current):
            return PropagatorTrace(tuple(assignments), tuple(learned), False)
        explanation = propagator.explain(current)
        assignments.append(current)
        learned.append(explanation)
        pruned = remaining
        for a, sign in explanation.signed_literals:
            pruned &= holds(a, sign)
        remaining ^= pruned
    return PropagatorTrace(tuple(assignments), tuple(learned), True)


def attach_network(
    program: GroundProgram, input_atoms: Sequence[int], network: Network
) -> tuple[GroundProgram, WireAtomMap]:
    """Graft a network's rule translation onto existing input atoms."""
    first_free = max(program.signature, default=0) + 1
    wire_map = dense_wire_atom_map(
        network.width, network.depth, first_free, inputs=list(input_atoms)
    )
    translation = aspif.AspifDocument(statements=tuple(asp_of_network(network, wire_map)))
    rules = aspif.to_ground_program(translation)[0].normal_rules
    merged = GroundProgram(
        signature=program.signature | frozenset(wire_map.atoms()),
        normal_rules=program.normal_rules + rules,
        choice_rules=program.choice_rules,
        cardinality_constraints=program.cardinality_constraints,
        nogoods=program.nogoods,
    )
    return merged, wire_map


def output_atoms(wire_map: WireAtomMap) -> list[int]:
    return list(wire_map.columns[-1])
