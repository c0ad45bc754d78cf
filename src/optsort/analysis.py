"""Binomial benchmark family and the abstract branch-and-bound propagator model.

The simulator replays the final unsatisfiability phase of branch-and-bound
optimization: it repeatedly presents total supported-model candidates to a
cardinality propagator, accumulating the learned nogoods (never deleting any)
until no candidate survives.  The trace length measures solving difficulty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import aspif
from .asplang import GroundProgram, Nogood, PositiveRules, SemanticsError
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


def _check_acyclic(rules: Sequence, heads: set[int]) -> None:
    graph = {h: set() for h in heads}
    for r in rules:
        graph[r.head] |= r.pos_body & heads
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
                stack.pop()


# Closing every choice subset costs about 2^n x (normal rules + n) steps.  The
# budget admits bare binomial programs up to n = 17 and full sorters up to
# n = 14, whose pch runs take under a minute; one size more takes minutes to
# hours, mostly in run_pch's nogood filter.
CANDIDATE_COST_BUDGET = 1 << 22


def _supported_candidates(program: GroundProgram) -> list[frozenset[int]]:
    """Total supported-model candidates, fast when the program is layered.

    Requires empty-bodied choice rules and negation-free, acyclic normal
    rules: then supported models are exactly the closures of choice subsets
    that pass the constraints.
    """
    choice_atoms: set[int] = set()
    for c in program.choice_rules:
        if c.body:
            raise SemanticsError("candidate enumeration needs empty choice bodies")
        choice_atoms |= c.head_atoms
    for r in program.normal_rules:
        if r.neg_body:
            raise SemanticsError("candidate enumeration needs negation-free rules")
    _check_acyclic(program.normal_rules, {r.head for r in program.normal_rules})
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
    candidates = []
    rules = PositiveRules((r.head, r.pos_body) for r in program.normal_rules)
    for mask in range(1 << n):
        model = rules.closure(order[b] for b in range(n) if mask >> b & 1)
        # A closure that derives further choice atoms is also the closure of
        # exactly those choice atoms, so only that subset keeps it.
        if len(model & choice_atoms) != mask.bit_count():
            continue
        if all(cc.satisfied_by(model) for cc in program.cardinality_constraints) and all(
            ng.satisfied_by(model) for ng in program.nogoods
        ):
            candidates.append(model)
    candidates.sort(key=lambda m: tuple(sorted(m)))
    return candidates


def _bits(atoms: Iterable[int]) -> int:
    return sum(1 << a for a in atoms)


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
    # Candidate sets are distinct, so each is keyed by its bitmask (bit a set
    # when atom a is true); a nogood prunes a mask when mask & care == value.
    by_mask = {_bits(c): c for c in candidates}
    masks = list(by_mask)
    assignments: list[frozenset[int]] = []
    learned: list[Nogood] = []
    while masks:
        current = by_mask[masks[0]]
        if not propagator.conflicts_with(current):
            return PropagatorTrace(tuple(assignments), tuple(learned), False)
        explanation = propagator.explain(current)
        assignments.append(current)
        learned.append(explanation)
        care = _bits(a for a, _ in explanation.signed_literals)
        value = _bits(a for a, sign in explanation.signed_literals if sign)
        masks = [m for m in masks if m & care != value]
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
    return [wire_map.atom(i, wire_map.depth) for i in range(1, wire_map.width + 1)]
