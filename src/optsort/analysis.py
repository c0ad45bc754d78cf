"""Binomial benchmark family and the abstract branch-and-bound propagator model.

The simulator replays the final unsatisfiability phase of branch-and-bound
optimization: it repeatedly presents total supported-model candidates to a
cardinality propagator, accumulating the learned nogoods (never deleting any)
until no candidate survives.  The trace length measures solving difficulty.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from . import aspif
from .asplang import (
    GroundProgram,
    Nogood,
    SemanticsError,
    _dependency_order,
    enumerate_answer_sets_split,
    model_lanes,
    splitting_set,
)
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


# Closing every choice subset costs about 2^n x (normal rules + n) steps.  The
# budget admits bare binomial programs up to n = 17 and full sorters up to
# n = 14.  End to end on a shared 2-vCPU machine, `optsort pch` takes 0.26 s
# at 14 7, 0.41 s at 15 7, 0.73 s at 16 8, 1.6 s at 17 8 and 0.42 s at 14 7
# with a full sorter; time roughly doubles per atom, as the lanes do.
CANDIDATE_COST_BUDGET = 1 << 22


def _supported_candidates(program: GroundProgram) -> list[frozenset[int]]:
    """Total supported-model candidates, in order of their sorted atoms.

    Requires empty-bodied choice rules and negation-free, acyclic normal
    rules.  Such a program is tight, so its supported models are its answer
    sets.  The enumerator splits at the choice atoms, with any rule defining
    one.  With no negation the choice atoms are all it guesses, so each
    choice subset is one bit lane and the budget counts its lanes.
    """
    choice_atoms: set[int] = set()
    for c in program.choice_rules:
        if c.body:
            raise SemanticsError("candidate enumeration needs empty choice bodies")
        choice_atoms |= c.head_atoms
    for r in program.normal_rules:
        if r.neg_body:
            raise SemanticsError("candidate enumeration needs negation-free rules")
    if _dependency_order(program.normal_rules)[1]:
        raise SemanticsError("positive rule cycle defeats candidate closure")
    n = len(choice_atoms)
    cost = (1 << n) * (len(program.normal_rules) + n)
    if cost > CANDIDATE_COST_BUDGET:
        raise SemanticsError(
            f"closing 2^{n} choice subsets over {len(program.normal_rules)} rules "
            f"costs about {cost} steps, over the budget of {CANDIDATE_COST_BUDGET}"
        )
    return enumerate_answer_sets_split(program, splitting_set(program, choice_atoms))


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
            columns[atom] = model_lanes(candidates, atom)
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
