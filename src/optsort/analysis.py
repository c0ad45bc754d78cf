"""Binomial benchmark family and the abstract branch-and-bound propagator model.

The simulator replays the final unsatisfiability phase of branch-and-bound
optimization: it repeatedly presents the program's answer sets to a
cardinality propagator, accumulating the learned nogoods (never deleting any)
until no answer set survives.  The trace length measures solving difficulty.
The total assignments a solver hands its propagator are the supported
models; for a tight program, such as a free choice under a sorter's definite
acyclic rules, these are exactly its answer sets (Fages 1994).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import aspif
from .asplang import (
    GroundProgram,
    SemanticsError,
    enumerate_answer_sets_split,
    in_sorted_order,
)
from .rewrite import RewriteConfig, rewrite_objective


def binomial_document(n: int, k: int, opt: bool = False) -> aspif.AspifDocument:
    """Free choice over n atoms constrained to keep at least k of them.

    The constraint fires when at least n - k + 1 atoms are false.  For
    k > n it always fires, and its bound is written as 0, never negative,
    so that it fits any 32-bit reader.  ``opt`` adds the unit-weight
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
                aspif.WeightBody(max(n - k + 1, 0), tuple((-a, 1) for a in atoms)),
            )
        )
    if opt:
        statements.append(aspif.Minimize(0, tuple((a, 1) for a in atoms)))
    return aspif.AspifDocument(statements=tuple(statements))


# Bytes `gen-binomial` may print.  Each atom takes at most 3 x its digits + 8
# bytes over the three statements.  The budget admits n = 1 000 000 (25.7 MB
# printed with --opt; 1.2 s and a 304 MB peak end to end on a shared 2-vCPU
# machine) and refuses n = 3 000 000 (84 MB printed, 3.4 s, 851 MB peak):
# the writer holds about ten bytes per byte it prints.
GEN_BYTE_BUDGET = 1 << 25


def check_binomial_bytes(n: int) -> None:
    """Refuse printing the binomial document over n atoms past ``GEN_BYTE_BUDGET``."""
    size = n * (3 * len(str(n)) + 8) + 64
    if size > GEN_BYTE_BUDGET:
        raise SemanticsError(
            f"gen-binomial {n} could print {size} bytes, over the budget of {GEN_BYTE_BUDGET}"
        )


class Propagator(NamedTuple):
    """Lazily represented all-true-k-subset constraint over some atoms.

    Conflicts are explained by the k smallest true atoms of the conflicting
    assignment, in ascending order: the nogood forbidding them all true.
    """

    atoms: tuple[int, ...]
    bound: int

    def conflicts_with(self, assignment: frozenset[int]) -> bool:
        return len(assignment.intersection(self.atoms)) >= self.bound

    def explain(self, assignment: frozenset[int]) -> tuple[int, ...]:
        true_atoms = sorted(assignment.intersection(self.atoms))
        if len(true_atoms) < self.bound:
            raise SemanticsError("explain called on a non-conflicting assignment")
        return tuple(true_atoms[: self.bound])


def card_propagator(atoms: Sequence[int], k: int) -> Propagator:
    if k > len(atoms):
        raise SemanticsError(f"bound {k} exceeds {len(atoms)} atoms")
    return Propagator(tuple(atoms), k)


class PropagatorTrace(NamedTuple):
    """Recorded propagator call history with its learned nogoods.

    Each nogood is the ascending tuple of atoms it forbids all true.
    """

    assignments: tuple[frozenset[int], ...]
    nogoods: tuple[tuple[int, ...], ...]
    complete: bool

    @property
    def m(self) -> int:
        return len(self.assignments)

    def summary(self) -> str:
        return f"m={self.m} complete={'true' if self.complete else 'false'}"

    def to_text(self) -> str:
        lines = []
        for idx, (assignment, ng) in enumerate(zip(self.assignments, self.nogoods), 1):
            atoms = ",".join(f"T{a}" for a in ng)
            lines.append(f"call {idx}: |A|={len(assignment)} nogood={{{atoms}}}")
        lines.append(self.summary())
        return "\n".join(lines)


# Closing every choice subset costs about 2^n x (normal rules + n) steps.  The
# budget admits bare binomial programs up to n = 17 and full sorters up to
# n = 14.  End to end on a shared 2-vCPU machine, `optsort pch` takes
# 0.11-0.14 s at 14 7, 0.14-0.17 s at 15 7, 0.36-0.37 s at 16 8, 0.81-0.96 s
# at 17 8 and 0.12 s at 14 7 with a full sorter; past 15 atoms time roughly
# doubles per atom, as the lanes do.
CANDIDATE_COST_BUDGET = 1 << 22


def check_candidate_cost(choice_atoms: int, rules: int) -> None:
    """Refuse closing 2^choice_atoms subsets over ``rules`` normal rules past the budget.

    Past the budget's bit length the subsets alone pass it, so the refusal
    is decided and worded without building 2^choice_atoms.
    """
    steps = rules + choice_atoms  # per subset
    if choice_atoms <= CANDIDATE_COST_BUDGET.bit_length():
        cost = steps << choice_atoms
        if cost <= CANDIDATE_COST_BUDGET:
            return
    else:
        cost = f"2^{choice_atoms} x {steps}"
    raise SemanticsError(
        f"closing 2^{choice_atoms} choice subsets over {rules} rules "
        f"costs about {cost} steps, over the budget of {CANDIDATE_COST_BUDGET}"
    )


def run_pch(program: GroundProgram, propagator: Propagator) -> PropagatorTrace:
    """Drive the propagator with the program's answer sets until none remain.

    The candidates are the answer lanes of ``enumerate_answer_sets_split``,
    so any ground program runs under its guard on guessed atoms; for a tight
    program they are its supported models (Fages 1994).  Candidates are
    visited in lexicographic order; each conflicting one contributes its
    explanation, the atoms of a nogood forbidding them all true, to the pool
    of learned nogoods, which immediately prunes the remaining candidates.
    A candidate that does not conflict ends the history incomplete.
    """
    # Each candidate has a lane: in remaining while no learned nogood prunes
    # it, and in an atom's lanes when the candidate holds the atom.
    lanes, remaining = enumerate_answer_sets_split(program)
    assignments: list[frozenset[int]] = []
    learned: list[tuple[int, ...]] = []
    for model, _ in in_sorted_order(lanes, lambda: remaining):
        current = frozenset(model)
        if not propagator.conflicts_with(current):
            return PropagatorTrace(tuple(assignments), tuple(learned), False)
        explanation = propagator.explain(current)
        assignments.append(current)
        learned.append(explanation)
        pruned = remaining
        for a in explanation:
            pruned &= lanes.get(a, 0)
        remaining ^= pruned
    return PropagatorTrace(tuple(assignments), tuple(learned), True)


def attach_network(
    document: aspif.AspifDocument, depth_limit: int | None
) -> tuple[GroundProgram, Sequence[int]]:
    """The document rewritten with its objective's sorter, and the atoms a propagator watches.

    The document is rewritten as ``optsort rewrite --depth D --no-propagate``
    writes it, since nothing here reads the weights, and read back from its
    aspif text, as ``verify`` reads a rewrite.  The document must hold one
    objective level.  The watched atoms are the last column of the level's
    atom block, or the level's own literals when it is not wired.
    """
    rewritten, report = rewrite_objective(document, RewriteConfig(depth_limit, propagate=False))
    program, objectives = aspif.to_ground_program(aspif.parse(aspif.write(rewritten)))
    (level,) = report.levels
    if level.network_width:
        return program, level.atoms[-level.network_width:]
    return program, [literal for literal, _ in objectives[level.priority]]
