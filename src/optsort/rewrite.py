"""Rewriting of minimize statements through weighted sorting networks.

Each priority level of the objective is wired onto the inputs of an odd-even
sorting network (optionally depth-limited), the network is emitted as rules,
and the level's weights are propagated over a sparse decomposition.  The new
objective ranges over wire atoms and carries exactly the same value on every
answer set, in bijection with the original ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import aspif
from .asplang import (
    FreshAtoms,
    GroundProgram,
    ObjectiveFunction,
    answer_lanes,
    enumerate_answer_sets_layered,
    lane_values,
)
from .encode import WireAtomMap, asp_of_network, dense_wire_atom_map
from .network import oe_sorter
from .propagate import from_input_weights, propagate_sparse


class RewriteError(ValueError):
    """Raised for invalid rewrite configurations or inputs."""


@dataclass(frozen=True)
class RewriteConfig:
    """The four pipeline knobs.

    - ``depth_limit``: levels of the odd-even sorter kept; None means the
      full network, 0 disables rewriting entirely.
    - ``sparseness``: level-block size of the propagation decomposition;
      None collapses every connected region into a single block (weights
      land only on the input and output columns).
    - ``propagate``: with it off the network is still attached but weights
      stay on the input column.
    - ``sort_inputs``: wire the terms in descending weight order.
    """

    depth_limit: int | None = None
    sparseness: int | None = 1
    propagate: bool = True
    sort_inputs: bool = False

    def __post_init__(self) -> None:
        if self.depth_limit is not None and self.depth_limit < 0:
            raise RewriteError(f"depth limit must be >= 0, got {self.depth_limit}")
        if self.sparseness is not None and self.sparseness < 1:
            raise RewriteError(f"sparseness must be >= 1, got {self.sparseness}")


@dataclass(frozen=True)
class LevelReport:
    priority: int
    input_terms: int
    rewritten_terms: int
    passthrough_terms: int
    network_width: int
    network_depth: int
    network_size: int
    output_terms: int
    atoms_added: int
    rules_added: int
    wire_map: WireAtomMap | None = None


@dataclass(frozen=True)
class RewriteReport:
    levels: tuple[LevelReport, ...]

    def to_text(self) -> str:
        lines = []
        for lv in self.levels:
            lines.append(
                f"priority {lv.priority}: terms {lv.input_terms} -> {lv.output_terms} "
                f"(wired {lv.rewritten_terms}, passed {lv.passthrough_terms}), "
                f"network {lv.network_width}x{lv.network_depth} "
                f"size {lv.network_size}, atoms +{lv.atoms_added}, rules +{lv.rules_added}"
            )
        return "\n".join(lines)

    def sidecar_text(self) -> str:
        """Debug dump of every (wire, level) -> atom allocation, per priority."""
        lines = []
        for lv in self.levels:
            if lv.wire_map is not None:
                for entry in lv.wire_map.sidecar_lines():
                    lines.append(f"priority {lv.priority} {entry}")
        return "\n".join(lines)


def wire_inputs(
    terms: list[tuple[int, int]], fresh: FreshAtoms
) -> tuple[list[aspif.Rule], list[int]]:
    """Bridge each weighted signed aspif literal onto a fresh network input atom.

    One rule per term: the input atom is derived exactly when the literal
    holds.  Weights must be positive (normalization runs first).
    """
    rules = []
    inputs = []
    for w, lit in terms:
        if w <= 0:
            raise RewriteError(f"cannot wire non-positive weight {w}")
        if lit == 0:
            raise RewriteError("cannot wire literal 0")
        atom = fresh.take()
        rules.append(aspif.Rule(aspif.DISJUNCTIVE, (atom,), aspif.NormalBody((lit,))))
        inputs.append(atom)
    return rules, inputs


def _fits_32_bits(weight: int) -> bool:
    return -(2**31) <= weight < 2**31


def _normalize(
    terms: tuple[tuple[int, int], ...]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[tuple[int, int]]]:
    # Merge duplicate literals (weights summed, first occurrence keeps the
    # slot), then split off non-positive weights as pass-through terms.  A
    # merge may not carry 32-bit parts out of the 32-bit range that aspif
    # consumers store weights in; a part already outside it is the user's.
    merged: dict[int, int] = {}
    wide_parts: set[int] = set()
    for lit, w in terms:
        merged[lit] = merged.get(lit, 0) + w
        if not _fits_32_bits(w):
            wide_parts.add(lit)
    for lit, w in merged.items():
        if lit not in wide_parts and not _fits_32_bits(w):
            raise RewriteError(
                f"merged weight {w} of literal {lit} leaves the 32-bit range"
            )
    rewritable = [(lit, w) for lit, w in merged.items() if w > 0]
    passthrough = [(lit, w) for lit, w in merged.items() if w <= 0]
    return rewritable, passthrough, list(merged.items())


def _passthrough_report(priority: int, input_terms: int, kept_terms: int) -> LevelReport:
    """Report of a level that is not wired: its kept terms pass through."""
    return LevelReport(priority, input_terms, 0, kept_terms, 0, 0, 0, kept_terms, 0, 0)


def _rewrite_level(
    priority: int,
    terms: tuple[tuple[int, int], ...],
    config: RewriteConfig,
    fresh: FreshAtoms,
) -> tuple[list[aspif.Statement], LevelReport]:
    rewritable, passthrough, merged = _normalize(terms)
    if config.sort_inputs:
        rewritable.sort(key=lambda t: -t[1])
    if len(rewritable) < 2:
        statement = aspif.Minimize(priority, tuple(merged))
        return [statement], _passthrough_report(priority, len(terms), len(merged))

    weights = [w for _, w in rewritable]
    bridge_rules, input_atoms = wire_inputs([(w, lit) for lit, w in rewritable], fresh)
    network = oe_sorter(len(input_atoms), config.depth_limit)
    first_wire_atom = fresh.reserve(network.width * network.depth)
    wire_map = dense_wire_atom_map(
        network.width, network.depth, first_wire_atom, inputs=input_atoms
    )
    network_rules = asp_of_network(network, wire_map)

    matrix = from_input_weights(weights, network.depth)
    if config.propagate:
        matrix = propagate_sparse(matrix, network, config.sparseness)

    wire_terms = [
        (wire_map.atom(i, j), w) for i, j, w in matrix.nonzero_entries()
    ]
    out_terms = tuple(wire_terms) + tuple(passthrough)
    statements: list[aspif.Statement] = [
        *bridge_rules,
        *network_rules,
        aspif.Minimize(priority, out_terms),
    ]
    report = LevelReport(
        priority=priority,
        input_terms=len(terms),
        rewritten_terms=len(rewritable),
        passthrough_terms=len(passthrough),
        network_width=network.width,
        network_depth=network.depth,
        network_size=network.size(),
        output_terms=len(out_terms),
        atoms_added=len(input_atoms) + network.width * network.depth,
        rules_added=len(bridge_rules) + len(network_rules),
        wire_map=wire_map,
    )
    return statements, report


def rewrite_objective(
    document: aspif.AspifDocument, config: RewriteConfig
) -> tuple[aspif.AspifDocument, RewriteReport]:
    """Rewrite every minimize priority level of the document independently.

    Non-minimize statements pass through untouched; several minimize
    statements sharing a priority are merged into one.  A depth limit of 0
    leaves the document exactly as parsed.
    """
    by_priority: dict[int, list[tuple[int, int]]] = {}
    for s in document.statements:
        if isinstance(s, aspif.Minimize):
            by_priority.setdefault(s.priority, []).extend(s.terms)
    if config.depth_limit == 0 or not by_priority:
        levels = tuple(
            _passthrough_report(priority, len(terms), len(terms))
            for priority, terms in sorted(by_priority.items())
        )
        return document, RewriteReport(levels)

    fresh = FreshAtoms(document.max_atom_id() + 1)
    replacements: dict[int, list[aspif.Statement]] = {}
    reports = []
    for priority in sorted(by_priority):
        statements, report = _rewrite_level(
            priority, tuple(by_priority[priority]), config, fresh
        )
        replacements[priority] = statements
        reports.append(report)

    out_statements: list[aspif.Statement] = []
    emitted: set[int] = set()
    for s in document.statements:
        if isinstance(s, aspif.Minimize):
            if s.priority not in emitted:
                emitted.add(s.priority)
                out_statements.extend(replacements[s.priority])
        else:
            out_statements.append(s)
    rewritten = aspif.AspifDocument(
        document.version, document.tags, tuple(out_statements), True
    )
    return rewritten, RewriteReport(tuple(reports))


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    answer_sets: int
    detail: str = ""


def _keeps_input(before: GroundProgram, after: GroundProgram) -> bool:
    """Whether ``after`` defines the input's atoms by the input's own rules and keeps its constraints.

    Then the part of ``after`` below the input's signature has the input's
    answer sets, and the rules above it need only be closed over them.
    """
    below = {r for r in after.normal_rules if r.head in before.signature}
    return (
        below == set(before.normal_rules)
        and set(after.choice_rules) == set(before.choice_rules)
        and set(after.cardinality_constraints) >= set(before.cardinality_constraints)
        and set(after.nogoods) >= set(before.nogoods)
    )


def verify_rewrite(
    before: tuple[GroundProgram, dict[int, ObjectiveFunction]],
    after: tuple[GroundProgram, dict[int, ObjectiveFunction]],
    before_models: list[frozenset[int]] | None = None,
) -> VerifyReport:
    """Brute-force check that a rewrite preserves answer sets and values.

    The rewrite must keep the input's rules and constraints.  It is then
    closed over the input's answer sets, lane i holding answer set i: every
    lane must survive its constraints (a bijection onto the input's answer
    sets) and keep every level's value (hence also at the optimum).
    """
    before_program, before_objectives = before
    after_program, after_objectives = after
    if set(before_objectives) != set(after_objectives):
        return VerifyReport(False, 0, "objective priority levels differ")
    base = before_models
    if base is None:
        base = enumerate_answer_sets_layered(before_program)
    if not _keeps_input(before_program, after_program):
        return VerifyReport(
            False, len(base), "the rewrite does not keep the input's rules and constraints"
        )
    lanes, answers, width = answer_lanes(after_program, before_program.signature, base)
    if answers != (1 << width) - 1:
        return VerifyReport(
            False, len(base), f"answer set counts differ: {len(base)} vs {answers.bit_count()}"
        )
    for priority, objective in before_objectives.items():
        values = lane_values(objective, lanes, width)
        new_values = lane_values(after_objectives[priority], lanes, width)
        for model, value, new_value in zip(base, values, new_values):
            if value != new_value:
                detail = f"value mismatch at priority {priority} on {sorted(model)}: "
                return VerifyReport(False, len(base), detail + f"{value} vs {new_value}")
    return VerifyReport(True, len(base))


VERIFY_GRID = tuple(
    RewriteConfig(depth_limit=depth, sparseness=sparseness, propagate=propagate)
    for depth in (0, 1, 2, 4, None)
    for sparseness in (1, 2, None)
    for propagate in (True, False)
)


def verify_grid(
    document: aspif.AspifDocument,
    before: tuple[GroundProgram, dict[int, ObjectiveFunction]],
    before_models: list[frozenset[int]],
) -> list[tuple[RewriteConfig, VerifyReport]]:
    """Rewrite under every ``VERIFY_GRID`` configuration and verify each result.

    ``before`` is the document's own ground program and ``before_models`` its
    answer sets, enumerated once for the whole grid.  Configurations often
    give the same program (depth 0 ignores the other knobs, small networks
    reach full depth early), so each distinct ``aspif.write`` text is
    verified once and its report reused.
    """
    reports: dict[str, VerifyReport] = {}
    results = []
    for config in VERIFY_GRID:
        rewritten, _ = rewrite_objective(document, config)
        text = aspif.write(rewritten)
        if text not in reports:
            after = aspif.to_ground_program(rewritten)
            reports[text] = verify_rewrite(before, after, before_models)
        results.append((config, reports[text]))
    return results


def random_opt_document(rng: random.Random) -> aspif.AspifDocument:
    """Small seeded optimization program for randomized verification sweeps."""
    n_choice = rng.randint(2, 5)
    choice_atoms = list(range(1, n_choice + 1))
    statements: list[aspif.Statement] = [
        aspif.Rule(aspif.CHOICE, tuple(choice_atoms), aspif.NormalBody(()))
    ]
    atoms = list(choice_atoms)
    for _ in range(rng.randint(0, 3)):
        head = atoms[-1] + 1
        pool = list(atoms)
        body = tuple(
            a if rng.random() < 0.7 else -a
            for a in rng.sample(pool, k=rng.randint(1, min(2, len(pool))))
        )
        statements.append(aspif.Rule(aspif.DISJUNCTIVE, (head,), aspif.NormalBody(body)))
        atoms.append(head)
    if rng.random() < 0.4:
        body = tuple(
            a if rng.random() < 0.6 else -a
            for a in rng.sample(atoms, k=rng.randint(1, min(3, len(atoms))))
        )
        statements.append(aspif.Rule(aspif.DISJUNCTIVE, (), aspif.NormalBody(body)))
    if rng.random() < 0.3:
        k = rng.randint(1, n_choice)
        terms = tuple((-a, 1) for a in choice_atoms)
        statements.append(
            aspif.Rule(
                aspif.DISJUNCTIVE, (), aspif.WeightBody(n_choice - k + 1, terms)
            )
        )
    priorities = [0] if rng.random() < 0.7 else [0, 1]
    for priority in priorities:
        count = rng.randint(1, 10)
        terms = []
        for _ in range(count):
            atom = rng.choice(atoms)
            lit = atom if rng.random() < 0.75 else -atom
            roll = rng.random()
            if roll < 0.1:
                weight = 0
            elif roll < 0.2:
                weight = -rng.randint(1, 9)
            else:
                weight = rng.randint(1, 30)
            terms.append((lit, weight))
        statements.append(aspif.Minimize(priority, tuple(terms)))
    if rng.random() < 0.3:
        statements.append(aspif.Output("picked", (choice_atoms[0],)))
    return aspif.AspifDocument(statements=tuple(statements))
