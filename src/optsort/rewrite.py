"""Rewriting of minimize statements through weighted sorting networks.

Each priority level's literals are the inputs of an odd-even sorting network
(optionally depth-limited), the network rules are emitted as aspif lines,
one ``aspif.Raw`` statement per level, and ``place_weights`` moves the
level's weights over a sparse decomposition.  A wired level's atoms are one
block from ``first``: wire i after level l >= 1 is atom
``first + width * (l - 1) + i - 1``, and the report names each block.  The
new objective ranges over the input literals and the wire atoms and carries
exactly the same value on every answer set, in bijection with the original
ones.
"""

from __future__ import annotations

import random
from functools import reduce
from operator import or_
from typing import Iterable, NamedTuple

from . import aspif
from .asplang import (
    MAX_ENUM_ATOMS,
    GroundProgram,
    answer_lanes,
    enumerate_answer_sets_layered,
    guessed_atoms,
    in_sorted_order,
    lane_sum,
)
from .encode import asp_of_network, dense_wire_atom_map
from .network import Network, oe_sorter
from .propagate import from_input_weights, propagate_sparse


class RewriteError(ValueError):
    """Raised for inputs that a rewrite or a verification refuses."""


class RewriteConfig(NamedTuple):
    """The three pipeline knobs.

    - ``depth_limit``: levels of the odd-even sorter kept; None means the
      full network, 0 disables rewriting entirely.
    - ``sparseness``: level-block size of the propagation decomposition;
      None collapses every connected region into a single block (weights
      land only on the input and output columns).
    - ``propagate``: with it off the network is still attached but weights
      stay on the input column.

    The values are checked where they enter: ``optsort rewrite`` refuses a
    negative ``--depth``, and argparse a ``--sparseness`` below 1.
    """

    depth_limit: int | None = None
    sparseness: int | None = 1
    propagate: bool = True


class LevelReport(NamedTuple):
    priority: int
    input_terms: int
    passthrough_terms: int
    network_width: int  # the terms wired, 0 for a level that is not wired
    network_depth: int
    network_size: int
    output_terms: int
    rules_added: int
    atoms: range = range(0)  # the level's atom block, empty when not wired


class RewriteReport(NamedTuple):
    levels: tuple[LevelReport, ...]

    def to_text(self) -> str:
        lines = []
        for lv in self.levels:
            block = f" ({lv.atoms[0]}..{lv.atoms[-1]})" if lv.atoms else ""
            lines.append(
                f"priority {lv.priority}: terms {lv.input_terms} -> {lv.output_terms} "
                f"(wired {lv.network_width}, passed {lv.passthrough_terms}), "
                f"network {lv.network_width}x{lv.network_depth} "
                f"size {lv.network_size}, atoms +{len(lv.atoms)}{block}, "
                f"rules +{lv.rules_added}"
            )
        return "\n".join(lines)


def _fits_32_bits(weight: int) -> bool:
    return -(2**31) <= weight < 2**31


_Terms = list[tuple[int, int]]


def _normalize(terms: tuple[tuple[int, int], ...]) -> tuple[_Terms, _Terms, _Terms]:
    # Merge duplicate literals (weights summed, first occurrence keeps the
    # slot), then split off non-positive weights as pass-through terms.  A
    # literal 0 names no atom, so no network can read it.  A merge may not
    # carry 32-bit parts out of the 32-bit range that aspif consumers store
    # weights in; a part already outside it is the user's.
    merged: dict[int, int] = {}
    wide_parts: set[int] = set()
    for lit, w in terms:
        if lit == 0:
            raise RewriteError("cannot wire literal 0")
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
    return LevelReport(priority, input_terms, kept_terms, 0, 0, 0, kept_terms, 0)


# Wiring n terms adds, per sorter level, at most 1.5 n rules (a comparator's
# three rules replace two inertia rules).  The budget admits n = 8192 at full
# depth: 91 levels, 1.12 M rules by this bound and 1.07 M emitted.  End to end
# at sparseness inf on a shared 2-vCPU machine, that rewrite takes 1.1 s and
# peaks at 191 MB; n = 12 000 (1.81 M rules) takes 1.7 s and 324 MB.
REWRITE_RULE_BUDGET = 1 << 21


def _sorter_depth(n: int, depth_limit: int | None) -> int:
    """Levels of the odd-even sorter on n >= 1 wires, cut to ``depth_limit``."""
    p = (n - 1).bit_length()  # the sorter is built on 2^p wires
    depth = p * (p + 1) // 2
    return depth if depth_limit is None else min(depth, depth_limit)


def _rule_bound(n: int, depth_limit: int | None) -> int:
    """Most rules that wiring n terms into an odd-even sorter can add."""
    return 3 * n * _sorter_depth(n, depth_limit) // 2


def check_rule_budget(sizes: list[int], depth_limit: int | None, wiring: str) -> None:
    """Refuse ``wiring`` (terms into sorters of these sizes) past ``REWRITE_RULE_BUDGET``."""
    bound = sum(_rule_bound(n, depth_limit) for n in sizes)
    if bound > REWRITE_RULE_BUDGET:
        raise RewriteError(
            f"{wiring} could add {bound} rules, over the budget of {REWRITE_RULE_BUDGET}"
        )


def _minimize_levels(document: aspif.AspifDocument) -> dict[int, list[tuple[int, int]]]:
    """Each priority's minimize terms, those of statements sharing it joined in order."""
    by_priority: dict[int, list[tuple[int, int]]] = {}
    for s in document.statements:
        if isinstance(s, aspif.Minimize):
            by_priority.setdefault(s.priority, []).extend(s.terms)
    return by_priority


def _wired_sizes(normalized: Iterable[tuple[_Terms, _Terms, _Terms]]) -> list[int]:
    """How many terms each normalized level wires into a sorter, for the levels that wire any."""
    return [len(rewritable) for rewritable, _, _ in normalized if len(rewritable) >= 2]


def _check_wiring(
    normalized: Iterable[tuple[_Terms, _Terms, _Terms]], depth_limit: int | None
) -> None:
    """Refuse wiring the normalized levels into sorters past ``REWRITE_RULE_BUDGET``."""
    wired = _wired_sizes(normalized)
    check_rule_budget(
        wired, depth_limit, f"wiring {sum(wired)} objective terms into sorting networks"
    )


def place_weights(
    weights: list[int], network: Network, config: RewriteConfig
) -> list[tuple[int, int, int]]:
    """The (wire, level, weight) terms that carry the input weights over the network.

    With ``config.propagate`` off the weights stay on the input column;
    otherwise they move over blocks of ``config.sparseness`` levels.
    """
    matrix = from_input_weights(weights, network.depth)
    if config.propagate:
        matrix = propagate_sparse(matrix, network, config.sparseness)
    return matrix.nonzero_entries()


def _rewrite_level(
    priority: int,
    input_terms: int,
    normalized: tuple[_Terms, _Terms, _Terms],
    config: RewriteConfig,
    first: int,
) -> tuple[list[aspif.Statement], LevelReport]:
    # the level's literals are the network's input column, and its sorter
    # columns are one block of fresh atoms from `first`
    rewritable, passthrough, merged = normalized
    if len(rewritable) < 2:
        statement = aspif.Minimize(priority, tuple(merged))
        return [statement], _passthrough_report(priority, input_terms, len(merged))

    network = oe_sorter(len(rewritable), config.depth_limit)
    inputs = [lit for lit, _ in rewritable]
    columns = dense_wire_atom_map(inputs, first, network.depth)
    lines = asp_of_network(network, inputs, first)

    placed = place_weights([w for _, w in rewritable], network, config)
    wire_terms = [(columns[j][i - 1], w) for i, j, w in placed]
    out_terms = tuple(wire_terms) + tuple(passthrough)
    statements = [aspif.Raw("\n".join(lines)), aspif.Minimize(priority, out_terms)]
    report = LevelReport(
        priority=priority,
        input_terms=input_terms,
        passthrough_terms=len(passthrough),
        network_width=network.width,
        network_depth=network.depth,
        network_size=network.size(),
        output_terms=len(out_terms),
        rules_added=len(lines),
        atoms=range(first, first + network.width * network.depth),
    )
    return statements, report


def rewrite_objective(
    document: aspif.AspifDocument, config: RewriteConfig
) -> tuple[aspif.AspifDocument, RewriteReport]:
    """Rewrite every minimize priority level of the document independently.

    Non-minimize statements pass through untouched; several minimize
    statements sharing a priority are merged into one.  A depth limit of 0
    leaves the document exactly as parsed.  A rewrite whose levels could add
    more than ``REWRITE_RULE_BUDGET`` rules is refused before any network is
    built.  One whose fresh atoms would leave the 32-bit range that aspif
    consumers store atoms in is refused too, unless an input atom already
    lies outside it: that atom is the user's, as with weights.
    """
    by_priority = _minimize_levels(document)
    if config.depth_limit == 0 or not by_priority:
        levels = tuple(
            _passthrough_report(priority, len(terms), len(terms))
            for priority, terms in sorted(by_priority.items())
        )
        return document, RewriteReport(levels)

    normalized = {p: _normalize(tuple(terms)) for p, terms in sorted(by_priority.items())}
    _check_wiring(normalized.values(), config.depth_limit)

    top = highest = document.max_atom_id()
    replacements: dict[int, list[aspif.Statement]] = {}
    reports = []
    for priority, level in normalized.items():
        statements, report = _rewrite_level(
            priority, len(by_priority[priority]), level, config, highest + 1
        )
        highest += len(report.atoms)
        replacements[priority] = statements
        reports.append(report)
    if _fits_32_bits(top) and not _fits_32_bits(highest):
        raise RewriteError(f"fresh atom {highest} leaves the 32-bit range")

    out_statements: list[aspif.Statement] = []
    emitted: set[int] = set()
    for s in document.statements:
        if isinstance(s, aspif.Minimize):
            if s.priority not in emitted:
                emitted.add(s.priority)
                out_statements.extend(replacements[s.priority])
        else:
            out_statements.append(s)
    rewritten = aspif.AspifDocument(document.tags, tuple(out_statements), True)
    return rewritten, RewriteReport(tuple(reports))


class VerifyReport(NamedTuple):
    ok: bool
    answer_sets: int
    detail: str = ""


def _keeps_input(before: GroundProgram, after: GroundProgram) -> bool:
    """Whether ``after`` defines the input's atoms by the input's own rules and keeps its constraints.

    Then the part of ``after`` below the input's signature has the input's
    answer sets, and the rules above it need only be closed over them.
    """
    kept = {r for r in after.rules if r.choice or r.head in before.signature}
    return (
        kept == set(before.rules)
        and set(after.weight_constraints) >= set(before.weight_constraints)
        and set(after.nogoods) >= set(before.nogoods)
    )


def verify_rewrite(
    before: aspif.Bridged,
    after: aspif.Bridged,
    before_lanes: tuple[dict[int, int], int],
) -> VerifyReport:
    """Brute-force check that a rewrite preserves answer sets and values.

    The rewrite must keep the input's rules and constraints.  It is then
    guessed as the input's answer sets, each in its own lane: every lane
    must survive its constraints (a bijection onto the input's answer sets)
    and keep every level's value (hence also at the optimum).
    ``before_lanes`` must be the input's ``enumerate_answer_sets_layered``.
    """
    before_program, before_objectives = before
    after_program, after_objectives = after
    if set(before_objectives) != set(after_objectives):
        return VerifyReport(False, 0, "objective priority levels differ")
    base_lanes, all_lanes = before_lanes
    count = all_lanes.bit_count()
    if not _keeps_input(before_program, after_program):
        return VerifyReport(
            False, count, "the rewrite does not keep the input's rules and constraints"
        )
    guess = {a: base_lanes.get(a, 0) for a in before_program.signature}
    lanes, answers = answer_lanes(after_program, (guess, all_lanes))
    if answers != all_lanes:
        return VerifyReport(
            False, count, f"answer set counts differ: {count} vs {answers.bit_count()}"
        )

    def holds(literal: int) -> int:
        held = lanes.get(abs(literal), 0)
        return held if literal > 0 else all_lanes ^ held

    # Each lane holds its input answer set on the input's atoms, so one lane sum
    # takes the input's value minus the rewrite's in every lane.
    for priority, terms in before_objectives.items():
        new_terms = after_objectives[priority]
        difference = [(holds(l), w) for l, w in terms] + [(holds(l), -w) for l, w in new_terms]
        differ = reduce(or_, lane_sum(difference))
        if differ:
            model, lane = next(in_sorted_order(base_lanes, lambda: differ))
            value, new_value = (
                sum(w for l, w in side if holds(l) >> lane & 1) for side in (terms, new_terms)
            )
            detail = f"value mismatch at priority {priority} on {model}: "
            return VerifyReport(False, count, detail + f"{value} vs {new_value}")
    return VerifyReport(True, count)


VERIFY_GRID = tuple(
    RewriteConfig(depth_limit=depth, sparseness=sparseness, propagate=propagate)
    for depth in (0, 1, 2, 4, None)
    for sparseness in (1, 2, None)
    for propagate in (True, False)
)


# Configurations `verify --random` may check: programs x len(VERIFY_GRID).
# A program takes 8-10 ms over the grid, so the budget admits --count 1000
# (30 000 checks, 8.4-10.4 s end to end on a shared 2-vCPU machine) and
# refuses --count 1093 at once; --count 100 000 000 would run for days.
RANDOM_VERIFY_BUDGET = 1 << 15


def check_random_count(count: int) -> None:
    """Refuse verifying ``count`` random programs over the grid past ``RANDOM_VERIFY_BUDGET``."""
    if count * len(VERIFY_GRID) > RANDOM_VERIFY_BUDGET:
        raise RewriteError(
            f"verify --random --count {count} would check {count} x {len(VERIFY_GRID)} "
            f"configurations, over the budget of {RANDOM_VERIFY_BUDGET}"
        )


# Each configuration's rewrite is closed over the input's 2^g answer lanes, g
# its guessed atoms, as one lane vector of up to 2^g bits per atom: the input's
# and the most that a configuration adds (per wired level, n per sorter level,
# at full depth).  The budget admits gen-binomial 22 11 --opt
# (352 atoms x 2^22 lanes, 1.5e9 bits) and a 256-rule objective over 18 choice
# atoms (9490 x 2^18, 2.5e9), which takes 3.1 s and peaks at 290 MB end to end
# on a shared 2-vCPU machine.  The same objective over 20 choice atoms
# (9492 x 2^20, 1.0e10) ran out of an 800 MB address space after 7.3 s.
VERIFY_LANE_BUDGET = 1 << 32


def verify_grid(
    document: aspif.AspifDocument,
    before: aspif.Bridged,
) -> list[tuple[RewriteConfig, VerifyReport]]:
    """Rewrite under every ``VERIFY_GRID`` configuration and verify each result.

    ``before`` is the document's own ground program.  Its answer sets are
    enumerated once for the whole grid.  Each distinct ``aspif.write`` text
    is parsed back and verified once, as a solver would read it;
    configurations often share one (depth 0 ignores the other knobs, small
    networks reach full depth early).
    """
    # what a configuration's rewrite would refuse is refused before any
    # configuration is checked, with the error the first such one gives
    levels = sorted(_minimize_levels(document).items())
    normalized = [_normalize(tuple(terms)) for _, terms in levels]
    for depth in dict.fromkeys(c.depth_limit for c in VERIFY_GRID if c.depth_limit != 0):
        _check_wiring(normalized, depth)
    # past the brute-force guard the enumeration refuses first, with its own error
    program = before[0]
    guessed = len(guessed_atoms(program))
    atoms = len(program.signature) + sum(
        n * _sorter_depth(n, None) for n in _wired_sizes(normalized)
    )
    if guessed <= MAX_ENUM_ATOMS and atoms << guessed > VERIFY_LANE_BUDGET:
        raise RewriteError(
            f"closing {atoms} atoms over 2^{guessed} answer lanes would take "
            f"{atoms << guessed} lane bits, over the budget of {VERIFY_LANE_BUDGET}"
        )
    before_lanes = enumerate_answer_sets_layered(before[0])
    reports: dict[str, VerifyReport] = {}
    results = []
    for config in VERIFY_GRID:
        rewritten, _ = rewrite_objective(document, config)
        text = aspif.write(rewritten)
        if text not in reports:
            after = aspif.to_ground_program(aspif.parse(text))
            reports[text] = verify_rewrite(before, after, before_lanes)
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
