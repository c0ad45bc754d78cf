import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optsort import aspif, asplang, rewrite
from optsort.analysis import binomial_document
from optsort.asplang import enumerate_answer_sets_layered
from optsort.encode import asp_of_network
from optsort.network import oe_sorter
from optsort.rewrite import (
    VERIFY_GRID,
    RewriteConfig,
    RewriteError,
    random_opt_document,
    rewrite_objective,
    verify_grid,
    verify_rewrite,
)

from conftest import enumerate_answer_sets, lane_models, read_rules, traced_peak, value_mismatch

TWO_TERM_DOC = "asp 1 0 0\n1 1 2 1 2 0 0\n2 0 2 1 40 2 70\n0\n"


def bridge(doc):
    """The document's ground program, read back from its written text."""
    return aspif.to_ground_program(aspif.parse(aspif.write(doc)))


def verified(doc, rewritten):
    """``verify_rewrite`` of the document against its rewrite."""
    before = bridge(doc)
    return verify_rewrite(before, bridge(rewritten), enumerate_answer_sets_layered(before[0]))


class TestWireInputs:
    def test_positive_and_negated_literals(self):
        # the comparator reads both literals as they stand, and the weight
        # left on the input column stays on the negated literal
        text = "asp 1 0 0\n1 1 2 1 2 0 0\n2 0 2 1 40 -2 70\n0\n"
        out, _ = rewrite_objective(aspif.parse(text), RewriteConfig())
        (rules,) = [s for s in out.statements if isinstance(s, aspif.Raw)]
        assert rules.line.split("\n") == ["1 0 1 3 0 2 1 -2", "1 0 1 4 0 1 1", "1 0 1 4 0 1 -2"]
        (minimize,) = [s for s in out.statements if isinstance(s, aspif.Minimize)]
        assert minimize.terms == ((-2, 30), (3, 40), (4, 40))

    def test_non_positive_weights_pass_through_unwired(self):
        # only the positive merged weights are wired; no rule reads the others
        text = "asp 1 0 0\n1 1 4 1 2 3 4 0 0\n2 0 4 1 0 -2 -3 3 5 4 6\n0\n"
        out, report = rewrite_objective(aspif.parse(text), RewriteConfig())
        (rules,) = [s for s in out.statements if isinstance(s, aspif.Raw)]
        read = {lit for r in read_rules(rules.line.split("\n")) for lit in r.body.literals}
        assert read == {3, 4}
        (minimize,) = [s for s in out.statements if isinstance(s, aspif.Minimize)]
        assert minimize.terms[-2:] == ((1, 0), (-2, -3))
        assert report.levels[0].network_width == 2

    def test_rejects_literal_zero(self):
        document = aspif.AspifDocument(statements=(aspif.Minimize(0, ((0, 3), (1, 2))),))
        with pytest.raises(RewriteError, match="^cannot wire literal 0$"):
            rewrite_objective(document, RewriteConfig())


class TestConfig:
    def test_verify_grid_holds_the_thirty_documented_configurations(self):
        # depth 0/1/2/4/full x sparseness 1/2/inf x propagation on/off, in
        # the order `optsort verify` prints them
        expected = [
            (0, 1, True), (0, 1, False), (0, 2, True), (0, 2, False), (0, None, True), (0, None, False),
            (1, 1, True), (1, 1, False), (1, 2, True), (1, 2, False), (1, None, True), (1, None, False),
            (2, 1, True), (2, 1, False), (2, 2, True), (2, 2, False), (2, None, True), (2, None, False),
            (4, 1, True), (4, 1, False), (4, 2, True), (4, 2, False), (4, None, True), (4, None, False),
            (None, 1, True), (None, 1, False), (None, 2, True), (None, 2, False),
            (None, None, True), (None, None, False),
        ]
        assert [
            (c.depth_limit, c.sparseness, c.propagate) for c in VERIFY_GRID
        ] == expected


class TestTwoTermRewrite:
    def test_exact_output_shape(self):
        # 40/70 over one comparator: 30 stays on the heavier input wire and
        # both outputs carry the shared 40.
        doc = aspif.parse(TWO_TERM_DOC)
        out, report = rewrite_objective(doc, RewriteConfig())
        assert aspif.write(out) == (
            "asp 1 0 0\n"
            "1 1 2 1 2 0 0\n"
            "1 0 1 3 0 2 1 2\n"
            "1 0 1 4 0 1 1\n"
            "1 0 1 4 0 1 2\n"
            "2 0 3 2 30 3 40 4 40\n"
            "0\n"
        )
        (level,) = report.levels
        assert level.network_width == 2
        assert level.output_terms == 3
        assert level.rules_added == 3
        assert level.atoms == range(3, 5)

    def test_rewrite_preserves_semantics(self):
        doc = aspif.parse(TWO_TERM_DOC)
        out, _ = rewrite_objective(doc, RewriteConfig())
        assert verified(doc, out).ok


class TestTrivialCases:
    def test_depth_zero_is_byte_identical(self):
        doc = aspif.parse(TWO_TERM_DOC)
        out, _ = rewrite_objective(doc, RewriteConfig(depth_limit=0))
        assert aspif.write(out) == aspif.write(doc)

    def test_single_term_objective_is_untouched(self):
        text = "asp 1 0 0\n1 1 1 1 0 0\n2 0 1 1 40\n0\n"
        out, report = rewrite_objective(aspif.parse(text), RewriteConfig())
        assert aspif.write(out) == text
        assert report.levels[0].rules_added == 0

    def test_document_without_minimize_is_untouched(self):
        text = "asp 1 0 0\n1 1 2 1 2 0 0\n0\n"
        out, report = rewrite_objective(aspif.parse(text), RewriteConfig())
        assert aspif.write(out) == text
        assert report.levels == ()

    @pytest.mark.parametrize("depth", [0, None])
    def test_unwired_levels_report_one_line_per_priority(self, depth):
        # at depth 0 the two priority-0 statements stay as they are; with
        # fewer than two positive terms a level is merged into one statement
        text = "asp 1 0 0\n1 1 3 1 2 3 0 0\n2 1 1 3 -2\n2 0 2 1 5 2 0\n2 0 1 2 -4\n0\n"
        _, report = rewrite_objective(aspif.parse(text), RewriteConfig(depth_limit=depth))
        assert [lv.priority for lv in report.levels] == [0, 1]
        zero, one = report.levels
        kept = 3 if depth == 0 else 2
        assert (zero.input_terms, zero.passthrough_terms, zero.output_terms) == (3, kept, kept)
        assert (one.input_terms, one.passthrough_terms, one.output_terms) == (1, 1, 1)
        assert all(
            lv.network_width == lv.rules_added == len(lv.atoms) == 0 for lv in report.levels
        )
        assert report.to_text().splitlines()[0] == (
            f"priority 0: terms 3 -> {kept} (wired 0, passed {kept}), "
            "network 0x0 size 0, atoms +0, rules +0"
        )

    def test_identity_rewrite_verifies(self):
        doc = aspif.parse(TWO_TERM_DOC)
        out, _ = rewrite_objective(doc, RewriteConfig(depth_limit=0))
        assert verified(doc, out).ok


class TestNormalization:
    def test_duplicate_literals_are_merged(self):
        text = "asp 1 0 0\n1 1 2 1 2 0 0\n2 0 3 1 10 2 5 1 20\n0\n"
        out, report = rewrite_objective(aspif.parse(text), RewriteConfig())
        assert report.levels[0].network_width == 2
        assert verified(aspif.parse(text), out).ok

    def test_non_positive_weights_pass_through_unchanged(self):
        text = "asp 1 0 0\n1 1 3 1 2 3 0 0\n2 0 4 1 12 2 0 3 -7 -1 9\n0\n"
        doc = aspif.parse(text)
        out, report = rewrite_objective(doc, RewriteConfig())
        (minimize,) = [s for s in out.statements if isinstance(s, aspif.Minimize)]
        assert (2, 0) in minimize.terms
        assert (3, -7) in minimize.terms
        assert report.levels[0].passthrough_terms == 2
        wired = [t for t in minimize.terms if t not in ((2, 0), (3, -7))]
        assert sum(w for _, w in wired) == 12 + 9
        assert verified(doc, out).ok

    def test_all_non_positive_terms_leave_the_statement_merged_only(self):
        text = "asp 1 0 0\n1 1 2 1 2 0 0\n2 0 2 1 0 2 -3\n0\n"
        out, report = rewrite_objective(aspif.parse(text), RewriteConfig())
        (minimize,) = [s for s in out.statements if isinstance(s, aspif.Minimize)]
        assert minimize.terms == ((1, 0), (2, -3))
        assert report.levels[0].rules_added == 0

    @pytest.mark.parametrize(
        "minimize,message",
        [
            ("2 0 2 1 2147483647 1 1", "merged weight 2147483648 of literal 1"),
            ("2 0 3 -1 -2147483648 2 4 -1 -1", "merged weight -2147483649 of literal -1"),
        ],
    )
    def test_merged_weight_leaving_32_bits_is_refused(self, minimize, message):
        text = f"asp 1 0 0\n1 1 2 1 2 0 0\n{minimize}\n0\n"
        with pytest.raises(RewriteError, match=message):
            rewrite_objective(aspif.parse(text), RewriteConfig())

    def test_merge_reaching_the_32_bit_bounds_is_kept(self):
        text = (
            "asp 1 0 0\n1 1 2 1 2 0 0\n"
            "2 0 4 1 2147483646 1 1 -2 -2147483647 -2 -1\n0\n"
        )
        out, _ = rewrite_objective(aspif.parse(text), RewriteConfig())
        (minimize,) = [s for s in out.statements if isinstance(s, aspif.Minimize)]
        assert minimize.terms == ((1, 2147483647), (-2, -2147483648))

    def test_weights_written_past_32_bits_are_left_alone(self):
        text = (Path(__file__).parent / "corpus" / "24_big_ids.aspif").read_text()
        out, _ = rewrite_objective(aspif.parse(text), RewriteConfig())
        assert aspif.write(out) == text
        merged = "asp 1 0 0\n1 1 1 1 0 0\n2 0 2 1 4294967296 1 -1\n0\n"
        out, _ = rewrite_objective(aspif.parse(merged), RewriteConfig())
        (minimize,) = [s for s in out.statements if isinstance(s, aspif.Minimize)]
        assert minimize.terms == ((1, 4294967295),)


class TestWeightAccounting:
    @pytest.mark.parametrize("depth,sparseness", [(None, 1), (None, 2), (2, 1), (1, None)])
    def test_wire_weight_total_matches_the_input_total(self, depth, sparseness):
        text = "asp 1 0 0\n1 1 4 1 2 3 4 0 0\n2 0 4 1 8 2 13 3 2 4 21\n0\n"
        out, _ = rewrite_objective(
            aspif.parse(text), RewriteConfig(depth_limit=depth, sparseness=sparseness)
        )
        (minimize,) = [s for s in out.statements if isinstance(s, aspif.Minimize)]
        assert sum(w for _, w in minimize.terms) == 8 + 13 + 2 + 21

    def test_propagation_off_keeps_weights_on_the_input_column(self):
        doc = aspif.parse(TWO_TERM_DOC)
        out, _ = rewrite_objective(doc, RewriteConfig(propagate=False))
        (minimize,) = [s for s in out.statements if isinstance(s, aspif.Minimize)]
        assert sorted(w for _, w in minimize.terms) == [40, 70]
        assert verified(doc, out).ok


class TestPriorityLevels:
    def test_levels_are_rewritten_independently(self):
        combined = aspif.parse(
            "asp 1 0 0\n1 1 4 1 2 3 4 0 0\n2 0 2 1 6 2 9\n2 1 2 3 4 4 11\n0\n"
        )
        out, report = rewrite_objective(combined, RewriteConfig())
        assert [lv.priority for lv in report.levels] == [0, 1]
        solo_reports = []
        for keep in (0, 1):
            doc = aspif.AspifDocument(
                statements=tuple(
                    s
                    for s in combined.statements
                    if not isinstance(s, aspif.Minimize) or s.priority == keep
                )
            )
            _, solo = rewrite_objective(doc, RewriteConfig())
            solo_reports.extend(solo.levels)
        for merged_level, solo_level in zip(report.levels, solo_reports):
            assert merged_level.network_size == solo_level.network_size
            assert merged_level.output_terms == solo_level.output_terms
            assert merged_level.rules_added == solo_level.rules_added
        assert verified(combined, out).ok

    def test_statements_sharing_a_priority_are_merged(self):
        doc = aspif.parse(
            "asp 1 0 0\n1 1 3 1 2 3 0 0\n2 0 2 1 5 2 9\n2 0 2 2 4 3 6\n0\n"
        )
        out, report = rewrite_objective(doc, RewriteConfig())
        minimizes = [s for s in out.statements if isinstance(s, aspif.Minimize)]
        assert len(minimizes) == 1
        assert report.levels[0].input_terms == 4
        assert report.levels[0].network_width == 3  # atom 2 merged to 13
        assert verified(doc, out).ok


def added_rules(doc, out):
    """The rules that rewriting ``doc`` into ``out`` added, read from its text."""
    written = aspif.parse(aspif.write(out)).statements
    return [s for s in written if isinstance(s, aspif.Rule) and s not in doc.statements]


class TestAtomHygiene:
    @pytest.mark.parametrize("seed", range(6))
    def test_fresh_atoms_never_collide_with_the_input(self, seed):
        doc = random_opt_document(random.Random(400 + seed))
        out, _ = rewrite_objective(doc, RewriteConfig())
        assert out.max_atom_id() >= doc.max_atom_id()
        original = doc.max_atom_id()
        assert all(a > original for s in added_rules(doc, out) for a in s.head_atoms)

    def test_raw_statement_ids_are_respected(self):
        text = "asp 1 0 0\n5 44 2\n1 1 2 1 2 0 0\n2 0 2 1 4 2 9\n0\n"
        doc = aspif.parse(text)
        out, _ = rewrite_objective(doc, RewriteConfig())
        heads = [a for rule in added_rules(doc, out) for a in rule.head_atoms]
        assert heads and min(heads) > 44

    def test_network_rules_survive_even_when_weights_vanish(self):
        # uniform weights drain to the outputs, yet every wire keeps its rules
        text = "asp 1 0 0\n1 1 4 1 2 3 4 0 0\n2 0 4 1 10 2 10 3 10 4 10\n0\n"
        out, report = rewrite_objective(
            aspif.parse(text), RewriteConfig(sparseness=None)
        )
        (minimize,) = [s for s in out.statements if isinstance(s, aspif.Minimize)]
        assert all(w == 10 for _, w in minimize.terms)
        assert len(minimize.terms) == 4  # output wires only
        assert report.levels[0].rules_added == 3 * 5 + 2

    def test_each_wired_level_takes_one_block_of_atoms(self):
        # priority 0 wires three terms into a 3-level sorter, priority 1 is a
        # single positive term that passes through, priority 2 wires two
        doc = aspif.parse(
            "asp 1 0 0\n1 1 5 1 2 3 4 5 0 0\n"
            "2 0 3 1 3 2 5 -3 4\n2 1 1 4 7\n2 2 2 4 2 5 6\n0\n"
        )
        out, report = rewrite_objective(doc, RewriteConfig())
        wired, passed, last = report.levels
        first = doc.max_atom_id() + 1
        assert wired.atoms == range(first, first + 3 * 3)
        assert passed.atoms == range(0)
        assert last.atoms == range(wired.atoms.stop, wired.atoms.stop + 2 * 1)
        assert out.max_atom_id() == last.atoms[-1] == 16
        read = {
            lit for r in added_rules(doc, out) for lit in r.body.literals if abs(lit) < first
        }
        assert read == {1, 2, -3, 4, 5}
        assert verified(doc, out).ok

    def test_report_names_each_wired_levels_block(self):
        _, report = rewrite_objective(aspif.parse(TWO_TERM_DOC), RewriteConfig())
        assert report.to_text() == (
            "priority 0: terms 2 -> 3 (wired 2, passed 0), "
            "network 2x1 size 1, atoms +2 (3..4), rules +3"
        )


class TestRulesAdded:
    @pytest.mark.parametrize("seed", range(20))
    def test_counts_the_rule_lines_each_level_writes(self, seed):
        # what the report prints and the tracer counts as rules: one line
        # per network rule, each level's written just before its minimize
        # statement
        rng = random.Random(700 + seed)
        atoms = rng.randint(1, 12)
        statements = [aspif.Rule(aspif.CHOICE, tuple(range(1, atoms + 1)), aspif.NormalBody(()))]
        for priority in rng.sample(range(4), rng.randint(1, 3)):
            terms = tuple(
                (rng.choice((1, -1)) * rng.randint(1, atoms), rng.randint(-3, 20))
                for _ in range(rng.randint(1, 24))
            )
            statements.append(aspif.Minimize(priority, terms))
        config = rng.choice(VERIFY_GRID)
        out, report = rewrite_objective(aspif.AspifDocument(statements=tuple(statements)), config)
        written, lines = {}, 0
        for s in aspif.parse(aspif.write(out)).statements[1:]:
            if isinstance(s, aspif.Minimize):
                written[s.priority], lines = lines, 0
            else:
                lines += 1
        assert {lv.priority: lv.rules_added for lv in report.levels} == written
        for lv in report.levels:
            network_lines = []
            if lv.atoms:
                # the rule count does not depend on the input literals
                network = oe_sorter(lv.network_width, config.depth_limit)
                inputs = range(1, lv.network_width + 1)
                network_lines = asp_of_network(network, inputs, lv.atoms.start)
            assert lv.rules_added == len(network_lines)


def _unit_objective(n, priority=0):
    return aspif.Minimize(priority, tuple((a, 1) for a in range(1, n + 1)))


class TestRuleBudget:
    @pytest.mark.parametrize("depth", [None, 1, 3, 8])
    def test_bound_covers_every_rule_a_level_adds(self, depth):
        config = RewriteConfig(depth_limit=depth, propagate=False)
        for n in range(2, 70):
            doc = aspif.AspifDocument(statements=(_unit_objective(n),))
            _, report = rewrite_objective(doc, config)
            assert report.levels[0].rules_added <= rewrite._rule_bound(n, depth), n

    def test_budget_admits_eight_thousand_terms_at_full_depth(self):
        assert rewrite._rule_bound(8192, None) <= rewrite.REWRITE_RULE_BUDGET

    def test_levels_are_summed_against_the_budget(self, monkeypatch):
        # each four-term level may add 1.5 * 4 * 3 = 18 rules
        doc = aspif.AspifDocument(statements=(_unit_objective(4), _unit_objective(4, 1)))
        monkeypatch.setattr(rewrite, "REWRITE_RULE_BUDGET", 36)
        rewrite_objective(doc, RewriteConfig())
        monkeypatch.setattr(rewrite, "REWRITE_RULE_BUDGET", 35)
        with pytest.raises(RewriteError, match="8 objective terms .* could add 36 rules, over"):
            rewrite_objective(doc, RewriteConfig())

    def test_unwired_levels_cost_nothing(self, monkeypatch):
        # one term, or only non-positive weights: no network is built
        doc = aspif.parse("asp 1 0 0\n2 0 1 1 5\n2 1 2 1 -3 2 0\n0\n")
        monkeypatch.setattr(rewrite, "REWRITE_RULE_BUDGET", 0)
        out, _ = rewrite_objective(doc, RewriteConfig())
        assert out == doc


def raw_as_parsed(doc):
    """The document with each raw statement's lines as ``parse`` reads them."""
    statements = []
    for s in doc.statements:
        if isinstance(s, aspif.Raw):
            statements.extend(read_rules(s.line.split("\n")))
        else:
            statements.append(s)
    return doc._replace(statements=tuple(statements))


@given(st.integers(0, 2**32 - 1), st.sampled_from(VERIFY_GRID))
@settings(max_examples=150, deadline=None)
def test_rewritten_documents_read_back_as_written(seed, config):
    # random_opt_document repeats and negates objective literals, so the
    # rewrite merges terms and feeds negated literals to the networks
    doc, _ = rewrite_objective(random_opt_document(random.Random(seed)), config)
    parsed = aspif.parse(aspif.write(doc))
    assert parsed == raw_as_parsed(doc)
    assert parsed.max_atom_id() == doc.max_atom_id()


def level_rules(document):
    """Each wired level's added rules, by priority, read from the lines that
    are written verbatim: the ``Raw`` statement just before the level's
    minimize statement."""
    statements = document.statements
    return {
        after.priority: read_rules(s.line.split("\n"))
        for s, after in zip(statements, statements[1:])
        if isinstance(s, aspif.Raw)
    }


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_each_wired_level_numbers_its_atoms_as_one_block(seed):
    # wire i after level l >= 1 is atom first + width * (l - 1) + i - 1: a
    # level's rules derive exactly its block, a level-1 rule reads input
    # literals, any other rule reads the column before its head's, and the
    # wired levels' blocks abut from above the input's atoms to the output's
    # last
    document = random_opt_document(random.Random(seed))
    top = document.max_atom_id()
    for config in VERIFY_GRID:
        out, report = rewrite_objective(document, config)
        written = level_rules(out)
        first = top + 1
        for lv in report.levels:
            if not lv.atoms:
                assert lv.priority not in written
                continue
            width = lv.network_width
            assert lv.atoms == range(first, first + width * lv.network_depth)
            rules = written.pop(lv.priority)
            assert {a for r in rules for a in r.head_atoms} == set(lv.atoms)
            for r in rules:
                (head,) = r.head_atoms
                level = (head - first) // width + 1
                body = r.body.literals
                if level == 1:
                    assert body and all(0 < abs(lit) <= top for lit in body)
                else:
                    below = range(first + width * (level - 2), first + width * (level - 1))
                    assert body and all(a in below for a in body)
            first = lv.atoms.stop
        assert written == {}
        assert out.max_atom_id() == first - 1


def test_negated_and_repeated_literals_read_back_as_written():
    text = "asp 1 0 0\n1 1 3 1 2 3 0 0\n2 0 5 -1 3 2 4 -1 5 -3 6 2 1\n0\n"
    doc, _ = rewrite_objective(aspif.parse(text), RewriteConfig())
    (rules,) = [s for s in doc.statements if isinstance(s, aspif.Raw)]
    # the merged literals -1, 2 and -3 are the sorter's inputs
    assert rules.line.split("\n")[:4] == [
        "1 0 1 4 0 2 -1 2", "1 0 1 5 0 1 -1", "1 0 1 5 0 1 2", "1 0 1 6 0 1 -3"
    ]
    parsed = aspif.parse(aspif.write(doc))
    assert parsed == raw_as_parsed(doc)
    program, _ = aspif.to_ground_program(parsed)
    assert [r for r in program.rules if not r.choice][:4] == [
        asplang.GroundRule(4, frozenset({2}), frozenset({1})),
        asplang.GroundRule(5, frozenset(), frozenset({1})),
        asplang.GroundRule(5, frozenset({2})),
        asplang.GroundRule(6, frozenset(), frozenset({3})),
    ]
    assert parsed.max_atom_id() == doc.max_atom_id()


KEEPS_NO_INPUT = "the rewrite does not keep the input's rules and constraints"


class TestVerifyRewrite:
    @pytest.mark.parametrize(
        "shift, rewritten",
        [(1, 15), (-5, 9), (2**20, 1048590), (2**64, 18446744073709551630)],
        ids=["plus-1", "minus-5", "plus-2^20", "plus-2^64"],
    )
    def test_detects_a_corrupted_weight(self, shift, rewritten):
        # a shift of 2^64 exceeds every weight of the rewrite: the value sum
        # must take its width from both objectives, or the difference wraps
        doc = aspif.parse("asp 1 0 0\n1 1 3 1 2 3 0 0\n2 0 3 1 5 2 9 3 4\n0\n")
        out, _ = rewrite_objective(doc, RewriteConfig())
        corrupted = []
        for s in out.statements:
            if isinstance(s, aspif.Minimize):
                lit, w = s.terms[0]
                s = aspif.Minimize(s.priority, ((lit, w + shift),) + s.terms[1:])
            corrupted.append(s)
        bad = aspif.AspifDocument(statements=tuple(corrupted))
        report = verified(doc, bad)
        assert not report.ok
        # the first input answer set whose value changed: 5 + 9 on {1, 2}
        assert report.detail == f"value mismatch at priority 0 on [1, 2]: 14 vs {rewritten}"

    def test_detects_a_dropped_answer_set(self):
        doc = aspif.parse("asp 1 0 0\n1 1 2 1 2 0 0\n2 0 2 1 4 2 6\n0\n")
        out, _ = rewrite_objective(doc, RewriteConfig())
        constrained = aspif.AspifDocument(
            statements=out.statements
            + (aspif.Rule(aspif.DISJUNCTIVE, (), aspif.NormalBody((1,))),)
        )
        report = verified(doc, constrained)
        assert not report.ok and "counts differ" in report.detail

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["choice", "nogood", "cardinality"])
    def test_detects_a_dropped_input_statement(self, index):
        doc = aspif.parse(
            "asp 1 0 0\n1 1 3 1 2 3 0 0\n1 0 0 0 2 1 2\n1 0 0 1 2 3 -1 1 -2 1 -3 1\n"
            "2 0 2 1 4 2 6\n0\n"
        )
        out, _ = rewrite_objective(doc, RewriteConfig())
        dropped = tuple(s for s in out.statements if s != doc.statements[index])
        report = verified(doc, aspif.AspifDocument(statements=dropped))
        assert not report.ok and report.detail == KEEPS_NO_INPUT

    def test_detects_a_changed_input_rule(self):
        # the rewrite may not redefine input atoms: 3 :- 2 in place of 3 :- 1
        # is refused without enumerating the rewrite
        doc = aspif.parse("asp 1 0 0\n1 1 2 1 2 0 0\n1 0 1 3 0 1 1\n2 0 2 3 4 -2 6\n0\n")
        out, _ = rewrite_objective(doc, RewriteConfig())
        changed = aspif.Rule(aspif.DISJUNCTIVE, (3,), aspif.NormalBody((2,)))
        statements = tuple(
            changed if s == doc.statements[1] else s for s in out.statements
        )
        report = verified(doc, aspif.AspifDocument(statements=statements))
        assert not report.ok and report.detail == KEEPS_NO_INPUT

    def test_detects_an_added_choice_rule(self):
        # a choice over a fresh atom is a rule of the rewrite that the input
        # lacks, though it defines no input atom
        doc = aspif.parse("asp 1 0 0\n1 1 2 1 2 0 0\n2 0 2 1 4 2 6\n0\n")
        out, _ = rewrite_objective(doc, RewriteConfig())
        fresh = aspif.Rule(aspif.CHOICE, (out.max_atom_id() + 1,), aspif.NormalBody(()))
        report = verified(doc, aspif.AspifDocument(statements=(*out.statements, fresh)))
        assert not report.ok and report.detail == KEEPS_NO_INPUT

    def test_guesses_no_more_atoms_than_the_input(self, monkeypatch):
        # level 1 of the sorter reads the negated objective literal not 8,
        # the end of a derived chain, directly; the rewrite is guessed as the
        # input's answer lanes, so the guard sees only the input's four guesses
        monkeypatch.setattr(asplang, "MAX_ENUM_ATOMS", 4)
        chain = "".join(f"1 0 1 {d} 0 1 {d - 1}\n" for d in range(5, 9))
        doc = aspif.parse(f"asp 1 0 0\n1 1 4 1 2 3 4 0 0\n{chain}2 0 2 -8 3 1 1\n0\n")
        for config, report in verify_grid(doc):
            assert report.ok and report.answer_sets == 16, (config, report.detail)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_programs_survive_the_whole_grid(self, seed):
        rng = random.Random(900 + seed)
        doc = random_opt_document(rng)
        before = bridge(doc)
        expected = enumerate_answer_sets(before[0])
        assert lane_models(enumerate_answer_sets_layered(before[0])) == expected
        results = verify_grid(doc)
        assert [config for config, _ in results] == list(VERIFY_GRID)
        for config, report in results:
            assert report.ok, (seed, config, report.detail)


def _grid_reference(document):
    """Every configuration rewritten and verified on its own, no sharing."""
    before = bridge(document)
    before_lanes = enumerate_answer_sets_layered(before[0])
    results = []
    for config in VERIFY_GRID:
        rewritten, _ = rewrite_objective(document, config)
        results.append((config, verify_rewrite(before, bridge(rewritten), before_lanes)))
    return results


class TestVerifyReadsTheWrittenText:
    def test_a_writer_fault_fails_the_grid(self, monkeypatch):
        # write each comparator's min rule h :- a, b as h :- a: the weight
        # that propagation moves onto a min output is then paid too often
        network_lines = rewrite.asp_of_network
        monkeypatch.setattr(
            rewrite,
            "asp_of_network",
            lambda *args: [
                re.sub(r" 0 2 (\d+) \d+$", r" 0 1 \1", line) for line in network_lines(*args)
            ],
        )
        document = binomial_document(6, 3, opt=True)
        results = verify_grid(document)
        assert [report.ok for _, report in results] == [
            config.depth_limit == 0 or not config.propagate for config in VERIFY_GRID
        ]
        assert all(
            report.detail.startswith("value mismatch") for _, report in results if not report.ok
        )


class TestVerifyGridSharing:
    def _counted_grid(self, monkeypatch, document, name="verify_rewrite"):
        calls = []
        original = getattr(rewrite, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(rewrite, name, counted)
        return verify_grid(document), len(calls)

    def test_binomial_ten_five_verifies_nine_distinct_rewrites(self, monkeypatch):
        document = binomial_document(10, 5, opt=True)
        expected = _grid_reference(document)
        results, calls = self._counted_grid(monkeypatch, document)
        assert results == expected
        assert calls == 9
        assert all(report.ok and report.answer_sets == 638 for _, report in results)

    def test_the_pricing_rewrite_serves_its_own_configuration(self, monkeypatch):
        # the full-depth, propagate-off rewrite that sizes the lane budget is
        # one of the thirty configurations, so it is not rewritten again
        document = binomial_document(10, 5, opt=True)
        results, calls = self._counted_grid(monkeypatch, document, "rewrite_objective")
        assert results == _grid_reference(document)
        assert calls == len(VERIFY_GRID) == 30

    @pytest.mark.parametrize("seed", range(10))
    def test_random_programs_verify_each_distinct_text_once(self, monkeypatch, seed):
        document = random_opt_document(random.Random(seed))
        expected = _grid_reference(document)
        results, calls = self._counted_grid(monkeypatch, document)
        assert results == expected
        texts = {
            aspif.write(rewrite_objective(document, config)[0]) for config in VERIFY_GRID
        }
        assert calls == len(texts)


class TestVerifyMemory:
    def test_fourteen_over_seven_keeps_answer_sets_as_rows(self):
        # A frozenset for each of the 9908 answer sets, turned back into
        # lanes, peaked at 6.9 MB; the rows and their lanes stay below 3 MB
        document = binomial_document(14, 7, opt=True)
        results, peak = traced_peak(verify_grid, document)
        assert all(report.ok and report.answer_sets == 9908 for _, report in results)
        assert peak < 3 * 2**20


def weighted_choice_text(seed, n):
    """A choice over atoms 1..n with two priorities: one term per atom at
    priority 0 and one per fourth atom at priority 1, weights in 1..1000 and
    about a fifth of the literals negated."""
    rng = random.Random(seed)

    def terms(atoms):
        return tuple((-a if rng.random() < 0.2 else a, rng.randint(1, 1000)) for a in atoms)

    statements = (
        aspif.Rule(aspif.CHOICE, tuple(range(1, n + 1)), aspif.NormalBody(())),
        aspif.Minimize(0, terms(range(1, n + 1))),
        aspif.Minimize(1, terms(range(1, n + 1, 4))),
    )
    return aspif.write(aspif.AspifDocument(statements=statements))


def rewritten_text(source, config):
    return aspif.write(rewrite_objective(aspif.parse(source), config)[0])


class TestValuesPastTheOracle:
    # the brute-force oracle stops at 24 guessed atoms; these objectives wire
    # 128 and 512 literals and check the value under five assignments
    @pytest.mark.parametrize(
        "n,config",
        [
            (128, RewriteConfig(sparseness=1)),
            (128, RewriteConfig(sparseness=2)),
            (128, RewriteConfig(sparseness=None)),
            (128, RewriteConfig(propagate=False)),
            (512, RewriteConfig(depth_limit=8)),
        ],
        ids=["128-sparseness-1", "128-sparseness-2", "128-sparseness-inf", "128-no-propagate",
             "512-depth-8"],
    )
    def test_every_priority_keeps_its_value(self, n, config):
        source = weighted_choice_text(n, n)
        assert value_mismatch(source, rewritten_text(source, config), n, seed=n) is None

    @pytest.fixture(scope="class")
    def wide(self):
        source = weighted_choice_text(128, 128)
        return source, rewritten_text(source, RewriteConfig()).split("\n")

    @staticmethod
    def first_comparator(lines):
        # a comparator's min rule is the only two-body shape; its two max rules follow
        return next(k for k, line in enumerate(lines) if line.startswith("1 0 1 ") and " 0 2 " in line)

    def test_a_comparator_that_loses_a_max_rule_is_caught(self, wide):
        source, lines = wide
        c = self.first_comparator(lines)
        mutant = lines[: c + 2] + lines[c + 3 :]
        assert value_mismatch(source, "\n".join(mutant), 128, seed=128) is not None

    def test_a_swapped_comparator_keeps_every_value(self, wide):
        # the check is blind to a comparator's orientation, by construction:
        # moving m = min(w_i, w_j) forward rests on w_i a + w_j b =
        # (w_i - m) a + (w_j - m) b + m (min(a, b) + max(a, b)), which holds
        # whichever output wire takes the min
        source, lines = wide
        c = self.first_comparator(lines)
        low, high = lines[c].split(" ")[3], lines[c + 1].split(" ")[3]
        swap = {low: high, high: low}
        swapped = [
            " ".join([*t[:3], swap[t[3]], *t[4:]]) for t in (l.split(" ") for l in lines[c : c + 3])
        ]
        mutant = lines[:c] + swapped + lines[c + 3 :]
        assert mutant != lines
        assert value_mismatch(source, "\n".join(mutant), 128, seed=128) is None

    def test_dropping_an_inertia_rule_is_caught(self, wide):
        source, lines = wide
        # an inertia rule is the only rule for its head
        heads = Counter(line.split(" ")[3] for line in lines if line.startswith("1 0 1 "))
        inertia = next(
            k for k, line in enumerate(lines)
            if line.startswith("1 0 1 ") and heads[line.split(" ")[3]] == 1
        )
        mutant = lines[:inertia] + lines[inertia + 1 :]
        assert value_mismatch(source, "\n".join(mutant), 128, seed=128) is not None
