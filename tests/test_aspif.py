import hashlib
import random
import re
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from optsort import aspif
from optsort.analysis import binomial_document
from optsort.asplang import GroundRule, WeightConstraint, enumerate_answer_sets_split
from optsort.rewrite import RewriteConfig, rewrite_objective

from conftest import (
    aspif_texts,
    assert_well_formed,
    bridgeable_documents,
    enumerate_answer_sets,
    evaluate,
    lane_models,
    optimal_value,
    traced_peak,
)

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.aspif"))

# these two are deliberately non-canonical (missing terminator, loose spacing)
NON_CANONICAL = {"22_no_terminator.aspif", "23_messy_spacing.aspif"}
# these hold a statement that has no ground-program bridge
UNBRIDGED = {
    "08_weight_body_rule.aspif",
    "15_external.aspif",
    "16_edge.aspif",
    "17_heuristic.aspif",
    "18_theory.aspif",
    "19_comment.aspif",
}


# each malformed input with the exact error it gets
MALFORMED = {
    "": "empty input, expected an aspif header",
    "xxx\n": "bad header 'xxx', expected 'asp 1 0 0'",
    "asp 2 0 0\n0\n": "unsupported aspif version (2, 0, 0)",
    "asp 1 0 0\n1 0 1\n0\n": "line 2: truncated statement, missing head atom",
    "asp 1 0 0\n1\n0\n": "line 2: truncated statement, missing head kind",
    "asp 1 0 0\n2\n0\n": "line 2: truncated statement, missing priority",
    "asp 1 0 0\n1 0 0 1 1 2 5 1\n0\n": "line 2: truncated statement, missing body literal",
    "asp 1 0 0\n2 0 2 1 1\n0\n": "line 2: truncated statement, missing minimize literal",
    "asp 1 0 0\n1 0 1 x 0 0\n0\n": "line 2: non-integer token 'x' for head atom",
    "asp 1 0 0\n1 0 1 1 0 1 x\n0\n": "line 2: non-integer token 'x' for body literal",
    "asp 1 0 0\n1 0 1 1 0 0 99\n0\n": "line 2: 1 unexpected trailing tokens",
    "asp 1 0 0\n2 0 1 1 1 7\n0\n": "line 2: 1 unexpected trailing tokens",
    "asp 1 0 0\n0\n1 0 1 1 0 0\n": "line 3: content after terminator",
    "asp 1 0 0\n\n0\n": "line 2: blank statement line",
    "asp 1 0 0\n4 9 abc 0\n0\n": "line 2: output string shorter than declared",
    "asp 1 0 0\n1 2 1 1 0 0\n0\n": "line 2: unknown head kind 2",
    "asp 1 0 0\n1 0 1 1 2 0\n0\n": "line 2: unknown body kind 2",
    "asp 1 0 0\n1 0 1 0 0 0\n0\n": "line 2: head atoms must be positive",
    "asp 1 0 0\n1 0 1 1 0 1 0\n0\n": "line 2: body literal 0 is not allowed",
    "asp 1 0 0\n2 0 1 0 5\n0\n": "line 2: minimize literal 0 is not allowed",
    # negative counts
    "asp 1 0 0\n1 0 -1 0 0\n0\n": "line 2: negative head atom count -1",
    "asp 1 0 0\n1 0 1 1 0 -2 1 2\n0\n": "line 2: negative body literal count -2",
    "asp 1 0 0\n1 0 1 1 1 -5 -1\n0\n": "line 2: negative body element count -1",
    "asp 1 0 0\n2 0 -3\n0\n": "line 2: negative term count -3",
    "asp 1 0 0\n4 1 a -2\n0\n": "line 2: negative condition count -2",
    # each field's wording when its token is missing or not an integer
    "asp 1 0 0\n1 0\n0\n": "line 2: truncated statement, missing head atom count",
    "asp 1 0 0\n1 0 1 1\n0\n": "line 2: truncated statement, missing body kind",
    "asp 1 0 0\n1 0 1 1 0 x\n0\n": "line 2: non-integer token 'x' for body literal count",
    "asp 1 0 0\n1 0 0 1 2\n0\n": "line 2: truncated statement, missing body element count",
    "asp 1 0 0\n2 0 x\n0\n": "line 2: non-integer token 'x' for term count",
    "asp 1 0 0\n4 1 a\n0\n": "line 2: truncated statement, missing condition count",
    "asp 1 0 0\n4 1 a 2 3 x\n0\n": "line 2: non-integer token 'x' for condition literal",
    "asp 1 0 0\n2 0 1 1\n0\n": "line 2: truncated statement, missing weight",
    "asp 1 0 0\n1 0 0 1 2 2 -1 1 3\n0\n": "line 2: truncated statement, missing weight",
    # integers outside the aspif syntax
    "asp 1 0 0\n1 0 1 1_0 0 0\n0\n": "line 2: non-integer token '1_0' for head atom",
    "asp 1 0 0\n2 0 1 1 1_0\n0\n": "line 2: non-integer token '1_0' for weight",
    "asp 1 0 0\n1 0 0 1 1_0 0\n0\n": "line 2: non-integer token '1_0' for lower bound",
    "asp 1 0 0\n1 0 1 ٣ 0 0\n0\n": "line 2: non-integer token '٣' for head atom",
    "asp 1 0 0\n١ 0 1 1 0 0\n0\n": "line 2: non-integer statement code '١'",
    "asp 1 0 0\n 1 0 1 1 0 0\n0\n": "line 2: non-integer statement code ''",
    "asp 1 0 0\n1\t0 1 1 0 0\n0\n": "line 2: non-integer statement code '1\\t0'",
}


class TestParse:
    def test_fact_rule(self):
        doc = aspif.parse("asp 1 0 0\n1 0 1 1 0 0\n0\n")
        assert doc.statements == (
            aspif.Rule(aspif.DISJUNCTIVE, (1,), aspif.NormalBody(())),
        )
        assert doc.had_terminator

    def test_minimize_terms(self):
        doc = aspif.parse("asp 1 0 0\n2 0 2 1 40 2 70\n0\n")
        assert doc.statements == (aspif.Minimize(0, ((1, 40), (2, 70))),)

    def test_weight_body(self):
        doc = aspif.parse("asp 1 0 0\n1 0 0 1 2 2 -1 1 -2 1\n0\n")
        rule = doc.statements[0]
        assert rule.body == aspif.WeightBody(2, ((-1, 1), (-2, 1)))

    def test_output_string_may_contain_spaces(self):
        doc = aspif.parse("asp 1 0 0\n4 5 a b c 1 -4\n0\n")
        assert doc.statements == (aspif.Output("a b c", (-4,)),)

    def test_output_string_length_counts_utf8_bytes(self):
        doc = aspif.parse("asp 1 0 0\n4 2 é 1 1\n4 8 € a ü 0\n0\n")
        assert doc.statements == (aspif.Output("é", (1,)), aspif.Output("€ a ü", ()))

    @pytest.mark.parametrize("length", [1, 3])
    def test_output_string_length_ending_inside_a_character_is_refused(self, length):
        with pytest.raises(
            aspif.AspifParseError,
            match="^line 2: output string length ends inside a character$",
        ):
            aspif.parse(f"asp 1 0 0\n4 {length} é€ 1 1\n0\n")

    def test_unknown_codes_are_kept_verbatim(self):
        doc = aspif.parse("asp 1 0 0\n3 4 2\n7 whatever 9\n0\n")
        assert doc.statements == (aspif.Raw("3 4 2"), aspif.Raw("7 whatever 9"))

    def test_missing_terminator_is_recorded(self):
        doc = aspif.parse("asp 1 0 0\n1 0 1 1 0 0\n")
        assert not doc.had_terminator

    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(aspif.AspifParseError) as caught:
            aspif.parse(text)
        assert str(caught.value) == MALFORMED[text]

    @pytest.mark.parametrize(
        "line, statement",
        [
            ("1 0 1 +4 0 0", aspif.Rule(aspif.DISJUNCTIVE, (4,), aspif.NormalBody(()))),
            ("1 0 1 04 0 1 -04", aspif.Rule(aspif.DISJUNCTIVE, (4,), aspif.NormalBody((-4,)))),
            ("1  1   2 3  4 0  0", aspif.Rule(aspif.CHOICE, (3, 4), aspif.NormalBody(()))),
            ("1 0 0 1 +2 2 -1 01 2 -0", aspif.Rule(0, (), aspif.WeightBody(2, ((-1, 1), (2, 0))))),
            ("2 +0  2 04 -1 -3 +5 ", aspif.Minimize(0, ((4, -1), (-3, 5)))),
            ("04 1 a 1 +4", aspif.Output("a", (4,))),
            ("+1 0 1 4 0 0", aspif.Rule(aspif.DISJUNCTIVE, (4,), aspif.NormalBody(()))),
        ],
    )
    def test_accepted_integer_spellings(self, line, statement):
        assert aspif.parse(f"asp 1 0 0\n{line}\n0\n").statements == (statement,)

    @pytest.mark.parametrize(
        "line",
        [
            "1 0 1 1 0 1 0",
            "1 0 1 1 0 2 2 0",
            "1 0 0 1 1 2 0 1 3 1",
            "2 0 2 0 5 1 -3",
            "2 0 2 0 5 1 3",
            "4 1 a 2 1 0",
        ],
    )
    def test_literal_zero_is_refused_with_its_line(self, line):
        with pytest.raises(aspif.AspifParseError, match="^line 3: .*literal 0 is not allowed"):
            aspif.parse(f"asp 1 0 0\n1 1 1 1 0 0\n{line}\n0\n")


class TestWrite:
    def test_header_only_document(self):
        assert aspif.write(aspif.AspifDocument()) == "asp 1 0 0\n0\n"

    def test_empty_minimize_statement(self):
        doc = aspif.AspifDocument(statements=(aspif.Minimize(3, ()),))
        assert aspif.write(doc) == "asp 1 0 0\n2 3 0\n0\n"

    def test_output_string_length_counts_utf8_bytes(self):
        doc = aspif.AspifDocument(statements=(aspif.Output("é", (1,)),))
        assert aspif.write(doc) == "asp 1 0 0\n4 2 é 1 1\n0\n"
        assert aspif.parse(aspif.write(doc)) == doc

    def test_terminator_is_appended_when_missing(self):
        doc = aspif.parse("asp 1 0 0\n1 0 1 1 0 0\n")
        assert aspif.write(doc).endswith("1 0 1 1 0 0\n0\n")

    def test_wide_text_is_joined_once(self):
        # Each line is its own str, about 3.4 bytes of heap per byte of text
        # here; joining the text and then copying it to add the final
        # newline peaked at 5.4 bytes per byte.
        doc, _ = rewrite_objective(
            binomial_document(1024, 512, opt=True), RewriteConfig(sparseness=None)
        )
        text, peak = traced_peak(aspif.write, doc)
        assert text.endswith("\n0\n")
        assert peak < 5 * len(text)


class TestGoldenCorpus:
    def test_corpus_is_large_enough(self):
        assert len(CORPUS) >= 20

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
    def test_write_parse_round_trip_is_idempotent(self, path):
        text = path.read_text()
        once = aspif.write(aspif.parse(text))
        twice = aspif.write(aspif.parse(once))
        assert twice == once
        assert aspif.parse(once).statements == aspif.parse(text).statements

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
    def test_round_trip_keeps_every_statement_class(self, path):
        # statements are tuples, so equal values alone would not tell a
        # Minimize from a WeightBody with the same fields
        def classes(doc):
            return [
                (type(s), type(s.body) if isinstance(s, aspif.Rule) else None)
                for s in doc.statements
            ]

        doc = aspif.parse(path.read_text())
        again = aspif.parse(aspif.write(doc))
        assert again == doc._replace(had_terminator=True)
        assert classes(again) == classes(doc)

    def test_statement_kinds_with_equal_fields_compare_equal(self):
        terms = ((1, 2),)
        assert aspif.WeightBody(0, terms) == aspif.Minimize(0, terms)
        rule = aspif.Rule(aspif.DISJUNCTIVE, (), aspif.WeightBody(0, terms))
        doc = aspif.AspifDocument(statements=(rule, aspif.Minimize(0, terms)))
        assert aspif.write(doc) == "asp 1 0 0\n1 0 0 1 0 1 1 2\n2 0 1 1 2\n0\n"

    @pytest.mark.parametrize(
        "path",
        [p for p in CORPUS if p.name not in NON_CANONICAL],
        ids=lambda p: p.name,
    )
    def test_canonical_files_round_trip_byte_exactly(self, path):
        text = path.read_text()
        assert aspif.write(aspif.parse(text)) == text

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
    def test_atom_ids_never_shrink_under_canonicalization(self, path):
        doc = aspif.parse(path.read_text())
        assert aspif.parse(aspif.write(doc)).max_atom_id() == doc.max_atom_id()


class TestMaxAtomId:
    def test_scans_heads_bodies_and_outputs(self):
        doc = aspif.parse("asp 1 0 0\n1 0 1 7 0 2 -9 3\n4 1 a 1 -12\n0\n")
        assert doc.max_atom_id() == 12

    def test_raw_lines_are_scanned_conservatively(self):
        doc = aspif.parse("asp 1 0 0\n5 44 2\n0\n")
        assert doc.max_atom_id() == 44


class TestRawText:
    # the rule lines a rewrite adds for a level, held as one statement
    RULES = aspif.Raw("1 0 1 5 0 2 1 2\n1 0 1 6 0 1 -3\n1 0 1 7 0 1 4")

    def test_lines_are_written_verbatim(self):
        text = aspif.write(aspif.AspifDocument(statements=(self.RULES,)))
        assert text == "asp 1 0 0\n1 0 1 5 0 2 1 2\n1 0 1 6 0 1 -3\n1 0 1 7 0 1 4\n0\n"

    def test_bridges_like_the_rules_it_holds(self):
        doc = aspif.AspifDocument(statements=(self.RULES,))
        program, _ = aspif.to_ground_program(aspif.parse(aspif.write(doc)))
        assert program.rules == (
            GroundRule(5, frozenset({1, 2})),
            GroundRule(6, frozenset(), frozenset({3})),
            GroundRule(7, frozenset({4})),
        )
        assert program.signature == frozenset(range(1, 8))

    def test_is_bridged_only_as_written_text(self):
        doc = aspif.AspifDocument(statements=(self.RULES,))
        with pytest.raises(aspif.UnsupportedStatementError, match="no ground-program bridge"):
            aspif.to_ground_program(doc)

    def test_max_atom_id_scans_every_line(self):
        assert aspif.AspifDocument(statements=(self.RULES,)).max_atom_id() == 7
        negated_last = aspif.Raw("1 0 1 2 0 1 3\n1 0 1 2 0 1 -9")
        assert aspif.AspifDocument(statements=(negated_last,)).max_atom_id() == 9

    def test_literal_zero_has_no_bridge(self):
        doc = aspif.AspifDocument(statements=(aspif.Raw("1 0 1 3 0 1 0"),))
        with pytest.raises(aspif.AspifParseError, match="body literal 0"):
            aspif.parse(aspif.write(doc))


def assert_same_answer_sets(program, count):
    """The lane enumerator finds the oracle's answer sets, ``count`` of them."""
    models = lane_models(enumerate_answer_sets_split(program))
    assert models == enumerate_answer_sets(program)
    assert len(models) == count


class TestGroundProgramBridge:
    def test_binomial_document_yields_the_expected_answer_sets(self):
        from optsort.analysis import binomial_document

        program, objectives = aspif.to_ground_program(binomial_document(4, 2, opt=True))
        models = enumerate_answer_sets(program)
        assert sorted(len(m) for m in models) == [2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4]
        assert optimal_value(program, objectives[0]) == 2

    def test_choice_statement_maps_to_a_choice_rule(self):
        # one choice rule per head atom, each with the statement's body
        program, _ = aspif.to_ground_program(
            aspif.parse("asp 1 0 0\n1 1 2 1 2 0 1 -3\n0\n")
        )
        assert program.rules == (
            GroundRule(1, frozenset(), frozenset({3}), True),
            GroundRule(2, frozenset(), frozenset({3}), True),
        )

    def test_constraint_maps_to_a_nogood(self):
        program, _ = aspif.to_ground_program(
            aspif.parse("asp 1 0 0\n1 0 0 0 2 1 -2\n0\n")
        )
        (ng,) = program.nogoods
        assert ng.literals == frozenset({1, -2})

    def test_constraint_on_an_atom_and_its_negation_is_dropped(self):
        # it never fires, and a nogood may not hold an atom with both signs
        program, _ = aspif.to_ground_program(aspif.parse("asp 1 0 0\n1 0 0 0 2 1 -1\n0\n"))
        assert program.nogoods == ()
        assert_well_formed(program)

    def test_uniform_weight_constraint_becomes_cardinality(self):
        # a uniform-weight body is kept as written, not reduced to an
        # at-least constraint over complemented literals
        program, _ = aspif.to_ground_program(
            aspif.parse("asp 1 0 0\n1 0 0 1 2 3 -1 1 -2 1 -3 1\n0\n")
        )
        assert program.weight_constraints == (WeightConstraint(((-1, 1), (-2, 1), (-3, 1)), 2),)
        assert not program.nogoods

    def test_unfireable_weight_constraint_is_dropped(self):
        # a body that can never reach its bound is kept as written, and keeps
        # every answer set of the choice
        program, _ = aspif.to_ground_program(
            aspif.parse("asp 1 0 0\n1 1 2 1 2 0 0\n1 0 0 1 3 2 1 1 2 1\n0\n")
        )
        assert program.weight_constraints == (WeightConstraint(((1, 1), (2, 1)), 3),)
        assert not program.nogoods
        assert_same_answer_sets(program, 4)

    def test_weight_body_with_head_is_unsupported(self):
        with pytest.raises(aspif.UnsupportedStatementError):
            aspif.to_ground_program(
                aspif.parse("asp 1 0 0\n1 0 1 5 1 4 2 1 2 2 3\n0\n")
            )

    def test_non_uniform_weight_constraint_is_unsupported(self):
        # non-uniform weights are kept as written too: 2*[1] + 3*[2] >= 4
        # fires only where both atoms hold
        program, _ = aspif.to_ground_program(
            aspif.parse("asp 1 0 0\n1 1 2 1 2 0 0\n1 0 0 1 4 2 1 2 2 3\n0\n")
        )
        assert program.weight_constraints == (WeightConstraint(((1, 2), (2, 3)), 4),)
        assert_same_answer_sets(program, 3)

    def test_disjunctive_heads_are_unsupported(self):
        with pytest.raises(aspif.UnsupportedStatementError):
            aspif.to_ground_program(aspif.parse("asp 1 0 0\n1 0 2 1 2 0 0\n0\n"))

    def test_raw_statements_are_unsupported_for_semantics(self):
        with pytest.raises(aspif.UnsupportedStatementError):
            aspif.to_ground_program(aspif.parse("asp 1 0 0\n3 4 2\n0\n"))

    @pytest.mark.parametrize(
        "statement",
        [
            aspif.Rule(aspif.CHOICE, (1,), aspif.NormalBody((0,))),
            aspif.Rule(aspif.DISJUNCTIVE, (), aspif.WeightBody(1, ((1, 1), (0, 1)))),
            aspif.Minimize(0, ((1, 2), (0, 3))),
            aspif.Output("x", (1, 0)),
        ],
        ids=["choice body", "weight body", "minimize term", "output condition"],
    )
    def test_literal_zero_in_a_document_built_in_code_is_refused(self, statement):
        doc = aspif.AspifDocument(statements=(statement,))
        with pytest.raises(aspif.UnsupportedStatementError, match="^literal 0 is not allowed$"):
            aspif.to_ground_program(doc)

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
    def test_corpus_programs_are_well_formed(self, path):
        doc = aspif.parse(path.read_text())
        if path.name in UNBRIDGED:
            with pytest.raises(aspif.UnsupportedStatementError):
                aspif.to_ground_program(doc)
        else:
            assert_well_formed(aspif.to_ground_program(doc)[0])

    def test_a_sum_constraint_keeps_its_repeated_and_non_uniform_terms(self):
        # :- #sum{3: 1; 2: 2; 2: not 3; 1: 4; 1: 4; 4: 5} >= 6 over a free
        # choice of atoms 1..5, with two elements on atom 4
        path = CORPUS[[p.name for p in CORPUS].index("26_sum_constraint.aspif")]
        program, objectives = aspif.to_ground_program(aspif.parse(path.read_text()))
        terms = ((1, 3), (2, 2), (-3, 2), (4, 1), (4, 1), (5, 4))
        assert program.weight_constraints == (WeightConstraint(terms, 6),)
        assert set(objectives) == {0}
        assert_same_answer_sets(program, 12)

    def test_minimize_objectives_are_collected_per_priority(self):
        _, objectives = aspif.to_ground_program(
            aspif.parse("asp 1 0 0\n1 1 2 1 2 0 0\n2 0 1 1 5\n2 1 1 -2 7\n2 0 1 2 3\n0\n")
        )
        assert set(objectives) == {0, 1}
        assert evaluate(objectives[0], frozenset({1, 2})) == 8
        assert evaluate(objectives[1], frozenset({1})) == 7


@st.composite
def documents(draw):
    statements = []
    n_atoms = draw(st.integers(1, 6))
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["fact", "rule", "choice", "minimize", "output"]))
        if kind == "fact":
            statements.append(
                aspif.Rule(aspif.DISJUNCTIVE, (draw(st.integers(1, n_atoms)),), aspif.NormalBody(()))
            )
        elif kind == "rule":
            lits = draw(
                st.lists(
                    st.integers(-n_atoms, n_atoms).filter(lambda x: x != 0),
                    max_size=3,
                )
            )
            statements.append(
                aspif.Rule(
                    aspif.DISJUNCTIVE,
                    (draw(st.integers(1, n_atoms)),),
                    aspif.NormalBody(tuple(lits)),
                )
            )
        elif kind == "choice":
            heads = draw(st.lists(st.integers(1, n_atoms), min_size=1, max_size=3, unique=True))
            statements.append(aspif.Rule(aspif.CHOICE, tuple(heads), aspif.NormalBody(())))
        elif kind == "minimize":
            terms = draw(
                st.lists(
                    st.tuples(
                        st.integers(-n_atoms, n_atoms).filter(lambda x: x != 0),
                        st.integers(-50, 50),
                    ),
                    max_size=4,
                )
            )
            statements.append(aspif.Minimize(draw(st.integers(0, 2)), tuple(terms)))
        else:
            name = draw(st.text(alphabet="ab (,)é€", max_size=6))
            statements.append(aspif.Output(name, tuple(draw(st.lists(st.integers(1, n_atoms), max_size=2)))))
    return aspif.AspifDocument(statements=tuple(statements))


@given(documents())
@settings(max_examples=80)
def test_parse_inverts_write(doc):
    assert aspif.parse(aspif.write(doc)) == doc


@given(aspif_texts())
@settings(max_examples=300)
def test_random_statement_lines_parse_or_raise_a_parse_error(text):
    try:
        doc = aspif.parse(text)
    except aspif.AspifParseError:
        return
    assert aspif.parse(aspif.write(doc)).statements == doc.statements


# In three runs of 300 drawn documents, 119-148 held a choice rule, 44-60 a
# normal rule whose body has literals of both signs, 111-121 a weight
# constraint (67-85 one with non-uniform weights) and 106-157 a constraint
# on both a and -a.
@given(bridgeable_documents())
@settings(max_examples=300)
def test_random_documents_that_bridge_are_well_formed(document):
    program, _ = aspif.to_ground_program(aspif.parse(aspif.write(document)))
    assert_well_formed(program)


def _normal_rules(document):
    return [
        s for s in document.statements
        if isinstance(s, aspif.Rule) and isinstance(s.body, aspif.NormalBody)
    ]


BRIDGEABLE_KINDS = {
    "choice": lambda d: any(r.head_kind == aspif.CHOICE for r in _normal_rules(d)),
    "both-signs": lambda d: any(
        r.head_atoms and min(r.body.literals, default=0) < 0 < max(r.body.literals)
        for r in _normal_rules(d)
        if r.head_kind == aspif.DISJUNCTIVE
    ),
    "cardinality": lambda d: aspif.to_ground_program(d)[0].weight_constraints,
    "contradictory": lambda d: any(
        not r.head_atoms and any(-l in r.body.literals for l in r.body.literals)
        for r in _normal_rules(d)
        if r.head_kind == aspif.DISJUNCTIVE
    ),
}


@pytest.mark.parametrize("kind", BRIDGEABLE_KINDS)
def test_bridgeable_documents_reach_every_statement_kind(kind):
    only_generate = settings(database=None, phases=[Phase.generate], max_examples=300)
    find(bridgeable_documents(), BRIDGEABLE_KINDS[kind], settings=only_generate)


def test_generated_texts_reach_the_accepting_side():
    # about one text in six parses and holds a rule or a minimize statement
    def accepted_with_rule_or_minimize(text):
        try:
            statements = aspif.parse(text).statements
        except aspif.AspifParseError:
            return False
        return any(isinstance(s, (aspif.Rule, aspif.Minimize)) for s in statements)

    only_generate = settings(database=None, phases=[Phase.generate], max_examples=300)
    find(aspif_texts(), accepted_with_rule_or_minimize, settings=only_generate)


# Tokens that probe each check of the statement decoders: small values,
# zero and a negative, spellings that aspif accepts (+3, 03), and tokens it
# refuses (a letter, an empty token, an underscore, a non-ASCII digit and an
# integer longer than the interpreter converts).
_PROBES = ["1", "2", "3", "0", "-1", "+3", "03", "x", "", "1_0", "٣", "9" * 5000]
_FIELDS = [
    "head kind", "head atom count", "head atom", "body kind", "body literal count",
    "body literal", "lower bound", "body element count", "weight", "priority",
    "term count", "minimize literal", "condition count", "condition literal",
]
_WORDINGS = [
    *(f"truncated statement, missing {field}" for field in _FIELDS),
    *(f"non-integer token '.*' for {field}" for field in _FIELDS),
    *(
        f"negative {count} -[0-9]+"
        for count in [
            "head atom count", "body literal count", "body element count",
            "term count", "condition count",
        ]
    ),
    *(f"{lit} 0 is not allowed" for lit in ["body literal", "minimize literal", "condition literal"]),
    "unknown head kind -?[0-9]+",
    "unknown body kind -?[0-9]+",
    "[0-9]+ unexpected trailing tokens",
    "head atoms must be positive",
    "bad output string length",
    "output string shorter than declared",
    "output string length mismatch",
    "output string length ends inside a character",
]


def _pinned_lines(rng, count):
    """Written statement lines with up to three tokens changed, and lines of random tokens."""

    def lits(k):
        return tuple(rng.choice([-1, 1]) * rng.randint(1, 6) for _ in range(k))

    def weighted():
        return tuple((lit, rng.randint(-2, 9)) for lit in lits(rng.randint(0, 3)))

    for _ in range(count):
        if rng.random() < 0.25:
            code = rng.choice(["1", "2", "4"])
            yield " ".join([code, *(rng.choice(_PROBES) for _ in range(rng.randint(0, 9)))])
            continue
        kind = rng.choice(["rule", "weight rule", "minimize", "output"])
        heads = tuple(rng.sample(range(1, 7), rng.randint(0, 2)))
        if kind == "rule":
            body = aspif.NormalBody(lits(rng.randint(0, 3)))
            statement = aspif.Rule(rng.choice([aspif.DISJUNCTIVE, aspif.CHOICE]), heads, body)
        elif kind == "weight rule":
            body = aspif.WeightBody(rng.randint(-1, 6), weighted())
            statement = aspif.Rule(rng.choice([aspif.DISJUNCTIVE, aspif.CHOICE]), heads, body)
        elif kind == "minimize":
            statement = aspif.Minimize(rng.randint(-1, 2), weighted())
        else:
            name = rng.choice(["a", "p(1)", "a b", ""])
            statement = aspif.Output(name, lits(rng.randint(0, 2)))
        tokens = aspif.write(aspif.AspifDocument(statements=(statement,))).split("\n")[1].split(" ")
        for _ in range(rng.randint(0, 3)):
            action = rng.choice(["replace", "insert", "delete"])
            if action == "insert":
                tokens.insert(rng.randint(0, len(tokens)), rng.choice(_PROBES))
            elif tokens:
                position = rng.randrange(len(tokens))
                if action == "replace":
                    tokens[position] = rng.choice(_PROBES)
                else:
                    del tokens[position]
        yield " ".join(tokens)


def test_parse_outcomes_are_pinned():
    # The statements or the exact error of 20 000 one-statement documents,
    # by sha256; the digest was recorded before the rule and minimize
    # decoders were rewritten, so any change of outcome or wording shows.
    # It was re-recorded once, when output string lengths became UTF-8 byte
    # counts: that changed the outcome of 84 lines, each an output statement
    # holding the two-byte probe.
    digest = hashlib.sha256()
    reached = set()
    for line in _pinned_lines(random.Random(2016), 20_000):
        try:
            outcome = repr(aspif.parse(f"asp 1 0 0\n{line}\n0\n").statements)
        except aspif.AspifParseError as error:
            outcome = str(error)
            reached.update(w for w in _WORDINGS if re.fullmatch(f"line 2: {w}", outcome))
        digest.update(outcome.encode() + b"\n")
    assert reached == set(_WORDINGS)
    assert digest.hexdigest() == "31454533b9ce9572428779de06782ac10f4db154aecfcab90e8b5455019ab19d"
