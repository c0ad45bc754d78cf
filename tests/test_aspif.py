from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from optsort import aspif
from optsort.asplang import CardinalityConstraint, Literal

from conftest import aspif_texts, enumerate_answer_sets, evaluate, optimal_value

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.aspif"))

# these two are deliberately non-canonical (missing terminator, loose spacing)
NON_CANONICAL = {"22_no_terminator.aspif", "23_messy_spacing.aspif"}


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

    def test_terminator_is_appended_when_missing(self):
        doc = aspif.parse("asp 1 0 0\n1 0 1 1 0 0\n")
        assert aspif.write(doc).endswith("1 0 1 1 0 0\n0\n")


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


class TestGroundProgramBridge:
    def test_binomial_document_yields_the_expected_answer_sets(self):
        from optsort.analysis import binomial_document

        program, objectives = aspif.to_ground_program(binomial_document(4, 2, opt=True))
        models = enumerate_answer_sets(program)
        assert sorted(len(m) for m in models) == [2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4]
        assert optimal_value(program, objectives[0]) == 2

    def test_choice_statement_maps_to_a_choice_rule(self):
        program, _ = aspif.to_ground_program(
            aspif.parse("asp 1 0 0\n1 1 2 1 2 0 1 -3\n0\n")
        )
        (choice,) = program.choice_rules
        assert choice.head_atoms == frozenset({1, 2})
        assert choice.body == frozenset({Literal(3, False)})

    def test_constraint_maps_to_a_nogood(self):
        program, _ = aspif.to_ground_program(
            aspif.parse("asp 1 0 0\n1 0 0 0 2 1 -2\n0\n")
        )
        (ng,) = program.nogoods
        assert ng.signed_literals == frozenset({(1, True), (2, False)})

    def test_uniform_weight_constraint_becomes_cardinality(self):
        program, _ = aspif.to_ground_program(
            aspif.parse("asp 1 0 0\n1 0 0 1 2 3 -1 1 -2 1 -3 1\n0\n")
        )
        (cc,) = program.cardinality_constraints
        assert isinstance(cc, CardinalityConstraint)
        assert cc.lower_bound == 2  # at least 2 of the three atoms

    def test_unfireable_weight_constraint_is_dropped(self):
        program, _ = aspif.to_ground_program(
            aspif.parse("asp 1 0 0\n1 0 0 1 3 2 1 1 2 1\n0\n")
        )
        assert not program.cardinality_constraints and not program.nogoods

    def test_weight_body_with_head_is_unsupported(self):
        with pytest.raises(aspif.UnsupportedStatementError):
            aspif.to_ground_program(
                aspif.parse("asp 1 0 0\n1 0 1 5 1 4 2 1 2 2 3\n0\n")
            )

    def test_non_uniform_weight_constraint_is_unsupported(self):
        with pytest.raises(aspif.UnsupportedStatementError):
            aspif.to_ground_program(
                aspif.parse("asp 1 0 0\n1 0 0 1 4 2 1 2 2 3\n0\n")
            )

    def test_disjunctive_heads_are_unsupported(self):
        with pytest.raises(aspif.UnsupportedStatementError):
            aspif.to_ground_program(aspif.parse("asp 1 0 0\n1 0 2 1 2 0 0\n0\n"))

    def test_raw_statements_are_unsupported_for_semantics(self):
        with pytest.raises(aspif.UnsupportedStatementError):
            aspif.to_ground_program(aspif.parse("asp 1 0 0\n3 4 2\n0\n"))

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
            name = draw(st.text(alphabet="ab (,)", max_size=6))
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


def _walked(code, rest, line_no):
    walk = aspif._parse_rule if code == 1 else aspif._parse_minimize
    try:
        return walk(aspif._Tokens(rest.split(), line_no))
    except aspif.AspifParseError:
        return None


def _sliced(code, rest):
    values = aspif._values(rest)
    if values is None:
        return None
    return (aspif._slice_rule if code == 1 else aspif._slice_minimize)(values)


def _check_slicer_against_walker(text):
    for line_no, line in enumerate(text.split("\n")[1:], start=2):
        code_token, _, rest = line.partition(" ")
        code = aspif._integer(code_token)
        if code in (1, 2):
            # repr names every nested statement class, so kinds must match too
            assert repr(_sliced(code, rest)) == repr(_walked(code, rest, line_no))


@given(aspif_texts())
@settings(max_examples=300)
def test_slicer_accepts_exactly_what_the_token_walker_accepts(text):
    _check_slicer_against_walker(text)


@given(documents(), st.data())
@settings(max_examples=150)
def test_slicer_matches_the_walker_on_perturbed_canonical_lines(doc, data):
    # written lines are valid, so one changed token probes each check near
    # the accepting boundary
    lines = aspif.write(doc).split("\n")
    index = data.draw(st.integers(0, len(lines) - 1))
    parts = lines[index].split(" ")
    position = data.draw(st.integers(0, len(parts)))
    token = data.draw(st.sampled_from(["0", "1", "-1", "2", "+3", "03", "9", "x", ""]))
    action = data.draw(st.sampled_from(["replace", "insert", "delete"]))
    if action == "insert":
        parts.insert(position, token)
    elif position < len(parts):
        if action == "replace":
            parts[position] = token
        else:
            del parts[position]
    lines[index] = " ".join(parts)
    _check_slicer_against_walker("\n".join(lines))
