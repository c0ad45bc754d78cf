import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optsort import analysis, aspif
from optsort.analysis import (
    attach_network,
    card_propagator,
    check_candidate_cost,
    run_pch,
)
from optsort.asplang import GroundProgram, SemanticsError
from optsort.network import oe_sorter

from conftest import (
    assert_well_formed,
    at_least,
    binomial_opt_program,
    binomial_program,
    binomial_with_sorter,
    bridgeable_documents,
    choice,
    constraint_nogoods,
    enumerate_answer_sets,
    evaluate,
    fact,
    nogood,
    optimal_value,
    reference_pch,
    rule,
    rule_atoms,
    traced_peak,
    verify_trace,
)


def assert_matches_reference(program, propagator, candidates=None):
    trace = run_pch(program, propagator)
    expected = reference_pch(program, propagator, candidates=candidates)
    assert (trace.assignments, trace.nogoods, trace.complete) == expected
    return trace


def assert_walks_answer_sets(program, propagator):
    """``run_pch`` against the frozenset filter over the program's answer sets."""
    trace = assert_matches_reference(program, propagator, enumerate_answer_sets(program))
    assert verify_trace(program, propagator, trace)
    return trace


def choice_program(n, normal_rules=(), weight_constraints=(), nogoods=()):
    """Free choice over atoms 1..n under the given rules and constraints."""
    atoms = set(range(1, n + 1))
    for r in normal_rules:
        atoms |= rule_atoms(r)
    return GroundProgram(
        signature=frozenset(atoms),
        rules=(*normal_rules, *choice(range(1, n + 1))),
        weight_constraints=tuple(weight_constraints),
        nogoods=tuple(nogoods),
    )


class TestBinomialPrograms:
    def test_answer_sets_are_the_large_subsets(self):
        models = enumerate_answer_sets(binomial_program(3, 2))
        assert sorted(sorted(m) for m in models) == [[1, 2], [1, 2, 3], [1, 3], [2, 3]]

    def test_unconstrained_choice(self):
        assert len(enumerate_answer_sets(binomial_program(5, 0))) == 32

    def test_unsatisfiable_bound(self):
        assert enumerate_answer_sets(binomial_program(2, 3)) == []

    def test_optimum_is_the_bound(self):
        program, objective = binomial_opt_program(4, 2)
        assert optimal_value(program, objective) == 2

    def test_number_of_optimal_answer_sets(self):
        program, objective = binomial_opt_program(4, 2)
        optima = [
            m for m in enumerate_answer_sets(program) if evaluate(objective, m) == 2
        ]
        assert len(optima) == math.comb(4, 2)

    def test_single_atom_instance(self):
        program, objective = binomial_opt_program(1, 1)
        assert enumerate_answer_sets(program) == [frozenset({1})]
        assert optimal_value(program, objective) == 1

    def test_negative_parameters_are_refused(self):
        with pytest.raises(SemanticsError):
            binomial_program(-1, 0)
        with pytest.raises(SemanticsError):
            binomial_opt_program(2, -1)

    def test_answer_set_counts_are_binomial_tails(self):
        for n in range(7):
            for k in range(n + 2):
                expected = sum(math.comb(n, j) for j in range(k, n + 1))
                assert len(enumerate_answer_sets(binomial_program(n, k))) == expected, (n, k)


class TestCardPropagator:
    def test_explains_with_the_smallest_true_atoms(self):
        propagator = card_propagator([1, 2, 3], 2)
        assert propagator.explain(frozenset({3, 1, 2})) == (1, 2)

    def test_explain_requires_a_conflict(self):
        propagator = card_propagator([1, 2, 3], 2)
        with pytest.raises(SemanticsError):
            propagator.explain(frozenset({1}))

    def test_unit_bound_constraint_is_singletons(self):
        propagator = card_propagator([1, 2, 3], 1)
        assert len(constraint_nogoods(propagator)) == 3
        assert all(len(n) == 1 for n in constraint_nogoods(propagator))

    def test_bound_cannot_exceed_the_atoms(self):
        with pytest.raises(SemanticsError):
            card_propagator([1, 2], 3)


class TestBarePch:
    @pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (5, 2), (6, 3), (8, 4)])
    def test_history_length_is_the_binomial_coefficient(self, n, k):
        trace = run_pch(binomial_program(n, k), card_propagator(range(1, n + 1), k))
        assert trace.complete
        assert trace.m == math.comb(n, k)

    def test_table_row_at_ten_over_five(self):
        trace = run_pch(binomial_program(10, 5), card_propagator(range(1, 11), 5))
        assert trace.m == 252 and trace.complete

    @pytest.mark.parametrize("seed", range(5))
    def test_length_is_order_independent(self, seed):
        # run_pch visits in sorted order only, so other orders run on the oracle
        program = binomial_program(6, 3)
        propagator = card_propagator(range(1, 7), 3)
        assignments, _, complete = reference_pch(program, propagator, random.Random(seed))
        assert complete and len(assignments) == math.comb(6, 3)

    def test_trace_survives_post_hoc_validation(self):
        program = binomial_program(4, 2)
        propagator = card_propagator(range(1, 5), 2)
        trace = run_pch(program, propagator)
        assert verify_trace(program, propagator, trace)

    def test_incomplete_history_when_an_answer_set_survives(self):
        # bound below the constraint's reach: the all-false candidate is an
        # answer set, so the propagator never wipes out the search space
        program = binomial_program(3, 0)
        propagator = card_propagator([1, 2, 3], 2)
        trace = run_pch(program, propagator)
        assert not trace.complete

    def test_summary_format(self):
        trace = run_pch(binomial_program(3, 2), card_propagator([1, 2, 3], 2))
        assert trace.summary() == "m=3 complete=true"
        assert trace.to_text().splitlines()[-1] == trace.summary()


class TestReferencePch:
    @pytest.mark.parametrize("networked", [False, True])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_frozenset_filter(self, n, networked):
        for k in range(n + 1):
            program = binomial_program(n, k)
            atoms = list(range(1, n + 1))
            if networked:
                program, atoms = binomial_with_sorter(n, k)
            assert_matches_reference(program, card_propagator(atoms, k))

    def test_rules_deriving_choice_atoms_match_the_frozenset_filter(self):
        base = binomial_program(4, 2)
        program = type(base)(
            signature=base.signature | {5},
            rules=(rule(2, body=[1]), rule(5, body=[2, 3]), rule(4, body=[5]), *base.rules),
            weight_constraints=base.weight_constraints,
        )
        assert_matches_reference(program, card_propagator([1, 2, 3, 4], 2))

    def test_incomplete_history_matches_the_frozenset_filter(self):
        program, outputs = binomial_with_sorter(4, 1, 1)
        propagator = card_propagator(outputs, 3)
        assert not run_pch(program, propagator).complete
        assert_matches_reference(program, propagator)

    def test_fact_rules_and_rules_listed_before_their_premises(self):
        # 7 needs 6, which needs the fact 5 and a choice atom; the rules are
        # listed in the reverse of that order
        program = choice_program(
            4, normal_rules=(rule(7, body=[6, 2]), rule(6, body=[5, 1]), fact(5))
        )
        assert_matches_reference(program, card_propagator([5, 6, 7, 3, 4], 3))

    def test_nogoods_with_both_signs(self):
        program = choice_program(
            5,
            normal_rules=(rule(6, body=[4]),),
            nogoods=(
                nogood(true_atoms=[1], false_atoms=[2]),
                nogood(true_atoms=[6], false_atoms=[3]),
                nogood(false_atoms=[5]),
            ),
        )
        assert_matches_reference(program, card_propagator([1, 2, 3, 4, 5], 3))

    @pytest.mark.parametrize("bound", range(6))
    def test_cardinality_over_negated_derived_and_duplicated_literals(self, bound):
        # four distinct literals, so bound 0 always holds and 5 never does
        literals = (-1, 6, 6, -7, 2)
        program = choice_program(
            4,
            normal_rules=(rule(6, body=[1, 2]), rule(7, body=[3])),
            weight_constraints=(at_least(literals, bound),),
        )
        assert_matches_reference(program, card_propagator([1, 2, 3, 4], 2))

    def test_a_surviving_empty_choice_subset(self):
        # every nonempty subset is forbidden, so only the empty model is left
        program = choice_program(3, nogoods=[nogood(true_atoms=[a]) for a in (1, 2, 3)])
        assert run_pch(program, card_propagator([1, 2, 3], 0)).assignments == (frozenset(),)
        assert_matches_reference(program, card_propagator([1, 2, 3], 0))
        assert_matches_reference(program, card_propagator([1, 2, 3], 1))

    def test_no_atoms_at_all(self):
        program = choice_program(0)
        assert run_pch(program, card_propagator([], 0)).assignments == (frozenset(),)
        assert_matches_reference(program, card_propagator([], 0))


@pytest.mark.parametrize("budget", [0, 1, 100, 1 << 22])
def test_the_candidate_cost_check_refuses_what_the_exact_cost_passes(monkeypatch, budget):
    # past the budget's bit length the check neither builds nor prints 2^n
    monkeypatch.setattr(analysis, "CANDIDATE_COST_BUDGET", budget)
    for choice_atoms in range(40):
        for rules in (0, 1, 7, 1000):
            cost = (1 << choice_atoms) * (rules + choice_atoms)
            if cost <= budget:
                check_candidate_cost(choice_atoms, rules)
                continue
            if choice_atoms > budget.bit_length():
                about = f"2^{choice_atoms} x {rules + choice_atoms}"
            else:
                about = str(cost)
            with pytest.raises(SemanticsError) as refused:
                check_candidate_cost(choice_atoms, rules)
            assert str(refused.value) == (
                f"closing 2^{choice_atoms} choice subsets over {rules} rules "
                f"costs about {about} steps, over the budget of {budget}"
            )


class TestPchMemory:
    def test_full_sorter_at_fourteen_over_seven_keeps_candidates_as_lanes(self):
        # A set for each of the 9908 candidates peaked at 43 MB; only the
        # visited candidates become sets
        program, outputs = binomial_with_sorter(14, 7)
        propagator = card_propagator(outputs, 7)
        trace, peak = traced_peak(run_pch, program, propagator)
        assert trace.summary() == "m=8 complete=true"
        assert peak < 20 * 2**20
        expected = reference_pch(program, propagator)
        assert (trace.assignments, trace.nogoods, trace.complete) == expected


class TestNetworkedPch:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_sorter_outputs_cap_the_history_linearly(self, n):
        for k in range(1, n + 1):
            program, outputs = binomial_with_sorter(n, k)
            propagator = card_propagator(outputs, k)
            trace = run_pch(program, propagator)
            assert trace.complete
            assert trace.m <= n - k + 1, (n, k, trace.m)

    def test_distinct_first_output_positions_bound_the_learned_nogoods(self):
        n, k = 6, 3
        program, outputs = binomial_with_sorter(n, k)
        trace = run_pch(program, card_propagator(outputs, k))
        first_positions = {
            min(outputs.index(a) for a in ng)
            for ng in trace.nogoods
        }
        assert len(first_positions) == trace.m
        assert len(first_positions) <= n - k + 1

    def test_networked_trace_survives_post_hoc_validation(self):
        program, outputs = binomial_with_sorter(3, 2)
        propagator = card_propagator(outputs, 2)
        trace = run_pch(program, propagator)
        assert verify_trace(program, propagator, trace)
        assert trace.m <= 2

    def test_attached_rules_count_width_times_depth_plus_size(self):
        # the count the pch command checks against the budget before attaching
        for n in range(2, 13):
            for depth in (None, 0, 1, 3):
                network = oe_sorter(n, depth)
                program = binomial_program(n, n // 2)
                attached, _ = binomial_with_sorter(n, n // 2, depth)
                added = len(attached.rules) - len(program.rules)
                assert added == network.width * network.depth + network.size(), (n, depth)

    def test_attached_programs_are_well_formed(self):
        for n in range(9):
            for k in range(n + 2):
                attached, _ = binomial_with_sorter(n, k)
                assert_well_formed(attached)

    def test_wire_atoms_follow_the_inputs_and_the_last_column_is_returned(self):
        network = oe_sorter(5)
        attached, outputs = binomial_with_sorter(5, 2)
        last = 5 * network.depth
        assert outputs == range(last + 1, last + 6)
        assert attached.signature == frozenset(range(1, last + 6))

    def test_the_wire_block_starts_above_a_program_atom_past_the_inputs(self):
        # atoms 1..3 stay the inputs, and no wire atom shares atom 7
        network = oe_sorter(3)
        document = aspif.AspifDocument(
            statements=(
                aspif.Rule(aspif.CHOICE, (1, 7), aspif.NormalBody(())),
                aspif.Minimize(0, ((1, 1), (2, 1), (3, 1))),
            )
        )
        attached, outputs = attach_network(document, None)
        last = 7 + 3 * (network.depth - 1)
        assert outputs == range(last + 1, last + 4)
        assert attached.signature == frozenset({1, 2, 3, 7, *range(8, last + 4)})
        added = [rule for rule in attached.rules if not rule.choice]
        assert min(rule.head for rule in added) == 8
        assert {a for rule in added for a in rule.pos_body} >= {1, 2, 3}

    def test_a_network_without_levels_outputs_its_inputs(self):
        # depth 0 wires nothing, and one term is not wired at any depth
        attached, outputs = binomial_with_sorter(4, 2, 0)
        assert list(outputs) == [1, 2, 3, 4]
        assert attached == binomial_program(4, 2)
        attached, outputs = binomial_with_sorter(1, 1)
        assert list(outputs) == [1]
        assert attached == binomial_program(1, 1)

    def test_runs_programs_with_negation_over_their_answer_sets(self):
        # 9 :- not 1 puts 9 only in the answer set {2, 9}; closing the choice
        # subsets without the reduct would put 9 in every candidate
        program = binomial_program(2, 1)
        negated = type(program)(
            signature=program.signature | {9},
            rules=(rule(9, not_body=[1]), *program.rules),
            weight_constraints=program.weight_constraints,
        )
        propagator = card_propagator([1, 2], 1)
        trace = assert_walks_answer_sets(negated, propagator)
        assert trace.assignments == (frozenset({1}), frozenset({2, 9}))
        assert trace.assignments != reference_pch(negated, propagator)[0]

    def test_runs_choice_rules_with_bodies_over_their_answer_sets(self):
        # 2 is chosen only beside 1, so {2} is no candidate
        program = binomial_program(2, 1)
        guarded = type(program)(
            signature=program.signature,
            rules=(*choice([1]), *choice([2], body=[1])),
            weight_constraints=program.weight_constraints,
        )
        trace = assert_walks_answer_sets(guarded, card_propagator([1, 2], 1))
        assert trace.summary() == "m=1 complete=true"

    def test_runs_positive_cycles_over_their_answer_sets(self):
        # 8 and 9 support only each other, so no answer set holds them
        program = binomial_program(2, 1)
        cyclic = type(program)(
            signature=program.signature | {8, 9},
            rules=(rule(8, body=[9]), rule(9, body=[8]), *program.rules),
            weight_constraints=program.weight_constraints,
        )
        trace = assert_walks_answer_sets(cyclic, card_propagator([1, 2], 1))
        assert trace.assignments == (frozenset({1}), frozenset({2}))

    def test_runs_a_rule_that_needs_its_own_head_over_the_answer_sets(self):
        program = choice_program(
            2, normal_rules=(rule(8, body=[8, 1]),), weight_constraints=(at_least([1, 2], 1),)
        )
        trace = assert_walks_answer_sets(program, card_propagator([1, 2], 1))
        assert trace.assignments == (frozenset({1}), frozenset({2}))


@settings(max_examples=300)
@given(bridgeable_documents(), st.data())
def test_pch_walks_the_answer_sets_of_bridged_programs(document, data):
    # negation, choice bodies, weight constraints and nogoods all run
    program, _ = aspif.to_ground_program(document)
    atoms = sorted(program.signature) or [1]
    watched = data.draw(st.lists(st.sampled_from(atoms), max_size=4, unique=True))
    k = data.draw(st.integers(0, len(watched)))
    assert_walks_answer_sets(program, card_propagator(watched, k))
