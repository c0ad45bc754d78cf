import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optsort.asplang import (
    CardinalityConstraint,
    ChoiceRule,
    FreshAtoms,
    GroundProgram,
    Nogood,
    NormalRule,
    ObjectiveFunction,
    PositiveRules,
    SemanticsError,
    enumerate_answer_sets,
    enumerate_answer_sets_layered,
    enumerate_answer_sets_split,
    enumerate_supported_models,
    evaluate,
    expand_cardinality,
    expand_choice,
    fact,
    is_answer_set,
    least_model,
    neg,
    nogood,
    optimal_value,
    pos,
    reduct,
    rule,
)


def program(sig, rules=(), choices=(), cardinality=(), nogoods=()):
    return GroundProgram(
        frozenset(sig),
        tuple(rules),
        tuple(choices),
        tuple(cardinality),
        tuple(nogoods),
    )


def lex(models):
    return [sorted(m) for m in models]


class TestExpandChoice:
    def test_bare_choice_produces_the_three_rule_pattern(self):
        fresh = FreshAtoms(2)
        rules = expand_choice(ChoiceRule(frozenset({1})), fresh)
        trigger = 2
        complement = 3
        assert rules == [
            NormalRule(trigger),
            NormalRule(1, frozenset({trigger}), frozenset({complement})),
            NormalRule(complement, frozenset(), frozenset({1})),
        ]

    def test_rule_count_is_one_plus_twice_the_head(self):
        fresh = FreshAtoms(10)
        rules = expand_choice(
            ChoiceRule(frozenset({1, 2}), frozenset({pos(3)})), fresh
        )
        assert len(rules) == 5
        assert rules[0].pos_body == frozenset({3})

    def test_empty_body_gives_a_fact_trigger(self):
        fresh = FreshAtoms(5)
        rules = expand_choice(ChoiceRule(frozenset({1})), fresh)
        assert rules[0] == fact(5)

    def test_projection_matches_native_semantics(self):
        choice = ChoiceRule(frozenset({1, 2, 3}))
        constraint = CardinalityConstraint((pos(1), pos(2), pos(3)), 2)
        native = program({1, 2, 3}, choices=[choice], cardinality=[constraint])
        fresh = FreshAtoms(4)
        rules = expand_choice(choice, fresh)
        expanded = program(
            range(1, fresh.next_id), rules=rules, cardinality=[constraint]
        )
        projected = sorted(
            {m & {1, 2, 3} for m in enumerate_answer_sets(expanded)},
            key=lambda m: tuple(sorted(m)),
        )
        assert projected == enumerate_answer_sets(native)


class TestExpandCardinality:
    def test_two_of_three(self):
        constraint = CardinalityConstraint((pos(1), pos(2), pos(3)), 2)
        assert sorted(ng.signed_literals for ng in expand_cardinality(constraint)) == [
            frozenset({(1, False), (2, False)}),
            frozenset({(1, False), (3, False)}),
            frozenset({(2, False), (3, False)}),
        ]

    def test_zero_bound_needs_nothing(self):
        assert expand_cardinality(CardinalityConstraint((pos(1), pos(2)), 0)) == []

    def test_full_bound_gives_singletons(self):
        nogoods = expand_cardinality(CardinalityConstraint((pos(1), pos(2)), 2))
        assert [len(ng.signed_literals) for ng in nogoods] == [1, 1]

    def test_negated_literals_flip_the_sign(self):
        nogoods = expand_cardinality(CardinalityConstraint((neg(1),), 1))
        assert nogoods == [Nogood(frozenset({(1, True)}))]

    def test_explosion_guard(self):
        literals = tuple(pos(a) for a in range(1, 40))
        with pytest.raises(SemanticsError):
            expand_cardinality(CardinalityConstraint(literals, 20), guard=1000)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (4, 4), (5, 3)])
    def test_agrees_with_semantic_count(self, n, k):
        atoms = frozenset(range(1, n + 1))
        constraint = CardinalityConstraint(tuple(pos(a) for a in sorted(atoms)), k)
        semantic = program(atoms, choices=[ChoiceRule(atoms)], cardinality=[constraint])
        material = program(
            atoms, choices=[ChoiceRule(atoms)], nogoods=expand_cardinality(constraint)
        )
        assert enumerate_answer_sets(semantic) == enumerate_answer_sets(material)


class TestReduct:
    def test_blocked_negation_is_dropped(self):
        p = program({1, 2}, rules=[rule(1, not_body=[2])])
        assert reduct(p, frozenset({1})) == [NormalRule(1)]
        assert reduct(p, frozenset({2})) == []

    def test_self_blocking_rule(self):
        p = program({1}, rules=[rule(1, not_body=[1])])
        assert reduct(p, frozenset({1})) == []

    def test_positive_body_is_kept(self):
        p = program({1, 2, 3}, rules=[rule(1, body=[2], not_body=[3])])
        assert reduct(p, frozenset()) == [NormalRule(1, frozenset({2}))]

    def test_requires_expanded_choices(self):
        p = program({1}, choices=[ChoiceRule(frozenset({1}))])
        with pytest.raises(SemanticsError):
            reduct(p, frozenset())


def naive_fixpoint(rules):
    model: set[int] = set()
    while True:
        derived = {head for head, body in rules if body <= model}
        if derived <= model:
            return frozenset(model)
        model |= derived


positive_rules = st.lists(
    st.tuples(st.integers(1, 8), st.frozensets(st.integers(1, 8), max_size=3)),
    max_size=12,
)


class TestPositiveRules:
    def test_compiled_rules_close_many_fact_sets_independently(self):
        compiled = PositiveRules([(3, frozenset({1, 2}))])
        assert compiled.closure([1]) == frozenset({1})
        assert compiled.closure([1, 2]) == frozenset({1, 2, 3})
        assert compiled.closure([2]) == frozenset({2})

    @given(positive_rules, st.frozensets(st.integers(1, 8), max_size=4))
    @settings(max_examples=200)
    def test_closure_with_facts_is_the_least_model_with_fact_rules(self, rules, facts):
        with_facts = rules + [(a, frozenset()) for a in facts]
        expected = naive_fixpoint(with_facts)
        assert PositiveRules(rules).closure(facts) == least_model(with_facts) == expected


class TestAnswerSets:
    def test_even_negative_loop_has_two_answer_sets(self):
        p = program({1, 2}, rules=[rule(1, not_body=[2]), rule(2, not_body=[1])])
        assert is_answer_set(p, frozenset({1}))
        assert lex(enumerate_answer_sets(p)) == [[1], [2]]

    def test_self_supporting_atom_is_unfounded(self):
        p = program({1}, rules=[rule(1, body=[1])])
        assert not is_answer_set(p, frozenset({1}))
        assert enumerate_answer_sets(p) == [frozenset()]

    def test_nogood_rejects_a_fact(self):
        p = program({1}, rules=[fact(1)], nogoods=[nogood(true_atoms=[1])])
        assert not is_answer_set(p, frozenset({1}))
        assert enumerate_answer_sets(p) == []

    def test_odd_loop_has_no_answer_sets(self):
        p = program({1}, rules=[rule(1, not_body=[1])])
        assert enumerate_answer_sets(p) == []

    def test_empty_program(self):
        assert enumerate_answer_sets(program(set())) == [frozenset()]

    def test_choice_generates_all_justified_subsets(self):
        p = program({1, 2}, choices=[ChoiceRule(frozenset({1, 2}))])
        assert lex(enumerate_answer_sets(p)) == [[], [1], [1, 2], [2]]

    def test_guard_rejects_oversized_programs(self):
        atoms = frozenset(range(1, 26))
        p = program(atoms, choices=[ChoiceRule(atoms)])
        with pytest.raises(SemanticsError):
            enumerate_answer_sets(p)

    def test_nogood_rejects_two_signed_atoms(self):
        with pytest.raises(SemanticsError):
            Nogood(frozenset({(1, True), (1, False)}))


class TestSupportedModels:
    def test_self_support_is_allowed(self):
        p = program({1}, rules=[rule(1, body=[1])])
        assert lex(enumerate_supported_models(p)) == [[], [1]]

    def test_choice_supports_any_subset(self):
        p = program({1, 2, 3}, choices=[ChoiceRule(frozenset({1, 2, 3}))])
        assert len(enumerate_supported_models(p)) == 8

    @pytest.mark.parametrize("seed", range(12))
    def test_answer_sets_are_supported(self, seed):
        rng = random.Random(seed)
        atoms = frozenset(range(1, rng.randint(2, 6)))
        rules = []
        for _ in range(rng.randint(1, 5)):
            head = rng.choice(sorted(atoms))
            body = set(rng.sample(sorted(atoms), k=rng.randint(0, 2))) - {head}
            not_body = set(rng.sample(sorted(atoms), k=rng.randint(0, 1)))
            rules.append(rule(head, body, not_body))
        choices = (
            [ChoiceRule(frozenset(rng.sample(sorted(atoms), k=2)))]
            if len(atoms) >= 2 and rng.random() < 0.5
            else []
        )
        p = program(atoms, rules=rules, choices=choices)
        assert set(enumerate_answer_sets(p)) <= set(enumerate_supported_models(p))


class TestMonotoneNogoods:
    @pytest.mark.parametrize("seed", range(10))
    def test_adding_nogoods_filters_answer_sets(self, seed):
        rng = random.Random(100 + seed)
        atoms = frozenset(range(1, 5))
        p = program(
            atoms,
            rules=[rule(4, body=[1], not_body=[2])],
            choices=[ChoiceRule(frozenset({1, 2, 3}))],
        )
        extra = []
        for _ in range(rng.randint(1, 3)):
            signed = frozenset(
                (a, rng.random() < 0.5) for a in rng.sample(sorted(atoms), k=2)
            )
            if len({x for x, _ in signed}) == 2:
                extra.append(Nogood(signed))
        constrained = program(
            atoms,
            rules=p.normal_rules,
            choices=p.choice_rules,
            nogoods=extra,
        )
        expected = [
            m
            for m in enumerate_answer_sets(p)
            if all(ng.satisfied_by(m) for ng in extra)
        ]
        assert enumerate_answer_sets(constrained) == expected


class TestSplitEnumeration:
    @pytest.mark.parametrize("seed", range(25))
    def test_split_equals_direct_on_layered_programs(self, seed):
        rng = random.Random(seed)
        n_bottom, n_top = rng.randint(1, 4), rng.randint(1, 3)
        bottom = frozenset(range(1, n_bottom + 1))
        top = frozenset(range(n_bottom + 1, n_bottom + n_top + 1))
        rules = []
        for t in sorted(top):
            pool = sorted(bottom | {a for a in top if a < t})
            body = rng.sample(pool, k=rng.randint(0, min(2, len(pool))))
            not_body = rng.sample(sorted(bottom), k=rng.randint(0, 1))
            rules.append(rule(t, body, not_body))
        p = program(bottom | top, rules=rules, choices=[ChoiceRule(bottom)])
        assert enumerate_answer_sets_split(p, bottom) == enumerate_answer_sets(p)

    @pytest.mark.parametrize("seed", range(40))
    def test_split_equals_direct_with_straddling_constraints(self, seed):
        # upper rules mix positive and negated bottom atoms with positive
        # upper atoms, cycles included; constraints straddle the split
        rng = random.Random(1000 + seed)
        n_bottom, n_top = rng.randint(2, 5), rng.randint(1, 4)
        bottom = frozenset(range(1, n_bottom + 1))
        top = frozenset(range(n_bottom + 1, n_bottom + n_top + 1))
        everything = sorted(bottom | top)
        free = frozenset(rng.sample(sorted(bottom), k=rng.randint(1, n_bottom)))
        rules = [
            rule(b, rng.sample(sorted(free), k=1), rng.sample(sorted(free), k=1))
            for b in sorted(bottom - free)
        ]
        for _ in range(rng.randint(n_top, 2 * n_top + 2)):
            body = rng.sample(everything, k=rng.randint(0, 3))
            not_body = rng.sample(sorted(bottom), k=rng.randint(0, 2))
            rules.append(rule(rng.choice(sorted(top)), body, not_body))
        cardinality = []
        for _ in range(rng.randint(0, 2)):
            picked = rng.sample(everything, k=rng.randint(2, min(4, len(everything))))
            lits = tuple(pos(a) if rng.random() < 0.6 else neg(a) for a in picked)
            bound = rng.randint(1, len(lits) - 1)
            cardinality.append(CardinalityConstraint(lits, bound))
        nogoods = []
        for _ in range(rng.randint(0, 2)):
            atoms = rng.sample(everything, k=rng.randint(2, 3))
            nogoods.append(Nogood(frozenset((a, rng.random() < 0.5) for a in atoms)))
        p = program(
            bottom | top,
            rules=rules,
            choices=[ChoiceRule(free)],
            cardinality=cardinality,
            nogoods=nogoods,
        )
        direct = enumerate_answer_sets(p)
        assert enumerate_answer_sets_split(p, bottom) == direct
        assert enumerate_answer_sets_layered(p) == direct

    def test_split_refuses_an_upper_choice_rule(self):
        p = program(
            {1, 2},
            choices=[
                ChoiceRule(frozenset({1})),
                ChoiceRule(frozenset({2}), frozenset({pos(1)})),
            ],
        )
        with pytest.raises(SemanticsError, match="above the splitting set"):
            enumerate_answer_sets_split(p, frozenset({1}))

    def test_split_refuses_a_negated_upper_atom(self):
        p = program(
            {1, 2, 3},
            rules=[rule(2, body=[1], not_body=[3]), rule(3, not_body=[2])],
            choices=[ChoiceRule(frozenset({1}))],
        )
        with pytest.raises(SemanticsError, match="negates atoms"):
            enumerate_answer_sets_split(p, frozenset({1}))

    def test_layered_enumeration_matches_direct(self):
        p = program(
            {1, 2, 3, 4},
            rules=[rule(3, body=[1]), rule(4, body=[3, 2])],
            choices=[ChoiceRule(frozenset({1, 2}))],
        )
        assert enumerate_answer_sets_layered(p) == enumerate_answer_sets(p)

    def test_split_rejects_leaky_bottom(self):
        p = program({1, 2}, rules=[rule(1, body=[2]), rule(2)])
        with pytest.raises(SemanticsError):
            enumerate_answer_sets_split(p, frozenset({1}))

    def test_straddling_nogoods_filter_combined_models(self):
        p = program(
            {1, 2},
            rules=[rule(2, body=[1])],
            choices=[ChoiceRule(frozenset({1}))],
            nogoods=[nogood(true_atoms=[2])],
        )
        assert enumerate_answer_sets_split(p, frozenset({1})) == [frozenset()]


class TestObjectives:
    def test_weighted_sum_over_satisfied_literals(self):
        objective = ObjectiveFunction(((40, pos(1)), (70, pos(2))))
        assert evaluate(objective, frozenset({2})) == 70
        assert evaluate(objective, frozenset()) == 0

    def test_negated_literal_counts_when_atom_is_absent(self):
        assert evaluate(ObjectiveFunction(((30, neg(1)),)), frozenset()) == 30

    def test_optimal_value_over_subsets(self):
        atoms = frozenset(range(1, 5))
        p = program(
            atoms,
            choices=[ChoiceRule(atoms)],
            cardinality=[CardinalityConstraint(tuple(pos(a) for a in sorted(atoms)), 2)],
        )
        objective = ObjectiveFunction(tuple((1, pos(a)) for a in sorted(atoms)))
        assert optimal_value(p, objective) == 2

    def test_no_answer_sets_means_no_value(self):
        p = program({1}, rules=[rule(1, not_body=[1])])
        assert optimal_value(p, ObjectiveFunction(())) is None

    def test_empty_objective_is_zero(self):
        p = program({1}, rules=[fact(1)])
        assert optimal_value(p, ObjectiveFunction(())) == 0
