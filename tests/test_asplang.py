import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optsort.asplang import (
    GroundProgram,
    LaneRule,
    Nogood,
    SemanticsError,
    WeightConstraint,
    answer_lanes,
    enumerate_answer_sets_layered,
    enumerate_answer_sets_split,
    guessed_atoms,
    in_sorted_order,
    lane_sum,
    least_model,
)

from conftest import (
    at_least,
    choice,
    closure,
    constraint_atoms,
    constraint_holds,
    enumerate_answer_sets,
    evaluate,
    fact,
    is_answer_set,
    is_supported_model,
    models_as_lanes,
    nogood,
    nogood_holds,
    optimal_value,
    lane_models,
    literal_holds,
    rule,
    signed_literals,
    weight_terms,
)


def program(sig, rules=(), choices=(), weights=(), nogoods=()):
    return GroundProgram(frozenset(sig), (*rules, *choices), tuple(weights), tuple(nogoods))


def lex(models):
    return [sorted(m) for m in models]


def answer_sets(p):
    """The lane enumerator's answer sets, once the brute-force oracle agrees."""
    models = lane_models(enumerate_answer_sets_layered(p))
    assert models == enumerate_answer_sets(p)
    return models


def part_below(p, bottom):
    """The rules defining the bottom atoms, the choice rules and the constraints over the bottom alone."""
    return program(
        bottom,
        [r for r in p.rules if r.choice or r.head in bottom],
        weights=[wc for wc in p.weight_constraints if constraint_atoms(wc) <= bottom],
        nogoods=[ng for ng in p.nogoods if constraint_atoms(ng) <= bottom],
    )


def split_lanes(p, bottom):
    """The answer lanes of p guessed as the oracle's answer sets of its part below ``bottom``."""
    return answer_lanes(p, models_as_lanes(enumerate_answer_sets(part_below(p, bottom)), bottom))


class TestExpandCardinality:
    """Counting what a cardinality constraint admits, without expanding it."""

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (4, 4), (5, 3)])
    def test_agrees_with_semantic_count(self, n, k):
        # a free choice kept to at least k of n atoms has one answer set per
        # subset of size k or more: the binomial tail sum_{j >= k} C(n, j)
        atoms = frozenset(range(1, n + 1))
        p = program(atoms, choices=choice(atoms), weights=[at_least(atoms, k)])
        models = answer_sets(p)
        assert len(models) == sum(math.comb(n, j) for j in range(k, n + 1))
        assert all(len(m) >= k for m in models)


positive_rules = st.lists(
    st.tuples(st.integers(1, 8), st.frozensets(st.integers(1, 8), max_size=3)),
    max_size=12,
)


def lane_closures(rules, fact_sets):
    """``least_model`` of the rules with fact set i as lane i, one model per lane."""
    all_lanes = (1 << len(fact_sets)) - 1
    lane_rules = [LaneRule(head, body, all_lanes) for head, body in rules]
    for i, facts in enumerate(fact_sets):
        lane_rules += [LaneRule(a, frozenset(), 1 << i) for a in facts]
    true_in = least_model(lane_rules)
    return [
        frozenset(a for a, lanes in true_in.items() if lanes >> i & 1)
        for i in range(len(fact_sets))
    ]


class TestPositiveRules:
    def test_compiled_rules_close_many_fact_sets_independently(self):
        rules = [(3, frozenset({1, 2}))]
        assert lane_closures(rules, [{1}, {1, 2}, {2}]) == [
            frozenset({1}),
            frozenset({1, 2, 3}),
            frozenset({2}),
        ]

    @given(
        positive_rules,
        st.lists(st.frozensets(st.integers(1, 8), max_size=4), min_size=1, max_size=6),
    )
    @settings(max_examples=200)
    def test_closure_with_facts_is_the_least_model_with_fact_rules(self, rules, fact_sets):
        # random bodies over eight atoms close plenty of positive cycles
        expected = [closure(rules + [(a, frozenset()) for a in facts]) for facts in fact_sets]
        assert lane_closures(rules, fact_sets) == expected

    def test_a_copy_rule_shares_its_body_atoms_lane_vector(self):
        # a head derived exactly where its one body atom holds gets that
        # atom's int, not an equal copy; the vectors are wider than the ints
        # that Python caches
        everything = (1 << 100) - 1
        held = (1 << 99) | (1 << 50) | 1
        true_in = least_model(
            [
                LaneRule(1, frozenset(), held),
                LaneRule(2, frozenset({1}), everything),
                LaneRule(3, frozenset({2}), everything),
                LaneRule(4, frozenset({1}), everything ^ 1),
            ]
        )
        assert true_in[1] is held and true_in[2] is held and true_in[3] is held
        assert true_in[4] == held ^ 1


class TestAnswerSets:
    def test_even_negative_loop_has_two_answer_sets(self):
        p = program({1, 2}, rules=[rule(1, not_body=[2]), rule(2, not_body=[1])])
        assert is_answer_set(p, frozenset({1}))
        assert lex(answer_sets(p)) == [[1], [2]]

    def test_self_supporting_atom_is_unfounded(self):
        p = program({1}, rules=[rule(1, body=[1])])
        assert not is_answer_set(p, frozenset({1}))
        assert answer_sets(p) == [frozenset()]

    def test_nogood_rejects_a_fact(self):
        p = program({1}, rules=[fact(1)], nogoods=[nogood(true_atoms=[1])])
        assert not is_answer_set(p, frozenset({1}))
        assert answer_sets(p) == []

    def test_odd_loop_has_no_answer_sets(self):
        p = program({1}, rules=[rule(1, not_body=[1])])
        assert answer_sets(p) == []

    def test_empty_program(self):
        assert answer_sets(program(set())) == [frozenset()]

    def test_choice_generates_all_justified_subsets(self):
        p = program({1, 2}, choices=choice({1, 2}))
        assert lex(answer_sets(p)) == [[], [1], [1, 2], [2]]

    def test_guard_rejects_oversized_programs(self):
        atoms = frozenset(range(1, 26))
        p = program(atoms, choices=choice(atoms))
        with pytest.raises(SemanticsError, match="25 atoms exceed the brute-force guard of 24"):
            enumerate_answer_sets_layered(p)


class TestSupportedModels:
    def test_self_support_is_allowed(self):
        p = program({1}, rules=[rule(1, body=[1])])
        assert is_supported_model(p, frozenset())
        assert is_supported_model(p, frozenset({1}))

    def test_choice_supports_any_subset(self):
        atoms = [1, 2, 3]
        p = program(atoms, choices=choice(atoms))
        subsets = [frozenset(s) for size in range(4) for s in itertools.combinations(atoms, size)]
        assert all(is_supported_model(p, s) for s in subsets)

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
            choice(rng.sample(sorted(atoms), k=2))
            if len(atoms) >= 2 and rng.random() < 0.5
            else []
        )
        p = program(atoms, rules=rules, choices=choices)
        assert all(is_supported_model(p, m) for m in answer_sets(p))


class TestMonotoneNogoods:
    @pytest.mark.parametrize("seed", range(10))
    def test_adding_nogoods_filters_answer_sets(self, seed):
        rng = random.Random(100 + seed)
        atoms = frozenset(range(1, 5))
        p = program(
            atoms,
            rules=[rule(4, body=[1], not_body=[2])],
            choices=choice({1, 2, 3}),
        )
        extra = []
        for _ in range(rng.randint(1, 3)):
            signed = frozenset(
                a if rng.random() < 0.5 else -a for a in rng.sample(sorted(atoms), k=2)
            )
            if len({abs(x) for x in signed}) == 2:
                extra.append(Nogood(signed))
        constrained = program(
            atoms,
            rules=p.rules,
            nogoods=extra,
        )
        expected = [
            m
            for m in answer_sets(p)
            if all(nogood_holds(ng, m) for ng in extra)
        ]
        assert answer_sets(constrained) == expected


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
        p = program(bottom | top, rules=rules, choices=choice(bottom))
        direct = enumerate_answer_sets(p)
        assert lane_models(enumerate_answer_sets_split(p)) == direct
        assert lane_models(split_lanes(p, bottom)) == direct

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
        weights = []
        for _ in range(rng.randint(0, 2)):
            picked = rng.sample(everything, k=rng.randint(2, min(4, len(everything))))
            lits = tuple(a if rng.random() < 0.6 else -a for a in picked)
            weights.append(at_least(lits, rng.randint(1, len(lits) - 1)))
        nogoods = []
        for _ in range(rng.randint(0, 2)):
            atoms = rng.sample(everything, k=rng.randint(2, 3))
            nogoods.append(Nogood(frozenset(a if rng.random() < 0.5 else -a for a in atoms)))
        p = program(
            bottom | top,
            rules=rules,
            choices=choice(free),
            weights=weights,
            nogoods=nogoods,
        )
        direct = enumerate_answer_sets(p)
        assert lane_models(enumerate_answer_sets_split(p)) == direct
        assert lane_models(split_lanes(p, bottom)) == direct

    def test_answer_sets_keep_their_guess_lanes_under_the_answers_mask(self):
        # a free choice over four atoms kept to at least three: 16 guess
        # lanes, of which the five answer sets keep theirs, and no atom holds
        # a lane outside the mask
        atoms = frozenset(range(1, 5))
        p = program(
            atoms,
            choices=choice(atoms),
            weights=[at_least(atoms, 3)],
        )
        lanes, answers = enumerate_answer_sets_split(p)
        assert answers.bit_count() == 5 and answers.bit_length() == 16
        assert all(held and not held & ~answers for held in lanes.values())
        assert lane_models((lanes, answers)) == enumerate_answer_sets(p)

    def test_split_refuses_an_upper_choice_rule(self):
        # a choice head read by a later choice body must be guessed; a given
        # guess over atom 1 alone leaves it out, guessing over the whole
        # program takes the program
        p = program(
            {1, 2},
            choices=[*choice([1]), *choice([2], body=[1])],
        )
        with pytest.raises(
            SemanticsError, match=r"^the guess leaves out the guessed atoms \[2\]$"
        ):
            answer_lanes(p, models_as_lanes([frozenset(), {1}], {1}))
        assert lex(lane_models(answer_lanes(p))) == [[], [1], [1, 2]]
        assert lex(answer_sets(p)) == [[], [1], [1, 2]]

    def test_split_refuses_a_negated_upper_atom(self):
        # two derived atoms that negate each other must be guessed; a given
        # guess over atom 1 alone leaves them out, guessing over the whole
        # program takes the program
        p = program(
            {1, 2, 3},
            rules=[rule(2, body=[1], not_body=[3]), rule(3, not_body=[2])],
            choices=choice({1}),
        )
        with pytest.raises(
            SemanticsError, match=r"^the guess leaves out the guessed atoms \[2, 3\]$"
        ):
            answer_lanes(p, models_as_lanes([frozenset(), {1}], {1}))
        assert lex(lane_models(answer_lanes(p))) == [[1, 2], [1, 3], [3]]
        assert lex(answer_sets(p)) == [[1, 2], [1, 3], [3]]

    def test_layered_enumeration_matches_direct(self):
        p = program(
            {1, 2, 3, 4},
            rules=[rule(3, body=[1]), rule(4, body=[3, 2])],
            choices=choice({1, 2}),
        )
        assert lane_models(enumerate_answer_sets_layered(p)) == enumerate_answer_sets(p)

    def test_split_rejects_leaky_bottom(self):
        # atom 1 is derived from atom 2, outside the guess; the lane that
        # guesses 1 derives both, as the oracle's one answer set holds
        p = program({1, 2}, rules=[rule(1, body=[2]), rule(2)])
        assert lex(lane_models(answer_lanes(p, models_as_lanes([frozenset({1})], {1})))) == [[1, 2]]
        assert lex(answer_sets(p)) == [[1, 2]]

    def test_straddling_nogoods_filter_combined_models(self):
        p = program(
            {1, 2},
            rules=[rule(2, body=[1])],
            choices=choice({1}),
            nogoods=[nogood(true_atoms=[2])],
        )
        assert lane_models(enumerate_answer_sets_split(p)) == [frozenset()]


class TestObjectives:
    def test_weighted_sum_over_satisfied_literals(self):
        objective = ((1, 40), (2, 70))
        assert evaluate(objective, frozenset({2})) == 70
        assert evaluate(objective, frozenset()) == 0

    def test_negated_literal_counts_when_atom_is_absent(self):
        assert evaluate(((-1, 30),), frozenset()) == 30

    def test_optimal_value_over_subsets(self):
        atoms = frozenset(range(1, 5))
        p = program(
            atoms,
            choices=choice(atoms),
            weights=[at_least(atoms, 2)],
        )
        objective = tuple((a, 1) for a in sorted(atoms))
        assert optimal_value(p, objective) == 2

    def test_no_answer_sets_means_no_value(self):
        p = program({1}, rules=[rule(1, not_body=[1])])
        assert optimal_value(p, ()) is None

    def test_empty_objective_is_zero(self):
        p = program({1}, rules=[fact(1)])
        assert optimal_value(p, ()) == 0


_TERMS = st.tuples(
    signed_literals(st.integers(1, 6)),
    st.one_of(st.integers(-5, 9), st.integers(-(2**50), 2**50)),
)


@given(
    st.lists(st.frozensets(st.integers(1, 4)), min_size=1, max_size=9),
    st.lists(_TERMS, max_size=6),
)
def test_lane_values_match_the_per_model_oracle(models, terms):
    # atoms 5 and 6 are in no model: positive they hold in no lane, negated
    # in every lane; weights past 2^40 exercise the plane width and the sign
    lanes, everything = models_as_lanes(models, range(1, 7))
    planes = lane_sum([(lanes[l] if l > 0 else everything ^ lanes[-l], w) for l, w in terms])
    # the last plane is the sign, worth minus its place value
    decoded = [
        sum((plane >> i & 1) << b for b, plane in enumerate(planes))
        - ((planes[-1] >> i & 1) << len(planes))
        for i in range(len(models))
    ]
    assert decoded == [evaluate(tuple(terms), m) for m in models]
    assert not any(lane_sum([(0, w) for _, w in terms]))


@given(st.data())
def test_lane_sum_at_least_counter_matches_constraint_holds(data):
    lanes = data.draw(st.integers(1, 24))
    models = data.draw(
        st.lists(st.frozensets(st.integers(1, 5)), min_size=lanes, max_size=lanes)
    )
    literals = data.draw(st.lists(signed_literals(st.integers(1, 5))))
    count = [
        (sum(1 << i for i, m in enumerate(models) if literal_holds(l, m)), 1)
        for l in set(literals)
    ]
    for bound in range(len(count) + 2):
        # the count minus the bound has a clear sign plane where the bound is met
        sign = lane_sum([*count, ((1 << lanes) - 1, -bound)])[-1]
        constraint = at_least(literals, bound)
        assert [not sign >> i & 1 for i in range(lanes)] == [
            constraint_holds(constraint, m) for m in models
        ]


@given(st.data())
def test_in_sorted_order_walks_the_selected_models_by_their_sorted_atoms(data):
    # the empty model comes before every other, and a model before one that
    # extends it by a larger atom
    longer = data.draw(st.frozensets(st.integers(1, 5), min_size=2))
    others = data.draw(st.lists(st.frozensets(st.integers(1, 5)), max_size=8))
    distinct = dict.fromkeys([frozenset(), frozenset(sorted(longer)[:-1]), longer, *others])
    models = data.draw(st.permutations(list(distinct)))
    mask = data.draw(st.integers(1, (1 << len(models)) - 1))
    lanes, _ = models_as_lanes(models, range(1, 6))
    selected = [m for i, m in enumerate(models) if mask >> i & 1]
    walked = list(in_sorted_order(lanes, lambda: mask))
    assert walked == [(sorted(m), models.index(m)) for m in sorted(selected, key=sorted)]


def subsets(pool, most):
    return st.lists(st.sampled_from(pool), max_size=most, unique=True)


@st.composite
def constraints(draw, atoms):
    """Weight constraints and nogoods over the atoms."""
    literal = signed_literals(st.sampled_from(atoms))
    weights = [
        WeightConstraint(*draw(weight_terms(literal))) for _ in range(draw(st.integers(0, 2)))
    ]
    signs = st.dictionaries(st.sampled_from(atoms), st.booleans(), min_size=1, max_size=3)
    nogoods = [
        Nogood(frozenset(a if positive else -a for a, positive in draw(signs).items()))
        for _ in range(draw(st.integers(0, 2)))
    ]
    return weights, nogoods


@st.composite
def unsplit_programs(draw):
    """A program over atoms 1..n whose rules and choice rules range over every atom.

    Rules negate derived atoms and form positive cycles, and choice bodies
    read derived atoms of either sign, so no smaller splitting set helps.
    """
    atoms = list(range(1, draw(st.integers(1, 6)) + 1))
    literal = signed_literals(st.sampled_from(atoms))
    choices = []
    for _ in range(draw(st.integers(0, 2))):
        heads = draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=3))
        body = draw(st.lists(literal, max_size=2))
        choices += choice(heads, [l for l in body if l > 0], [-l for l in body if l < 0])
    rules = [
        rule(draw(st.sampled_from(atoms)), draw(subsets(atoms, 2)), draw(subsets(atoms, 2)))
        for _ in range(draw(st.integers(0, 6)))
    ]
    weights, nogoods = draw(constraints(atoms))
    return program(atoms, rules, choices, weights, nogoods)


@given(unsplit_programs())
@settings(max_examples=300, deadline=None)
def test_guessing_over_the_whole_program_matches_the_brute_force_oracle(p):
    assert lane_models(enumerate_answer_sets_split(p)) == enumerate_answer_sets(p)


@st.composite
def split_programs(draw):
    """A program over bottom atoms 1..b and upper atoms above them, with its bottom.

    Below: choice rules with positive and negative bodies, and normal rules
    with negation and positive cycles.  Above: rules over every atom, positive
    cycles included, that negate bottom atoms.  Nogoods and weight
    constraints range over every atom.
    """
    n_bottom, n_top = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    bottom = list(range(1, n_bottom + 1))
    everything = list(range(1, n_bottom + n_top + 1))
    choices = []
    for _ in range(draw(st.integers(0, 2))):
        heads = draw(st.lists(st.sampled_from(bottom), min_size=1, max_size=3, unique=True))
        choices += choice(heads, draw(subsets(bottom, 2)), draw(subsets(bottom, 2)))
    rules = [
        rule(draw(st.sampled_from(bottom)), draw(subsets(bottom, 2)), draw(subsets(bottom, 2)))
        for _ in range(draw(st.integers(0, 4)))
    ]
    rules += [
        rule(
            draw(st.sampled_from(everything[n_bottom:])),
            draw(subsets(everything, 3)),
            draw(subsets(bottom, 2)),
        )
        for _ in range(draw(st.integers(0, 2 * n_top)))
    ]
    weights, nogoods = draw(constraints(everything))
    p = program(everything, rules, choices, weights, nogoods)
    return p, frozenset(bottom)


@given(split_programs())
@settings(max_examples=300, deadline=None)
def test_lane_enumeration_matches_the_brute_force_oracle(case):
    # guessing over the whole program, or taking the answer sets of the part
    # below the split as the guess, gives the oracle's answer sets
    p, bottom = case
    expected = enumerate_answer_sets(p)
    assert lane_models(enumerate_answer_sets_layered(p)) == expected
    assert lane_models(split_lanes(p, bottom)) == expected
    # the enumerator's lanes of the part below, spread under its mask, too
    below_lanes, below = enumerate_answer_sets_split(part_below(p, bottom))
    given = ({a: below_lanes.get(a, 0) for a in bottom}, below)
    assert lane_models(answer_lanes(p, given)) == expected


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_a_given_guess_keeps_the_answer_sets_that_agree_with_one_of_its_lanes(data):
    # any atoms that cover the guessed ones, past the signature too, and any
    # models over them as the lanes, often an answer set's restriction
    p = data.draw(unsplit_programs())
    extra = data.draw(st.frozensets(st.integers(1, 8), max_size=4))
    atoms = sorted(set(guessed_atoms(p)) | extra)
    oracle = enumerate_answer_sets(p)
    model = st.frozensets(st.sampled_from(atoms)) if atoms else st.just(frozenset())
    if oracle:
        model |= st.sampled_from([m & set(atoms) for m in oracle])
    models = data.draw(st.lists(model, min_size=1, max_size=12, unique=True))
    expected = [m for m in oracle if m & set(atoms) in models]
    assert lane_models(answer_lanes(p, models_as_lanes(models, atoms))) == expected
