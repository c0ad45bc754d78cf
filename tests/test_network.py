import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optsort.network import (
    Comparator,
    ConfinedNetwork,
    Decomposition,
    NetworkError,
    apply,
    decompose_sparse,
    limit_depth,
    new_network,
    oe_sorter,
    permutation_of,
    render_diagram,
    whole_network_decomposition,
)

from conftest import (
    FIG_COMPARATORS,
    binary_vectors,
    covers,
    decompose_sparse_rescan,
    random_network,
)


class TestConstruction:
    def test_four_wire_sorter_is_accepted(self, four_wire_sorter):
        assert four_wire_sorter.width == 4
        assert four_wire_sorter.depth == 3
        assert four_wire_sorter.size() == 5

    def test_empty_network(self):
        net = new_network(3, 0, [])
        assert net.depth == 0 and net.size() == 0

    def test_duplicates_are_dropped(self):
        net = new_network(2, 1, [(1, 2, 1), (1, 2, 1)])
        assert net.size() == 1

    @pytest.mark.parametrize(
        "comparators",
        [
            [(2, 1, 1)],  # i >= j
            [(1, 1, 1)],
            [(1, 5, 1)],  # wire out of range
            [(1, 2, 0)],  # level out of range
            [(1, 2, 2)],
            [(1, 2, 1), (2, 3, 1)],  # overlap on one level
        ],
    )
    def test_rejects_malformed(self, comparators):
        with pytest.raises(NetworkError):
            new_network(4, 1, comparators)


class TestApply:
    def test_traces_all_columns(self, four_wire_sorter):
        values = apply(four_wire_sorter, [2, 3, 4, 1])
        assert [values.column(l) for l in range(4)] == [
            [2, 3, 4, 1],
            [2, 3, 1, 4],
            [1, 3, 2, 4],
            [1, 2, 3, 4],
        ]

    def test_sorts_binary_input(self, four_wire_sorter):
        assert apply(four_wire_sorter, [0, 1, 1, 0]).output() == [0, 0, 1, 1]

    def test_empty_network_is_identity(self):
        values = apply(new_network(2, 0, []), [5, 1])
        assert values.rows == ((5,), (1,))

    def test_length_mismatch(self, four_wire_sorter):
        with pytest.raises(NetworkError):
            apply(four_wire_sorter, [1, 2, 3])

    @given(st.lists(st.integers(-50, 50), min_size=5, max_size=5), st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_each_column_is_a_permutation_of_the_input(self, vector, seed):
        net = random_network(random.Random(seed), 5, 4)
        values = apply(net, vector)
        for level in range(net.depth + 1):
            assert sorted(values.column(level)) == sorted(vector)


class TestPermutation:
    def test_traced_example(self, four_wire_sorter):
        sigma = permutation_of(four_wire_sorter, [2, 3, 4, 1])
        assert sigma == [2, 3, 4, 1]
        assert sigma[3] == 1

    def test_identity_on_empty_network(self):
        assert permutation_of(new_network(3, 0, []), [7, 7, 2]) == [1, 2, 3]

    def test_stable_tie_break(self):
        net = new_network(2, 1, [(1, 2, 1)])
        assert permutation_of(net, [7, 7]) == [1, 2]

    @given(st.lists(st.integers(0, 5), min_size=6, max_size=6), st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_maps_inputs_onto_outputs(self, vector, seed):
        net = random_network(random.Random(seed), 6, 3)
        sigma = permutation_of(net, vector)
        output = apply(net, vector).output()
        assert sorted(sigma) == list(range(1, 7))
        for i, value in enumerate(vector):
            assert value == output[sigma[i] - 1]


class TestOddEvenSorter:
    def test_four_wires_gives_the_classic_network(self, four_wire_sorter):
        assert set(oe_sorter(4).comparators) == {Comparator(*c) for c in FIG_COMPARATORS}
        assert oe_sorter(4).depth == 3

    def test_single_wire_is_empty(self):
        assert oe_sorter(1).size() == 0
        assert oe_sorter(0).size() == 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sorts_every_binary_vector(self, n):
        net = oe_sorter(n)
        for vector in binary_vectors(n):
            output = apply(net, vector).output()
            assert output == sorted(vector), (n, vector)

    def test_depth_grows_quadratically_in_log(self):
        for n, expected in [(2, 1), (4, 3), (8, 6), (16, 10)]:
            assert oe_sorter(n).depth == expected

    @pytest.mark.parametrize("n", range(0, 131))
    def test_pruned_build_equals_the_trimmed_full_sorter(self, n):
        full = oe_sorter(n)
        assert full.depth == max((c.level for c in full.comparators), default=0)
        for d in range(full.depth + 3):
            assert oe_sorter(n, d) == limit_depth(full, d), (n, d)

    @pytest.mark.parametrize("n", [1000, 1025, 2048, 4096])
    def test_pruned_build_equals_the_trimmed_full_sorter_when_wide(self, n):
        full = oe_sorter(n)
        for d in (1, 5, 8, 13, full.depth):
            assert oe_sorter(n, d) == limit_depth(full, d), (n, d)

    def test_negative_depth_is_refused(self):
        with pytest.raises(NetworkError):
            oe_sorter(5, -1)


class TestLimitDepth:
    def test_keeps_only_early_levels(self, four_wire_sorter):
        limited = limit_depth(four_wire_sorter, 1)
        assert set(limited.comparators) == {Comparator(1, 2, 1), Comparator(3, 4, 1)}
        assert limited.depth == 1

    def test_zero_limit_gives_empty_network(self, four_wire_sorter):
        limited = limit_depth(four_wire_sorter, 0)
        assert limited.size() == 0 and limited.depth == 0
        assert limited.width == 4

    def test_large_limit_is_identity(self, four_wire_sorter):
        assert limit_depth(four_wire_sorter, 99) == four_wire_sorter

    @pytest.mark.parametrize("a,b", [(0, 2), (1, 2), (2, 3), (3, 6)])
    def test_monotone_composition(self, a, b):
        net = oe_sorter(6)
        assert limit_depth(net, a) == limit_depth(limit_depth(net, b), a)


class TestDecomposeSparse:
    def _ten_wire_network(self):
        return new_network(
            10,
            6,
            [
                (1, 2, 1), (4, 5, 1), (6, 7, 1), (8, 9, 1),
                (2, 3, 2), (6, 8, 2), (7, 10, 2),
                (1, 4, 3), (7, 8, 3), (9, 10, 3), (3, 5, 3),
                (2, 4, 4), (6, 7, 4), (8, 9, 4),
                (1, 2, 5), (3, 4, 5), (7, 8, 5),
                (3, 7, 6),
            ],
        )

    def test_level_blocks_and_wire_groups(self):
        # The comparator-free wires of the last block form one extra group.
        net = self._ten_wire_network()
        parts = [
            ((c.min_level, c.max_level), sorted(c.wires))
            for c in decompose_sparse(net, 2).components
        ]
        assert parts == [
            ((1, 2), [1, 2, 3]),
            ((1, 2), [4, 5]),
            ((1, 2), [6, 7, 8, 9, 10]),
            ((3, 4), [1, 2, 4]),
            ((3, 4), [3, 5]),
            ((3, 4), [6, 7, 8, 9, 10]),
            ((5, 6), [1, 2]),
            ((5, 6), [3, 4, 7, 8]),
            ((5, 6), [5, 6, 9, 10]),
        ]

    def test_large_factor_spans_connected_network(self):
        net = oe_sorter(6)
        parts = decompose_sparse(net, net.depth).components
        assert len(parts) == 1
        assert parts[0].wires == frozenset(range(1, 7))
        assert (parts[0].min_level, parts[0].max_level) == (1, net.depth)

    def test_unit_factor_isolates_every_comparator(self, four_wire_sorter):
        parts = decompose_sparse(four_wire_sorter, 1).components
        gate_parts = [c for c in parts if c.network.comparators]
        inert_parts = [c for c in parts if not c.network.comparators]
        assert len(gate_parts) == four_wire_sorter.size()
        assert all(len(c.network.comparators) == 1 for c in gate_parts)
        # only the last layer leaves wires untouched (1 and 4)
        assert [(c.min_level, sorted(c.wires)) for c in inert_parts] == [(3, [1, 4])]

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_partition_covers_and_is_ordered(self, k):
        rng = random.Random(k)
        net = random_network(rng, 7, 5)
        decomposition = decompose_sparse(net, k)
        assert covers(decomposition, net)
        seen = set()
        for component in decomposition.components:
            gates = set(component.network.comparators)
            assert not gates & seen
            seen |= gates

    @pytest.mark.parametrize("n", range(0, 41))
    def test_matches_the_per_component_rescan(self, n):
        full = oe_sorter(n)
        for d in range(full.depth + 1):
            prefix = limit_depth(full, d)
            for k in {1, 2, 3, max(prefix.depth, 1)}:
                expected = decompose_sparse_rescan(prefix, k)
                assert decompose_sparse(prefix, k) == expected, (n, d, k)

    def test_empty_depth_network_has_no_components(self):
        assert decompose_sparse(new_network(3, 0, []), 2).components == ()

    def test_rejects_bad_factor(self, four_wire_sorter):
        with pytest.raises(NetworkError):
            decompose_sparse(four_wire_sorter, 0)


class TestDecompositionValidation:
    def test_rejects_overlapping_components(self, four_wire_sorter):
        a = ConfinedNetwork(limit_depth(four_wire_sorter, 1), frozenset({1, 2, 3, 4}), 1, 1)
        with pytest.raises(NetworkError):
            Decomposition((a, a))

    def test_rejects_misordered_components(self):
        net = oe_sorter(4)
        early = ConfinedNetwork(limit_depth(net, 1), frozenset({1, 2, 3, 4}), 1, 1)
        late_gates = new_network(4, 3, [c for c in net.comparators if c.level > 1])
        late = ConfinedNetwork(late_gates, frozenset({1, 2, 3, 4}), 2, 3)
        Decomposition((early, late))
        with pytest.raises(NetworkError):
            Decomposition((late, early))

    def test_whole_network_decomposition_covers(self, four_wire_sorter):
        assert covers(whole_network_decomposition(four_wire_sorter), four_wire_sorter)


GOLDEN_FOUR_WIRE = "\n".join(
    [
        "-o-o------",
        "-o-+-o-o--",
        "-o-o-+-o--",
        "-o---o----",
    ]
)

GOLDEN_LABELED = "\n".join(
    [
        "-40-o--",
        "-50-o--",
    ]
)


class TestRenderDiagram:
    def test_empty_two_wire_network(self):
        assert render_diagram(new_network(2, 0, [])) == "--\n--"

    def test_four_wire_golden(self, four_wire_sorter):
        drawing = render_diagram(four_wire_sorter)
        assert drawing == GOLDEN_FOUR_WIRE
        assert len(drawing.split("\n")) == 4

    def test_input_labels_sit_left_of_the_gate(self):
        net = new_network(2, 1, [(1, 2, 1)])
        drawing = render_diagram(net, {(1, 0): "40", (2, 0): "50"})
        assert drawing == GOLDEN_LABELED

    def test_out_of_range_label_is_rejected(self, four_wire_sorter):
        with pytest.raises(NetworkError):
            render_diagram(four_wire_sorter, {(5, 0): "x"})
