import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optsort.network import (
    ConfinedNetwork,
    Network,
    decompose_sparse,
    limit_depth,
    oe_sorter,
)
from optsort.propagate import (
    WeightError,
    WeightMatrix,
    from_input_weights,
    propagate_confined,
    propagate_decomposition,
    propagate_sparse,
)

from conftest import (
    binary_vectors,
    column,
    gate_triples,
    new_network,
    propagate_full,
    random_network,
    total,
    weight_function,
    whole_network_decomposition,
)


def random_matrix(rng, width, depth, top=40):
    rows = tuple(
        tuple(rng.randint(0, top) for _ in range(depth + 1)) for _ in range(width)
    )
    return WeightMatrix(width, depth, rows)


def random_confined_region(rng, net: Network) -> ConfinedNetwork:
    # A valid region is a union of connected components (plus optionally the
    # untouched wires) of some contiguous level window.
    lo = rng.randint(1, net.depth)
    hi = rng.randint(lo, net.depth)
    gates = [(i, j) for i, j, level in gate_triples(net) if lo <= level <= hi]
    parent = {w: w for w in range(1, net.width + 1)}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    for i, j in gates:
        parent[find(i)] = find(j)
    groups = {}
    for w in range(1, net.width + 1):
        groups.setdefault(find(w), set()).add(w)
    chosen: set[int] = set()
    for group in groups.values():
        if rng.random() < 0.6 or not chosen:
            chosen |= group
    return ConfinedNetwork(frozenset(chosen), lo, hi)


class TestConstruction:
    def test_input_weights_fill_column_zero(self):
        matrix = from_input_weights([40, 50, 90, 70], 3)
        assert column(matrix, 0) == [40, 50, 90, 70]
        assert all(column(matrix, j) == [0, 0, 0, 0] for j in range(1, 4))

    def test_empty_and_zero_matrices(self):
        assert from_input_weights([], 0).rows == ()
        assert total(from_input_weights([0, 0], 2)) == 0

    def test_rejects_negative_weights(self):
        with pytest.raises(WeightError):
            from_input_weights([3, -1], 1)
        with pytest.raises(WeightError):
            WeightMatrix(1, 0, ((-2,),))

    def test_rejects_bad_shape(self):
        with pytest.raises(WeightError):
            WeightMatrix(2, 1, ((0, 0),))


class TestWeightFunction:
    def test_three_wire_example_totals_130(self):
        net = new_network(3, 2, [(1, 2, 1), (2, 3, 2)])
        weights = WeightMatrix(3, 2, ((0, 0, 30), (10, 0, 40), (0, 20, 40)))
        assert weight_function(net, weights, [1, 2, 0]) == 130

    def test_zero_weights_give_zero(self, four_wire_sorter):
        weights = WeightMatrix(4, 3, tuple((0,) * 4 for _ in range(4)))
        assert weight_function(four_wire_sorter, weights, [9, 1, 4, 4]) == 0

    def test_empty_network_reduces_to_dot_product(self):
        net = new_network(3, 0, [])
        weights = WeightMatrix(3, 0, ((2,), (3,), (5,)))
        assert weight_function(net, weights, [10, 1, 100]) == 523

    def test_shape_mismatch(self, four_wire_sorter):
        with pytest.raises(WeightError):
            weight_function(four_wire_sorter, from_input_weights([1, 2], 3), [1, 0, 0, 1])


class TestPropagateFull:
    def test_single_comparator_moves_the_minimum(self):
        result = propagate_full(from_input_weights([40, 50], 1))
        assert result.rows == ((0, 40), (10, 40))

    def test_uniform_weights_drain_to_the_output(self):
        net = oe_sorter(5)
        matrix = from_input_weights([10] * 5, net.depth)
        result = propagate_full(matrix)
        assert column(result, 0) == [0] * 5
        assert column(result, net.depth) == [10] * 5

    def test_zero_in_column_zero_is_a_fixed_point(self):
        matrix = from_input_weights([0, 7], 2)
        assert propagate_full(matrix) is matrix

    def test_depth_zero_matrix_is_untouched(self):
        matrix = from_input_weights([4, 2], 0)
        assert propagate_full(matrix) is matrix


class TestPropagateConfined:
    def test_moves_minimum_between_boundary_columns(self):
        weights = WeightMatrix(
            5,
            4,
            (
                (80, 90, 50, 60, 30),
                (20, 40, 0, 50, 70),
                (0, 10, 90, 0, 20),
                (70, 20, 90, 10, 50),
                (30, 50, 80, 30, 20),
            ),
        )
        region = ConfinedNetwork(frozenset({1, 3, 4, 5}), 2, 3)
        result = propagate_confined(weights, region)
        assert column(result, 1) == [80, 40, 0, 10, 40]
        assert column(result, 3) == [70, 50, 10, 20, 40]
        assert column(result, 0) == column(weights, 0)
        assert column(result, 2) == column(weights, 2)
        assert column(result, 4) == column(weights, 4)

    def test_zero_boundary_weight_blocks_the_move(self):
        weights = WeightMatrix(2, 2, ((5, 0, 0), (3, 9, 0)))
        region = ConfinedNetwork(frozenset({1, 2}), 2, 2)
        assert propagate_confined(weights, region) is weights

    def test_comparator_free_region_still_moves_weight(self):
        weights = from_input_weights([6, 8], 2)
        region = ConfinedNetwork(frozenset({1, 2}), 1, 2)
        result = propagate_confined(weights, region)
        assert column(result, 0) == [0, 2]
        assert column(result, 2) == [6, 6]

    @pytest.mark.parametrize(
        "wires, interval, error",
        [
            (set(), (1, 2), WeightError),  # no wire to take a minimum over
            ({0, 1}, (1, 2), WeightError),  # wire 0 would index the last row
            ({-2}, (1, 2), WeightError),
            ({1, 2}, (0, 1), WeightError),  # level 0 would take from the last column
            ({1, 2}, (2, 1), WeightError),
            ({1, 4}, (1, 2), WeightError),  # wire above the width
            ({1, 3}, (1, 3), WeightError),  # level above the depth
        ],
    )
    def test_refuses_bad_regions(self, wires, interval, error):
        weights = from_input_weights([5, 6, 7], 2)
        message = "^region must hold wires in 1..3 over a nonempty level interval in 1..2$"
        with pytest.raises(error, match=message):
            propagate_confined(weights, ConfinedNetwork(frozenset(wires), *interval))


class TestPropagateDecomposition:
    def test_gate_by_gate_run_reaches_the_expected_states(self, four_wire_sorter):
        matrix = from_input_weights([40, 50, 90, 70], 3)
        steps = decompose_sparse(four_wire_sorter, 1).components
        after_block_1 = propagate_confined(
            propagate_confined(matrix, steps[0]), steps[1]
        )
        assert column(after_block_1, 0) == [0, 10, 20, 0]
        assert column(after_block_1, 1) == [40, 40, 70, 70]
        after_block_2 = propagate_confined(
            propagate_confined(after_block_1, steps[2]), steps[3]
        )
        assert column(after_block_2, 1) == [0, 0, 30, 30]
        assert column(after_block_2, 2) == [40, 40, 40, 40]
        final = propagate_decomposition(matrix, decompose_sparse(four_wire_sorter, 1))
        assert column(final, 0) == [0, 10, 20, 0]
        assert column(final, 1) == [0, 0, 30, 30]
        assert column(final, 2) == [0, 0, 0, 0]
        assert column(final, 3) == [40, 40, 40, 40]

    def test_two_level_blocks_on_a_five_wire_network(self):
        net = new_network(
            5, 4, [(1, 2, 1), (4, 5, 1), (2, 3, 2), (1, 4, 3), (3, 5, 3), (2, 4, 4)]
        )
        matrix = from_input_weights([20, 90, 80, 30, 70], 4)
        result = propagate_decomposition(matrix, decompose_sparse(net, 2))
        assert column(result, 0) == [0, 70, 60, 0, 40]
        assert column(result, 2) == [0, 0, 0, 10, 10]
        assert column(result, 4) == [20, 20, 20, 20, 20]
        assert column(result, 1) == [0] * 5
        assert column(result, 3) == [0] * 5

    def test_single_component_matches_black_box_propagation(self):
        rng = random.Random(3)
        for _ in range(25):
            net = oe_sorter(rng.randint(2, 6))
            matrix = random_matrix(rng, net.width, net.depth)
            assert (
                propagate_decomposition(matrix, whole_network_decomposition(net)).rows
                == propagate_full(matrix).rows
            )


class TestPreservation:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_three_operations_preserve_the_weight_function(self, seed):
        rng = random.Random(seed)
        net = random_network(rng, rng.randint(2, 6), rng.randint(1, 8))
        matrix = random_matrix(rng, net.width, net.depth)
        variants = [
            propagate_full(matrix),
            propagate_confined(matrix, random_confined_region(rng, net)),
            propagate_decomposition(
                matrix, decompose_sparse(net, rng.randint(1, net.depth + 2))
            ),
        ]
        vectors = list(binary_vectors(net.width))
        vectors += [
            [rng.randint(-40, 40) for _ in range(net.width)] for _ in range(20)
        ]
        for variant in variants:
            assert total(variant) == total(matrix)
            assert all(w >= 0 for row in variant.rows for w in row)
            for vector in vectors:
                assert weight_function(net, matrix, vector) == weight_function(
                    net, variant, vector
                )

    @given(st.integers(0, 10**6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_totals_are_conserved(self, seed, k):
        rng = random.Random(seed)
        net = random_network(rng, rng.randint(2, 7), rng.randint(1, 6))
        matrix = random_matrix(rng, net.width, net.depth)
        assert total(propagate_decomposition(matrix, decompose_sparse(net, k))) == total(matrix)
        assert total(propagate_full(matrix)) == total(matrix)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sparse_runs_leave_weights_only_on_block_boundaries(self, k):
        rng = random.Random(k * 17)
        for _ in range(10):
            net = random_network(rng, rng.randint(3, 7), rng.randint(2, 7))
            weights = [rng.randint(0, 30) for _ in range(net.width)]
            matrix = from_input_weights(weights, net.depth)
            result = propagate_decomposition(matrix, decompose_sparse(net, k))
            allowed = {0, net.depth} | {j for j in range(net.depth + 1) if j % k == 0}
            hot = {j for _, j, _ in result.nonzero_entries()}
            assert hot <= allowed, (net, k, sorted(hot))
            # no position ever carries more than the largest input weight
            assert all(w <= max(weights) for _, _, w in result.nonzero_entries())


class TestPropagateSparse:
    def test_matches_the_fold_over_the_sparse_decomposition(self):
        rng = random.Random(31)
        for n in range(9):
            full = oe_sorter(n)
            for d in range(full.depth + 1):
                net = limit_depth(full, d)
                weights = random_matrix(rng, net.width, net.depth)
                for sparseness in (1, 2, None):
                    k = sparseness or net.depth
                    expected = (
                        propagate_decomposition(weights, decompose_sparse(net, k))
                        if k
                        else weights
                    )
                    assert propagate_sparse(weights, net, sparseness) == expected, (
                        n, d, sparseness
                    )
