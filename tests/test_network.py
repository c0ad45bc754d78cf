import hashlib
import random
import time
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optsort import network
from optsort.network import (
    ConfinedNetwork,
    Decomposition,
    NetworkError,
    decompose_sparse,
    limit_depth,
    oe_sorter,
    render_diagram,
)
from optsort.propagate import from_input_weights, propagate_sparse

from conftest import (
    FIG_COMPARATORS,
    apply,
    binary_vectors,
    confines_every_gate,
    decompose_sparse_rescan,
    gate_triples,
    new_network,
    permutation_of,
    random_network,
    region_gates,
    traced_peak,
    whole_network_decomposition,
)


SMALL_SORTERS_SHA256 = "a8eee962a2c995be38f8665a8595825ff2642d69f78005c02a82fb8bb38b1286"
WIDE_SORTER_SHA256 = {
    (2048, None): "eb0da0923c59aa0a88a876139775a66fefab39c96c831054983ca71812b8bcba",
    (2048, 8): "66e11f7f416a7e8e00100a573e6170d486fb7a780cb08902e7d645a292997602",
    (4096, None): "acffa2bcf5b12fcb07af2927ec1b3fad08f4235e7a69fa466eab5a2bbdde13e6",
    (4096, 8): "4002ec2603c9af45f2f67da6813c13b31a2f54c88005f084d34a170046d32c38",
}


def pin_key(net) -> bytes:
    """The network's shape and gates, as the construction pins hash them."""
    gates = [(level, i, j) for i, j, level in gate_triples(net)]
    return repr((net.width, net.depth, gates)).encode()


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
        assert set(gate_triples(oe_sorter(4))) == set(FIG_COMPARATORS)
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
        assert full.depth == max((level for _, _, level in gate_triples(full)), default=0)
        for d in range(full.depth + 3):
            assert oe_sorter(n, d) == limit_depth(full, d), (n, d)

    @pytest.mark.parametrize("n", [1000, 1025, 2048, 4096])
    def test_pruned_build_equals_the_trimmed_full_sorter_when_wide(self, n):
        full = oe_sorter(n)
        for d in (1, 5, 8, 13, full.depth):
            assert oe_sorter(n, d) == limit_depth(full, d), (n, d)

    def test_each_level_holds_disjoint_gates_in_ascending_i(self):
        # the Network invariant that encode.asp_of_network and
        # render_diagram rely on
        for n in range(65):
            for depth in [None, *range(oe_sorter(n).depth + 1)]:
                for gates in oe_sorter(n, depth).levels:
                    assert all(1 <= i < j <= n for i, j in gates), (n, depth)
                    assert [i for i, _ in gates] == sorted(i for i, _ in gates), (n, depth)
                    wires = [w for gate in gates for w in gate]
                    assert len(wires) == len(set(wires)), (n, depth)

    def test_negative_depth_is_refused(self):
        for n in (0, 1, 5):
            with pytest.raises(NetworkError, match=r"^depth limit must be >= 0, got -1$"):
                oe_sorter(n, -1)

    def test_negative_wire_count_is_refused(self):
        with pytest.raises(NetworkError, match=r"^wire count must be >= 0, got -1$"):
            oe_sorter(-1, -1)

    def test_construction_is_pinned(self):
        # sha256 of the networks' pin keys, recorded from the earlier build
        # that kept one flat tuple of gates sorted by (level, i, j)
        digest = hashlib.sha256()
        for n in range(129):
            for d in [None, *range(oe_sorter(n).depth + 2)]:
                digest.update(pin_key(oe_sorter(n, d)))
        assert digest.hexdigest() == SMALL_SORTERS_SHA256
        for (n, d), expected in WIDE_SORTER_SHA256.items():
            assert hashlib.sha256(pin_key(oe_sorter(n, d))).hexdigest() == expected, (n, d)


class TestLimitDepth:
    def test_keeps_only_early_levels(self, four_wire_sorter):
        limited = limit_depth(four_wire_sorter, 1)
        assert gate_triples(limited) == [(1, 2, 1), (3, 4, 1)]
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
        gates = [region_gates(four_wire_sorter, c) for c in parts]
        inert_parts = [c for c, g in zip(parts, gates) if not g]
        assert sorted(len(g) for g in gates if g) == [1] * four_wire_sorter.size()
        # only the last layer leaves wires untouched (1 and 4)
        assert [(c.min_level, sorted(c.wires)) for c in inert_parts] == [(3, [1, 4])]

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_partition_covers_and_is_ordered(self, k):
        rng = random.Random(k)
        net = random_network(rng, 7, 5)
        decomposition = decompose_sparse(net, k)
        assert confines_every_gate(decomposition, net)
        seen = set()
        for component in decomposition.components:
            gates = region_gates(net, component)
            assert not gates & seen
            seen |= gates
        assert seen == set(gate_triples(net))

    @pytest.mark.parametrize("n", range(0, 41))
    def test_matches_the_per_component_rescan(self, n):
        full = oe_sorter(n)
        for d in range(full.depth + 1):
            prefix = limit_depth(full, d)
            for k in {1, 2, 3, max(prefix.depth, 1)}:
                expected = decompose_sparse_rescan(prefix, k)
                assert decompose_sparse(prefix, k) == expected, (n, d, k)

    @staticmethod
    def _assert_blocks_partition_the_wires(network, k):
        # The blocks are 1..k, k+1..2k, ... in order, the last ending at the
        # depth, so every region lies in 1..depth; within each block the
        # regions partition wires 1..width.
        blocks = [
            (interval, [c.wires for c in group])
            for interval, group in groupby(
                decompose_sparse(network, k).components, lambda c: (c.min_level, c.max_level)
            )
        ]
        tiles = [(lo, min(lo + k - 1, network.depth)) for lo in range(1, network.depth + 1, k)]
        assert [interval for interval, _ in blocks] == tiles
        wires = set(range(1, network.width + 1))
        for interval, parts in blocks:
            assert all(parts) and sum(map(len, parts)) == len(wires), interval
            assert set().union(*parts) == wires, interval

    @pytest.mark.parametrize("n", range(0, 41))
    def test_blocks_partition_the_wires_of_every_sorter_prefix(self, n):
        full = oe_sorter(n)
        for d in range(full.depth + 1):
            prefix = limit_depth(full, d)
            for k in {1, 2, 3, max(d, 1)}:
                self._assert_blocks_partition_the_wires(prefix, k)

    @pytest.mark.parametrize(
        "n, depth, k", [(512, 8, 1), (512, 8, 8), (4096, 8, 1), (4096, 8, 8), (2048, None, None)]
    )
    def test_blocks_partition_the_wires_of_wide_sorters(self, n, depth, k):
        network = oe_sorter(n, depth)
        self._assert_blocks_partition_the_wires(network, k or network.depth)

    def test_empty_depth_network_has_no_components(self):
        assert decompose_sparse(new_network(3, 0, []), 2).components == ()

    def test_wireless_network_has_no_components(self):
        wireless = new_network(0, 2, [])
        assert decompose_sparse(wireless, 1).components == ()
        assert whole_network_decomposition(wireless).components == ()

    def test_rejects_bad_factor(self, four_wire_sorter):
        with pytest.raises(NetworkError):
            decompose_sparse(four_wire_sorter, 0)


def regions(parts) -> Decomposition:
    return Decomposition(tuple(ConfinedNetwork(frozenset(w), lo, hi) for w, lo, hi in parts))


class TestDecompositionValidation:
    def test_whole_network_decomposition_covers(self, four_wire_sorter):
        assert confines_every_gate(
            whole_network_decomposition(four_wire_sorter), four_wire_sorter
        )

    def test_gate_oracle_accepts_two_level_blocks(self, four_wire_sorter):
        decomposition = regions([({1, 2, 3, 4}, 1, 1), ({1, 2, 3, 4}, 2, 3)])
        assert confines_every_gate(decomposition, four_wire_sorter)

    @pytest.mark.parametrize(
        "parts",
        [
            [({1, 2, 3, 4}, 1, 2)],  # the gate at level 3 lies in no region
            [({1, 2}, 1, 3), ({3, 4}, 1, 3)],  # gates (1, 3) and (2, 4) are cut
            [({1, 2, 3, 4}, 1, 3), ({1, 2, 3, 4, 5}, 4, 4)],  # wire 5 and level 4 are outside
        ],
    )
    def test_gate_oracle_refuses_unsound_splits(self, four_wire_sorter, parts):
        assert not confines_every_gate(regions(parts), four_wire_sorter)


GOLDEN_FOUR_WIRE = b"\n".join(
    [
        b"-o-o------",
        b"-o-+-o-o--",
        b"-o-o-+-o--",
        b"-o---o----",
    ]
)

GOLDEN_LABELED = b"\n".join(
    [
        b"-40-o--",
        b"-50-o--",
    ]
)


def subcolumns_by_scan(gates):
    """Reference ``_subcolumns``: each gate scans the open subcolumns for the
    first whose last gate ends above the gate's start."""
    subcolumns = []
    for gate in gates:
        for sub in subcolumns:
            if sub[-1][1] < gate[0]:
                sub.append(gate)
                break
        else:
            subcolumns.append([gate])
    return subcolumns or [[]]


class TestSubcolumns:
    @pytest.mark.parametrize("seed", range(40))
    def test_heaps_pack_like_the_first_fit_scan(self, seed):
        rng = random.Random(seed)
        net = random_network(rng, rng.randint(0, 60), rng.randint(1, 6))
        for gates in net.levels:
            assert network._subcolumns(gates) == subcolumns_by_scan(gates)

    @pytest.mark.parametrize("n", [2, 7, 16, 100, 257])
    def test_heaps_pack_sorter_levels_like_the_first_fit_scan(self, n):
        for gates in oe_sorter(n).levels:
            assert network._subcolumns(gates) == subcolumns_by_scan(gates)


class TestRenderDiagram:
    def test_empty_two_wire_network(self):
        assert render_diagram(new_network(2, 0, [])) == b"--\n--"

    def test_four_wire_golden(self, four_wire_sorter):
        drawing = render_diagram(four_wire_sorter)
        assert drawing == GOLDEN_FOUR_WIRE
        assert len(drawing.split(b"\n")) == 4

    def test_input_labels_sit_left_of_the_gate(self):
        net = new_network(2, 1, [(1, 2, 1)])
        drawing = render_diagram(net, {(1, 0): "40", (2, 0): "50"})
        assert drawing == GOLDEN_LABELED

    def test_a_wide_shallow_sorter_draws_in_linear_time(self):
        start = time.perf_counter()
        drawing = render_diagram(oe_sorter(20000, 3))
        assert time.perf_counter() - start < 5.0
        assert drawing.count(b"\n") == 19999

    def test_labels_are_padded_by_characters_not_bytes(self):
        net = new_network(2, 1, [(1, 2, 1)])
        drawing = render_diagram(net, {(1, 0): "é", (2, 1): "50"})
        assert drawing == "-é-o-----\n---o-50--".encode()

    def test_a_drawing_peaks_at_a_few_bytes_per_byte_of_text(self):
        # one bytearray per wire; a list of 2-character cell strings per
        # wire peaked at 6.5 bytes per byte of text
        text, peak = traced_peak(render_diagram, oe_sorter(1024))
        assert text.count(b"\n") == 1023
        assert peak <= 3.5 * len(text)

    def test_out_of_range_label_is_rejected(self, four_wire_sorter):
        with pytest.raises(NetworkError):
            render_diagram(four_wire_sorter, {(5, 0): "x"})

    @pytest.mark.parametrize("n", range(0, 65))
    def test_the_budget_counts_the_drawing_and_its_newline(self, monkeypatch, n):
        rng = random.Random(n)
        for depth in (None, 3):
            net = oe_sorter(n, depth)
            weights = from_input_weights([rng.randint(0, 999) for _ in range(n)], net.depth)
            labelled = {(i, j): str(w) for i, j, w in propagate_sparse(weights, net, 2).nonzero_entries()}
            if n:
                labelled[(n, net.depth)] = "é"
            for annotations in (None, labelled):
                size = len(render_diagram(net, annotations)) + 1
                monkeypatch.setattr(network, "RENDER_BYTE_BUDGET", size - 1)
                with pytest.raises(NetworkError, match=rf" would take {size} bytes, "):
                    render_diagram(net, annotations)
                monkeypatch.undo()

    def test_the_full_sorter_on_8192_wires_passes_the_budget(self, monkeypatch):
        # render 4096 writes the 67 006 464 bytes that CI pins
        with pytest.raises(NetworkError, match=r"^a drawing of 8192 wires would take 268214272 "):
            render_diagram(oe_sorter(8192))
        monkeypatch.setattr(network, "RENDER_BYTE_BUDGET", 0)
        with pytest.raises(NetworkError, match=r"^a drawing of 4096 wires would take 67006464 "):
            render_diagram(oe_sorter(4096))
