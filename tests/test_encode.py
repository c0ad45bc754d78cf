import random
from itertools import product

import pytest

from optsort import aspif
from optsort.asplang import SemanticsError, enumerate_answer_sets_layered
from optsort.encode import asp_of_network, dense_wire_atom_map
from optsort.network import oe_sorter

from conftest import (
    apply,
    binary_vectors,
    enumerate_answer_sets,
    input_facts,
    new_network,
    random_network,
    read_rules,
    lane_models,
)


class TestWireAtomMap:
    def test_dense_allocation_is_level_major(self):
        m = dense_wire_atom_map([10, 11], 2, 12)
        assert m.columns == ((10, 11), (12, 13), (14, 15))

    def test_existing_inputs_are_grafted(self):
        m = dense_wire_atom_map([3, 5], 1, 7)
        assert m.atom(1, 0) == 3 and m.atom(2, 0) == 5
        assert m.atom(1, 1) == 7 and m.atom(2, 1) == 8

    def test_rejects_non_injective_grids(self):
        from optsort.encode import WireAtomMap

        with pytest.raises(SemanticsError):
            WireAtomMap(2, 0, ((1, 1),))

    def test_sidecar_lists_every_position(self):
        m = dense_wire_atom_map([1, 2], 1, 3)
        assert m.sidecar_lines() == [
            "wire 1 level 0 atom 1",
            "wire 2 level 0 atom 2",
            "wire 1 level 1 atom 3",
            "wire 2 level 1 atom 4",
        ]


class TestNetworkRules:
    def test_single_comparator_gives_three_rules(self):
        net = new_network(2, 1, [(1, 2, 1)])
        m = dense_wire_atom_map([1, 2], 1, 3)
        assert asp_of_network(net, m) == ["1 0 1 3 0 2 1 2", "1 0 1 4 0 1 1", "1 0 1 4 0 1 2"]

    def test_rule_count_matches_gates_plus_inertia(self, four_wire_sorter):
        m = dense_wire_atom_map([1, 2, 3, 4], 3, 5)
        rules = asp_of_network(four_wire_sorter, m)
        assert len(rules) == 3 * 5 + 2

    def test_empty_network_yields_no_rules(self):
        net = new_network(2, 0, [])
        assert asp_of_network(net, dense_wire_atom_map([1, 2], 0, 3)) == []

    def test_translation_is_negation_free(self):
        net = oe_sorter(5)
        lines = asp_of_network(net, dense_wire_atom_map(range(1, 6), net.depth, 6))
        rules = read_rules(lines)
        assert len(rules) == len(lines)
        assert all(len(rule.head_atoms) == 1 for rule in rules)
        assert all(lit > 0 for rule in rules for lit in rule.body.literals)

    def test_map_shape_must_match(self):
        net = oe_sorter(3)
        with pytest.raises(SemanticsError):
            asp_of_network(net, dense_wire_atom_map([1, 2, 3], 0, 4))
        # the map takes its width from its inputs
        with pytest.raises(SemanticsError):
            asp_of_network(net, dense_wire_atom_map([1, 2], net.depth, 3))


class TestInputFacts:
    def test_facts_for_one_entries_only(self):
        m = dense_wire_atom_map([1, 2, 3, 4], 0, 5)
        assert input_facts([0, 1, 1, 0], m) == [
            aspif.Rule(aspif.DISJUNCTIVE, (2,), aspif.NormalBody(())),
            aspif.Rule(aspif.DISJUNCTIVE, (3,), aspif.NormalBody(())),
        ]

    def test_all_zero_gives_no_facts(self):
        assert input_facts([0, 0], dense_wire_atom_map([1, 2], 0, 3)) == []

    def test_all_one_gives_width_facts(self):
        assert len(input_facts([1, 1, 1], dense_wire_atom_map([1, 2, 3], 0, 4))) == 3

    def test_rejects_non_binary_values(self):
        with pytest.raises(SemanticsError):
            input_facts([0, 2], dense_wire_atom_map([1, 2], 0, 3))


def network_program(net, bits):
    wire_map = dense_wire_atom_map(range(1, net.width + 1), net.depth, net.width + 1)
    rules = map(aspif.Raw, asp_of_network(net, wire_map))
    document = aspif.AspifDocument(statements=(*rules, *input_facts(bits, wire_map)))
    program, _ = aspif.to_ground_program(aspif.parse(aspif.write(document)))
    return program, wire_map


class TestWireValueCorrespondence:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unique_answer_set_tracks_every_wire_value(self, n):
        nets = [oe_sorter(n), random_network(random.Random(n), n, 3)]
        for net in nets:
            for bits in binary_vectors(n):
                prog, wire_map = network_program(net, bits)
                models = lane_models(enumerate_answer_sets_layered(prog))
                assert len(models) == 1
                model = models[0]
                values = apply(net, bits)
                for wire, level in product(range(1, n + 1), range(net.depth + 1)):
                    expected = values.rows[wire - 1][level] == 1
                    assert (wire_map.atom(wire, level) in model) == expected

    def test_direct_enumeration_confirms_uniqueness_when_small(self):
        net = oe_sorter(2)
        for bits in binary_vectors(2):
            prog, _ = network_program(net, bits)
            assert len(enumerate_answer_sets(prog)) == 1
