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


class TestDenseWireAtomMap:
    def test_dense_allocation_is_level_major(self):
        # the input literals, then one block of wire atoms, level by level
        assert dense_wire_atom_map((3, -1), 10, 2) == ((3, -1), range(10, 12), range(12, 14))

    def test_no_level_leaves_only_the_inputs(self):
        assert dense_wire_atom_map(range(1, 4), 10, 0) == (range(1, 4),)


class TestNetworkRules:
    def test_single_comparator_gives_three_rules(self):
        net = new_network(2, 1, [(1, 2, 1)])
        assert asp_of_network(net, (1, 2), 3) == [
            "1 0 1 3 0 2 1 2", "1 0 1 4 0 1 1", "1 0 1 4 0 1 2"
        ]

    def test_level_one_reads_input_literals_of_either_sign(self):
        # wire i's literal comes before wire j's, whatever their atoms
        net = new_network(3, 2, [(1, 2, 1), (2, 3, 2)])
        assert asp_of_network(net, (-7, 2, -1), 10) == [
            "1 0 1 10 0 2 -7 2", "1 0 1 11 0 1 -7", "1 0 1 11 0 1 2", "1 0 1 12 0 1 -1",
            "1 0 1 14 0 2 11 12", "1 0 1 15 0 1 11", "1 0 1 15 0 1 12", "1 0 1 13 0 1 10",
        ]

    def test_rule_count_matches_gates_plus_inertia(self, four_wire_sorter):
        rules = asp_of_network(four_wire_sorter, range(1, 5), 5)
        assert len(rules) == 3 * 5 + 2

    def test_empty_network_yields_no_rules(self):
        net = new_network(2, 0, [])
        assert asp_of_network(net, (1, 2), 3) == []

    def test_only_input_literals_are_negated(self):
        net = oe_sorter(5)
        inputs = (1, -2, 3, -4, -5)
        lines = asp_of_network(net, inputs, 6)
        rules = read_rules(lines)
        assert len(rules) == len(lines)
        assert all(len(rule.head_atoms) == 1 and rule.head_atoms[0] >= 6 for rule in rules)
        negated = {lit for rule in rules for lit in rule.body.literals if lit < 0}
        assert negated == {-2, -4, -5}

    def test_a_later_first_atom_shifts_every_atom(self):
        # every atom of the block; the input literals stay
        net = oe_sorter(6)
        inputs = range(1, 7)

        def shift(lit):
            return lit - 40 if lit > 6 else lit

        shifted = [
            [shift(lit) for lit in (*rule.head_atoms, *rule.body.literals)]
            for rule in read_rules(asp_of_network(net, inputs, 47))
        ]
        assert shifted == [
            [*rule.head_atoms, *rule.body.literals]
            for rule in read_rules(asp_of_network(net, inputs, 7))
        ]


class TestInputFacts:
    def test_facts_for_one_entries_only(self):
        assert input_facts([0, 1, 1, 0]) == [
            aspif.Rule(aspif.DISJUNCTIVE, (2,), aspif.NormalBody(())),
            aspif.Rule(aspif.DISJUNCTIVE, (3,), aspif.NormalBody(())),
        ]

    def test_all_zero_gives_no_facts(self):
        assert input_facts([0, 0]) == []

    def test_all_one_gives_width_facts(self):
        assert len(input_facts([1, 1, 1])) == 3

    def test_rejects_non_binary_values(self):
        with pytest.raises(SemanticsError):
            input_facts([0, 2])


def network_program(net, bits):
    inputs = range(1, net.width + 1)
    rules = map(aspif.Raw, asp_of_network(net, inputs, net.width + 1))
    document = aspif.AspifDocument(statements=(*rules, *input_facts(bits)))
    program, _ = aspif.to_ground_program(aspif.parse(aspif.write(document)))
    return program, dense_wire_atom_map(inputs, net.width + 1, net.depth)


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
                    assert (wire_map[level][wire - 1] in model) == expected

    def test_direct_enumeration_confirms_uniqueness_when_small(self):
        net = oe_sorter(2)
        for bits in binary_vectors(2):
            prog, _ = network_program(net, bits)
            assert len(enumerate_answer_sets(prog)) == 1
