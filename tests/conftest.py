import itertools
import random

import pytest
from hypothesis import strategies as st

from optsort import aspif
from optsort.analysis import Propagator, PropagatorTrace, binomial_document
from optsort.asplang import (
    GroundProgram,
    Literal,
    Nogood,
    NormalRule,
    ObjectiveFunction,
    SemanticsError,
    enumerate_answer_sets,
    evaluate,
    satisfies,
)
from optsort.encode import WireAtomMap
from optsort.network import ConfinedNetwork, Decomposition, Network, new_network
from optsort.propagate import WeightMatrix


FIG_COMPARATORS = [(1, 2, 1), (3, 4, 1), (1, 3, 2), (2, 4, 2), (2, 3, 3)]


@pytest.fixture
def four_wire_sorter() -> Network:
    return new_network(4, 3, FIG_COMPARATORS)


def binary_vectors(n: int):
    for mask in range(1 << n):
        yield [(mask >> b) & 1 for b in range(n)]


def random_network(rng: random.Random, width: int, depth: int) -> Network:
    comparators = []
    for level in range(1, depth + 1):
        free = list(range(1, width + 1))
        rng.shuffle(free)
        while len(free) >= 2 and rng.random() < 0.8:
            a, b = free.pop(), free.pop()
            comparators.append((min(a, b), max(a, b), level))
    return new_network(width, depth, comparators)


_TOKENS = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(["04", "+4", "-0", "1_0", "x", "", "a b"]),
    st.text(alphabet="014+- a\t\r\n", max_size=3),
)


@st.composite
def statement_lines(draw):
    code = draw(st.sampled_from(["1", "2", "4", "04", "+4", "0", "3", "-1", " 1", "x"]))
    return " ".join([code, *draw(st.lists(_TOKENS, max_size=9))])


def aspif_texts():
    """A header, up to four random statement lines and maybe a terminator."""
    return st.builds(
        lambda lines, terminated: "\n".join(
            ["asp 1 0 0", *lines, *(["0"] if terminated else [])]
        )
        + "\n",
        st.lists(statement_lines(), max_size=4),
        st.booleans(),
    )


# Constructors for the semantic model.


def pos(atom: int) -> Literal:
    return Literal(atom, True)


def neg(atom: int) -> Literal:
    return Literal(atom, False)


def rule(head: int, body=(), not_body=()) -> NormalRule:
    return NormalRule(head, frozenset(body), frozenset(not_body))


def fact(head: int) -> NormalRule:
    return NormalRule(head)


def nogood(true_atoms=(), false_atoms=()) -> Nogood:
    signed = {(a, True) for a in true_atoms} | {(a, False) for a in false_atoms}
    return Nogood(frozenset(signed))


# Brute-force oracles that tests check the product against.


def optimal_value(program: GroundProgram, objective: ObjectiveFunction) -> int | None:
    answer_sets = enumerate_answer_sets(program)
    if not answer_sets:
        return None
    return min(evaluate(objective, m) for m in answer_sets)


def binomial_opt_program(n: int, k: int) -> tuple[GroundProgram, ObjectiveFunction]:
    """The binomial program with the unit-weight objective over its atoms."""
    program, objectives = aspif.to_ground_program(binomial_document(n, k, opt=True))
    return program, objectives[0]


def input_facts(x, wire_map: WireAtomMap) -> list[aspif.Rule]:
    """Facts asserting the 1-entries of a binary input vector."""
    if len(x) != wire_map.width:
        raise SemanticsError(f"expected {wire_map.width} input bits, got {len(x)}")
    if any(bit not in (0, 1) for bit in x):
        raise SemanticsError(f"input vector {list(x)} is not binary")
    return [
        aspif.Rule(aspif.DISJUNCTIVE, (wire_map.atom(i + 1, 0),), aspif.NormalBody(()))
        for i, bit in enumerate(x)
        if bit
    ]


def covers(decomposition: Decomposition, network: Network) -> bool:
    """The components hold exactly the network's comparators."""
    covered = set()
    for component in decomposition.components:
        covered.update(component.network.comparators)
    return covered == set(network.comparators)


def decompose_sparse_rescan(network: Network, k: int) -> Decomposition:
    """Reference ``decompose_sparse`` that rescans its block for every component."""
    components = []
    layers = network.layers()
    n = network.width
    lo = 1
    while lo <= network.depth:
        hi = min(lo + k - 1, network.depth)
        block = [c for level in range(lo, hi + 1) for c in layers.get(level, [])]
        parent = {w: w for w in range(1, n + 1)}

        def find(w: int) -> int:
            while parent[w] != w:
                parent[w] = parent[parent[w]]
                w = parent[w]
            return w

        for c in block:
            ri, rj = find(c.i), find(c.j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
        touched = {w for c in block for w in (c.i, c.j)}
        groups: dict[int, set[int]] = {}
        for w in touched:
            groups.setdefault(find(w), set()).add(w)
        untouched = set(range(1, n + 1)) - touched
        parts = sorted(groups.values(), key=min)
        if untouched:
            parts.append(untouched)
            parts.sort(key=min)
        for wires in parts:
            gates = tuple(c for c in block if c.i in wires)
            sub = Network(n, network.depth, gates)
            components.append(ConfinedNetwork(sub, frozenset(wires), lo, hi))
        lo = hi + 1
    return Decomposition(tuple(components))


def total(matrix: WeightMatrix) -> int:
    return sum(sum(row) for row in matrix.rows)


def constraint_nogoods(propagator: Propagator) -> list[Nogood]:
    """The propagator's full constraint, one nogood per true k-subset."""
    return [
        Nogood(frozenset((a, True) for a in subset))
        for subset in itertools.combinations(sorted(propagator.atoms), propagator.bound)
    ]


def is_supported_model(program: GroundProgram, interpretation: frozenset[int]) -> bool:
    """Model where every true atom heads some rule with a satisfied body."""
    if not interpretation <= program.signature:
        return False
    if not satisfies(program, interpretation):
        return False
    for a in interpretation:
        supported = any(
            r.head == a and r.body_satisfied_by(interpretation)
            for r in program.normal_rules
        ) or any(
            a in c.head_atoms and c.body_satisfied_by(interpretation)
            for c in program.choice_rules
        )
        if not supported:
            return False
    return True


def verify_trace(
    program: GroundProgram, propagator: Propagator, trace: PropagatorTrace
) -> bool:
    """Re-check a trace against the definitional conditions, brute force.

    Each assignment must be a supported model satisfying all earlier learned
    nogoods while conflicting with the propagator constraint; completeness
    must coincide with the learned nogoods wiping out every answer set.
    """
    constraint = set(constraint_nogoods(propagator))
    for idx, assignment in enumerate(trace.assignments):
        if not is_supported_model(program, assignment):
            return False
        if any(ng.conflicts_with(assignment) for ng in trace.nogoods[:idx]):
            return False
        if not propagator.conflicts_with(assignment):
            return False
        if trace.nogoods[idx] not in constraint:
            return False
        if not trace.nogoods[idx].conflicts_with(assignment):
            return False
    constrained = GroundProgram(
        signature=program.signature,
        normal_rules=program.normal_rules,
        choice_rules=program.choice_rules,
        cardinality_constraints=program.cardinality_constraints,
        nogoods=program.nogoods + trace.nogoods,
    )
    return trace.complete == (not enumerate_answer_sets(constrained))
