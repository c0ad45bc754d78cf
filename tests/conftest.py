import itertools
import random
import tracemalloc
from operator import neg
from typing import Iterable, NamedTuple, Sequence

import pytest
from hypothesis import strategies as st

from optsort import aspif
from optsort.analysis import Propagator, PropagatorTrace, binomial_document
from optsort.asplang import (
    CardinalityConstraint,
    GroundProgram,
    Nogood,
    NormalRule,
    SemanticsError,
)
from optsort.network import ConfinedNetwork, Decomposition, Network, NetworkError
from optsort.propagate import WeightError, WeightMatrix


# Hand-drawn networks of the tests and the paper's figures.


def new_network(
    width: int,
    declared_depth: int,
    comparators: Iterable[tuple[int, int, int]],
) -> Network:
    """Validate ``(i, j, level)`` triples and build their network's levels.

    Duplicate comparators are dropped.  Rejects out-of-range wires or levels
    and any two distinct comparators that share a wire on the same level.
    """
    if width < 0:
        raise NetworkError(f"width must be >= 0, got {width}")
    if declared_depth < 0:
        raise NetworkError(f"depth must be >= 0, got {declared_depth}")
    levels: list[list[tuple[int, int]]] = [[] for _ in range(declared_depth)]
    used: list[set[int]] = [set() for _ in range(declared_depth)]
    for c in sorted(set(map(tuple, comparators))):
        i, j, level = c
        if not (1 <= i < j):
            raise NetworkError(f"comparator wires must satisfy 1 <= i < j, got {c}")
        if j > width:
            raise NetworkError(f"comparator {c} exceeds width {width}")
        if not (1 <= level <= declared_depth):
            raise NetworkError(f"comparator {c} outside level range 1..{declared_depth}")
        if i in used[level - 1] or j in used[level - 1]:
            raise NetworkError(f"comparator {c} overlaps another on level {level}")
        used[level - 1].update((i, j))
        levels[level - 1].append((i, j))
    return Network(width, tuple(map(tuple, levels)))


def gate_triples(network: Network) -> list[tuple[int, int, int]]:
    """The network's gates as ``(i, j, level)`` triples, level by level."""
    return [(i, j, level) for level, gates in enumerate(network.levels, 1) for i, j in gates]


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


# The paper's calculus: evaluating a network and moving weight over the whole
# of it.  No command runs these; the acceptance tests pin them.


class WireValueMatrix(NamedTuple):
    """Values ``x[i][l]`` carried by wire i after layer l (column 0 = input)."""

    width: int
    depth: int
    rows: tuple[tuple[int, ...], ...]

    def column(self, level: int) -> list[int]:
        return [row[level] for row in self.rows]

    def output(self) -> list[int]:
        return self.column(self.depth)


def apply(network: Network, input: Sequence[int]) -> WireValueMatrix:
    """Run the network on an input vector and record every wire value.

    Each layer performs compare-exchange on its comparators (minimum to the
    lower-numbered wire) and leaves untouched wires unchanged.
    """
    if len(input) != network.width:
        raise NetworkError(
            f"input length {len(input)} does not match width {network.width}"
        )
    columns = [list(input)]
    current = list(input)
    for gates in network.levels:
        for i, j in gates:
            a, b = current[i - 1], current[j - 1]
            if a > b:
                current[i - 1], current[j - 1] = b, a
        columns.append(list(current))
    rows = tuple(
        tuple(columns[l][i] for l in range(network.depth + 1))
        for i in range(network.width)
    )
    return WireValueMatrix(network.width, network.depth, rows)


def permutation_of(network: Network, input: Sequence[int]) -> list[int]:
    """Permutation sigma with ``input[i] = output[sigma(i)]`` (1-based lists).

    Equal values are paired stably: earlier input wires take earlier output
    wires, which is the lexicographically smallest valid sigma.
    """
    values = apply(network, input)
    output = values.output()
    slots: dict[int, list[int]] = {}
    for pos in range(len(output) - 1, -1, -1):
        slots.setdefault(output[pos], []).append(pos + 1)
    sigma = [slots[v].pop() for v in input]
    return sigma


def whole_network_decomposition(network: Network) -> Decomposition:
    """The coarsest decomposition: the entire network as one component."""
    if network.depth == 0 or network.width == 0:
        return Decomposition(())
    comp = ConfinedNetwork(frozenset(range(1, network.width + 1)), 1, network.depth)
    return Decomposition((comp,))


def column(weights: WeightMatrix, level: int) -> list[int]:
    return [row[level] for row in weights.rows]


def _check_shape(network: Network, weights: WeightMatrix) -> None:
    if (network.width, network.depth) != (weights.width, weights.depth):
        raise WeightError(
            f"weight shape ({weights.width}, {weights.depth}) does not match "
            f"network ({network.width}, {network.depth})"
        )


def weight_function(network: Network, weights: WeightMatrix, input: Sequence[int]) -> int:
    """Sum of weight * wire value over all positions, for the given input."""
    _check_shape(network, weights)
    values = apply(network, input)
    return sum(
        w * v
        for wrow, vrow in zip(weights.rows, values.rows)
        for w, v in zip(wrow, vrow)
    )


def propagate_full(weights: WeightMatrix) -> WeightMatrix:
    """Move the minimum input weight from column 0 to the last column.

    Treats the whole network as a black box; the total weight is conserved and
    at least one column-0 entry becomes zero.  Depth-0 matrices are returned
    unchanged, as is any matrix whose column 0 already contains a zero.
    """
    if weights.depth == 0 or weights.width == 0:
        return weights
    c = min(column(weights, 0))
    if c == 0:
        return weights
    return weights._shifted(range(1, weights.width + 1), 0, weights.depth, c)


_TOKENS = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(["04", "+4", "-0", "1_0", "x", "", "a b"]),
    st.text(alphabet="014+- a\t\r\n", max_size=3),
)


@st.composite
def statement_lines(draw):
    code = draw(st.sampled_from(["1", "2", "4", "04", "+4", "0", "3", "-1", " 1", "x"]))
    return " ".join([code, *draw(st.lists(_TOKENS, max_size=9))])


_LITERALS = st.integers(-5, 5).filter(bool)
_WEIGHTED = st.lists(st.tuples(_LITERALS, st.integers(-3, 9)), max_size=3).map(tuple)
_STATEMENTS = st.one_of(
    st.builds(
        aspif.Rule,
        st.sampled_from([aspif.DISJUNCTIVE, aspif.CHOICE]),
        st.lists(st.integers(1, 5), max_size=2, unique=True).map(tuple),
        st.one_of(
            st.builds(aspif.NormalBody, st.lists(_LITERALS, max_size=3).map(tuple)),
            st.builds(aspif.WeightBody, st.integers(-1, 6), _WEIGHTED),
        ),
    ),
    st.builds(aspif.Minimize, st.integers(-1, 2), _WEIGHTED),
)


@st.composite
def written_lines(draw):
    """A rule or minimize line as ``aspif.write`` prints it, maybe with one
    token replaced, inserted or deleted, so that a cut or an overlong line
    shows as often as a wrong value."""
    document = aspif.AspifDocument(statements=(draw(_STATEMENTS),))
    tokens = aspif.write(document).split("\n")[1].split(" ")
    action = draw(st.sampled_from(["keep", "replace", "insert", "delete"]))
    if action == "insert":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_TOKENS))
    elif action != "keep":
        position = draw(st.integers(0, len(tokens) - 1))
        if action == "replace":
            tokens[position] = draw(_TOKENS)
        else:
            del tokens[position]
    return " ".join(tokens)


_ATOMS = st.integers(1, 5)
_BODIES = st.lists(_LITERALS, max_size=3).map(tuple)
_BOTH_SIGNS = st.builds(
    lambda positive, negative: (*positive, *map(neg, negative)),
    st.lists(_ATOMS, min_size=1, max_size=2),
    st.lists(_ATOMS, min_size=1, max_size=2),
)


@st.composite
def _uniform_constraint(draw):
    """An integrity constraint over a weight body whose distinct literals
    share one weight, its bound on both sides of what they can reach."""
    literals = draw(st.lists(_LITERALS, min_size=1, max_size=4, unique=True))
    weight = draw(st.integers(0, 3))
    bound = draw(st.integers(-1, weight * len(literals) + 1))
    body = aspif.WeightBody(bound, tuple((lit, weight) for lit in literals))
    return aspif.Rule(aspif.DISJUNCTIVE, (), body)


@st.composite
def _contradictory_constraint(draw):
    """An integrity constraint whose body holds some atom with both signs."""
    atom = draw(_ATOMS)
    body = draw(st.permutations([atom, -atom, *draw(_BODIES)]))
    return aspif.Rule(aspif.DISJUNCTIVE, (), aspif.NormalBody(tuple(body)))


def bridgeable_documents():
    """Documents that ``to_ground_program`` bridges: choice rules, normal
    rules and constraints with literals of both signs, uniform-weight
    constraints, contradictory constraints and minimize statements."""
    statements = st.one_of(
        st.builds(
            aspif.Rule,
            st.just(aspif.CHOICE),
            st.lists(_ATOMS, max_size=3, unique=True).map(tuple),
            st.builds(aspif.NormalBody, _BODIES),
        ),
        st.builds(
            aspif.Rule,
            st.just(aspif.DISJUNCTIVE),
            st.lists(_ATOMS, max_size=1).map(tuple),
            st.builds(aspif.NormalBody, st.one_of(_BODIES, _BOTH_SIGNS)),
        ),
        _uniform_constraint(),
        _contradictory_constraint(),
        st.builds(aspif.Minimize, st.integers(-1, 2), _WEIGHTED),
    )
    return st.lists(statements, min_size=1, max_size=8).map(
        lambda drawn: aspif.AspifDocument(statements=tuple(drawn))
    )


def aspif_texts():
    """A header, up to four statement lines and maybe a terminator.

    Lines are random tokens or written statements, some with one token
    replaced, inserted or deleted, so both the refusing and the accepting
    side of the parser show.
    """
    return st.builds(
        lambda lines, terminated: "\n".join(
            ["asp 1 0 0", *lines, *(["0"] if terminated else [])]
        )
        + "\n",
        st.lists(st.one_of(statement_lines(), written_lines()), max_size=4),
        st.booleans(),
    )


# Constructors for the semantic model, whose literals are aspif's signed ints.


def signed_literals(atoms: st.SearchStrategy[int]) -> st.SearchStrategy[int]:
    """Literals over the drawn atoms, each sign drawn as a boolean."""
    return st.builds(lambda atom, positive: atom if positive else -atom, atoms, st.booleans())


def rule(head: int, body=(), not_body=()) -> NormalRule:
    return NormalRule(head, frozenset(body), frozenset(not_body))


def fact(head: int) -> NormalRule:
    return NormalRule(head)


def nogood(true_atoms=(), false_atoms=()) -> Nogood:
    return Nogood(frozenset(true_atoms) | frozenset(-a for a in false_atoms))


# Brute-force oracles that tests check the product against.


def literal_holds(literal: int, interpretation: frozenset[int]) -> bool:
    return (abs(literal) in interpretation) == (literal > 0)


def constraint_holds(constraint: CardinalityConstraint, interpretation: frozenset[int]) -> bool:
    """At least the bound of the constraint's distinct literals hold."""
    held = sum(1 for l in set(constraint.literals) if literal_holds(l, interpretation))
    return held >= constraint.lower_bound


def nogood_holds(ng: Nogood, interpretation: frozenset[int]) -> bool:
    """Some literal of the nogood fails in the interpretation."""
    return not ng.conflicts_with(interpretation)


def assert_well_formed(program: GroundProgram) -> None:
    """The invariants of every program that ``to_ground_program`` and
    ``attach_network`` build: the signature holds every atom used and each
    atom is >= 1, choice heads are nonempty, no nogood holds an atom with
    both signs, and each cardinality bound lies in 0..n + 1 for its n
    distinct literals."""
    parts = [
        *program.normal_rules,
        *program.choice_rules,
        *program.cardinality_constraints,
        *program.nogoods,
    ]
    used = set().union(*(part.atoms() for part in parts))
    assert used <= program.signature, sorted(used - program.signature)
    assert all(a >= 1 for a in program.signature)
    assert all(c.head_atoms for c in program.choice_rules)
    assert all(len(ng.atoms()) == len(ng.literals) for ng in program.nogoods)
    for cc in program.cardinality_constraints:
        assert 0 <= cc.lower_bound <= len(set(cc.literals)) + 1, cc


def evaluate(terms: Iterable[tuple[int, int]], interpretation: frozenset[int]) -> int:
    """Sum of weights of the (literal, weight) terms whose literal holds."""
    return sum(w for l, w in terms if literal_holds(l, interpretation))


def closure(rules) -> frozenset[int]:
    """Least model of positive (head, body) rules, by naive iteration."""
    rules = list(rules)
    model: set[int] = set()
    while True:
        derived = {head for head, body in rules if body <= model}
        if derived <= model:
            return frozenset(model)
        model |= derived


def read_added_rules(
    text: str, top: int
) -> tuple[list[tuple[int, tuple[int, ...]]], dict[int, list[tuple[int, int]]]]:
    """The normal rules with a head above ``top`` and the minimize terms by
    priority, read from aspif text by splitting its lines, without optsort's
    own reader: ``[(head, body literals)]`` and ``{priority: terms}``."""
    rules: list[tuple[int, tuple[int, ...]]] = []
    objectives: dict[int, list[tuple[int, int]]] = {}
    for line in text.split("\n")[1:]:
        tokens = line.split(" ")
        if tokens[0] == "2":
            flat = list(map(int, tokens[3 : 3 + 2 * int(tokens[2])]))
            objectives.setdefault(int(tokens[1]), []).extend(zip(flat[0::2], flat[1::2]))
        elif tokens[:3] == ["1", "0", "1"] and int(tokens[3]) > top:
            assert tokens[4] == "0", f"added rule without a normal body: {line}"
            rules.append((int(tokens[3]), tuple(map(int, tokens[6:]))))
    return rules, objectives


def close_added_rules(rules, true_atoms: frozenset[int], top: int) -> frozenset[int]:
    """The atoms above ``top`` that the rules derive when, of the atoms up to
    ``top``, exactly ``true_atoms`` hold.  Those atoms fix every body literal
    over them; the others must be positive, so the rest is a positive program."""
    positive = []
    for head, body in rules:
        fresh = frozenset(lit for lit in body if abs(lit) > top)
        assert all(lit > 0 for lit in fresh), f"the rule for {head} negates a fresh atom"
        if all(literal_holds(lit, true_atoms) for lit in body if abs(lit) <= top):
            positive.append((head, fresh))
    return closure(positive)


def value_mismatch(source: str, rewritten: str, top: int, seed: int) -> str | None:
    """Where the rules a rewrite adds change a priority's value, or None.

    ``source`` and ``rewritten`` are aspif texts over atoms 1..``top`` and
    above.  The added rules are closed under the all-false and the all-true
    assignment to atoms 1..``top`` and under three seeded ones, and each
    priority's new terms must sum to its input terms' value in every one."""
    _, before = read_added_rules(source, top)
    rules, after = read_added_rules(rewritten, top)
    if set(before) != set(after):
        return f"priorities {sorted(before)} became {sorted(after)}"
    rng = random.Random(seed)
    atoms = range(1, top + 1)
    assignments = [frozenset(), frozenset(atoms)] + [
        frozenset(a for a in atoms if rng.random() < 0.5) for _ in range(3)
    ]
    for true_atoms in assignments:
        model = true_atoms | close_added_rules(rules, true_atoms, top)
        for priority, terms in sorted(before.items()):
            value, new_value = evaluate(terms, model), evaluate(after[priority], model)
            if value != new_value:
                return (
                    f"priority {priority} has value {value}, not {new_value}, "
                    f"with {len(true_atoms)} of {top} atoms true"
                )
    return None


def body_holds(r: NormalRule, interpretation: frozenset[int]) -> bool:
    return r.pos_body <= interpretation and not r.neg_body & interpretation


def satisfies(program: GroundProgram, interpretation: frozenset[int]) -> bool:
    """Classical satisfaction of rules, cardinality constraints and nogoods."""
    rules = program.normal_rules
    return (
        all(r.head in interpretation or not body_holds(r, interpretation) for r in rules)
        and all(constraint_holds(cc, interpretation) for cc in program.cardinality_constraints)
        and all(nogood_holds(ng, interpretation) for ng in program.nogoods)
    )


def is_answer_set(program: GroundProgram, interpretation: frozenset[int]) -> bool:
    """Satisfaction, and equality with the least model of the reduct.

    The reduct keeps each normal rule whose negative body the interpretation
    leaves false, and turns each choice head in the interpretation into a
    rule over its body's positive part when the negative part holds.
    """
    if not satisfies(program, interpretation):
        return False
    reduct = [
        (r.head, r.pos_body)
        for r in program.normal_rules
        if not r.neg_body & interpretation
    ]
    for c in program.choice_rules:
        if all(l > 0 or -l not in interpretation for l in c.body):
            body = frozenset(l for l in c.body if l > 0)
            reduct += [(a, body) for a in c.head_atoms & interpretation]
    return closure(reduct) == interpretation


def enumerate_answer_sets(program: GroundProgram) -> list[frozenset[int]]:
    """Every answer set, in order of their sorted atoms, by testing each set of head atoms."""
    heads = sorted(
        {r.head for r in program.normal_rules}.union(*(c.head_atoms for c in program.choice_rules))
    )
    subsets = (
        frozenset(a for bit, a in enumerate(heads) if mask >> bit & 1)
        for mask in range(1 << len(heads))
    )
    return sorted(
        (m for m in subsets if is_answer_set(program, m)), key=lambda m: tuple(sorted(m))
    )


def lane_models(enumerated) -> list[frozenset[int]]:
    """An enumerator's ``(atom lanes, answers)`` as frozensets, in order of their sorted atoms."""
    lanes, answers = enumerated
    models = [
        frozenset(a for a, held in lanes.items() if held >> i & 1)
        for i in range(answers.bit_length())
        if answers >> i & 1
    ]
    return sorted(models, key=sorted)


def models_as_lanes(models, atoms) -> tuple[dict[int, int], int]:
    """Each atom's lanes over the models, model i in lane i, and the mask of the models' lanes."""
    lanes = {a: sum(1 << i for i, m in enumerate(models) if a in m) for a in atoms}
    return lanes, (1 << len(models)) - 1


def optimal_value(program: GroundProgram, terms: Sequence[tuple[int, int]]) -> int | None:
    answer_sets = enumerate_answer_sets(program)
    if not answer_sets:
        return None
    return min(evaluate(terms, m) for m in answer_sets)


def binomial_opt_program(n: int, k: int) -> tuple[GroundProgram, tuple[tuple[int, int], ...]]:
    """The binomial program with the unit-weight objective over its atoms."""
    program, objectives = aspif.to_ground_program(binomial_document(n, k, opt=True))
    return program, objectives[0]


def input_facts(x) -> list[aspif.Rule]:
    """Facts asserting the 1-entries of a binary input vector on input atoms 1, 2, ..."""
    if any(bit not in (0, 1) for bit in x):
        raise SemanticsError(f"input vector {list(x)} is not binary")
    return [
        aspif.Rule(aspif.DISJUNCTIVE, (atom,), aspif.NormalBody(()))
        for atom, bit in enumerate(x, 1)
        if bit
    ]


def read_rules(lines: Iterable[str]) -> list[aspif.Rule]:
    """Rule lines as ``aspif.parse`` reads them, one ``Rule`` per line."""
    return list(aspif.parse("\n".join(["asp 1 0 0", *lines, "0"])).statements)


def region_gates(network: Network, region: ConfinedNetwork) -> set[tuple[int, int, int]]:
    """The network's gate triples with both wires and the level inside the region."""
    return {
        (i, j, level)
        for i, j, level in gate_triples(network)
        if region.min_level <= level <= region.max_level
        and i in region.wires
        and j in region.wires
    }


def confines_every_gate(decomposition: Decomposition, network: Network) -> bool:
    """What propagation needs of a decomposition of the network.

    Every region lies inside the network, every gate lies in exactly one
    region, and no gate within a region's level interval has exactly one of
    its wires in that region.
    """
    regions = decomposition.components
    if any(max(r.wires) > network.width or r.max_level > network.depth for r in regions):
        return False
    for i, j, level in gate_triples(network):
        inside = 0
        for r in regions:
            if r.min_level <= level <= r.max_level:
                ends = (i in r.wires) + (j in r.wires)
                if ends == 1:
                    return False
                inside += ends == 2
        if inside != 1:
            return False
    return True


def decompose_sparse_rescan(network: Network, k: int) -> Decomposition:
    """Reference ``decompose_sparse`` that rescans its block for every region.

    Each region's wires are the ends of the parent network's gates in that
    union-find group; the wires no gate of the block touches form one more.
    """
    components = []
    n = network.width
    lo = 1
    while lo <= network.depth:
        hi = min(lo + k - 1, network.depth)
        block = [(i, j) for i, j, level in gate_triples(network) if lo <= level <= hi]
        parent = {w: w for w in range(1, n + 1)}

        def find(w: int) -> int:
            while parent[w] != w:
                parent[w] = parent[parent[w]]
                w = parent[w]
            return w

        for i, j in block:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
        parts = []
        for root in {find(i) for i, _ in block}:
            gates = [gate for gate in block if find(gate[0]) == root]
            parts.append({w for gate in gates for w in gate})
        untouched = set(range(1, n + 1)).difference(*parts)
        if untouched:
            parts.append(untouched)
        for wires in sorted(parts, key=min):
            components.append(ConfinedNetwork(frozenset(wires), lo, hi))
        lo = hi + 1
    return Decomposition(tuple(components))


def total(matrix: WeightMatrix) -> int:
    return sum(sum(row) for row in matrix.rows)


def constraint_nogoods(propagator: Propagator) -> list[tuple[int, ...]]:
    """The propagator's full constraint, one ascending atom tuple per true k-subset."""
    return list(itertools.combinations(sorted(propagator.atoms), propagator.bound))


def reference_candidates(program):
    """Supported-model candidates by per-subset closures, in order of their sorted atoms."""
    choice = sorted(set().union(*(c.head_atoms for c in program.choice_rules)))
    derivations = [(r.head, r.pos_body) for r in program.normal_rules]
    models = {
        closure(derivations + [(a, frozenset()) for b, a in enumerate(choice) if mask >> b & 1])
        for mask in range(1 << len(choice))
    }
    return sorted(
        (
            m
            for m in models
            if all(constraint_holds(cc, m) for cc in program.cardinality_constraints)
            and all(nogood_holds(ng, m) for ng in program.nogoods)
        ),
        key=lambda m: tuple(sorted(m)),
    )


def reference_pch(program, propagator, shuffle_rng=None, candidates=None):
    """``run_pch`` by per-subset closures and a frozenset nogood filter.

    The candidates are visited in sorted order, or shuffled with
    ``shuffle_rng``.  ``candidates``, when given, must be
    ``reference_candidates(program)``.
    """
    candidates = list(reference_candidates(program) if candidates is None else candidates)
    if shuffle_rng is not None:
        shuffle_rng.shuffle(candidates)
    assignments, learned = [], []
    while candidates:
        current = candidates[0]
        if not propagator.conflicts_with(current):
            return tuple(assignments), tuple(learned), False
        explanation = propagator.explain(current)
        assignments.append(current)
        learned.append(explanation)
        candidates = [c for c in candidates if not c.issuperset(explanation)]
    return tuple(assignments), tuple(learned), True


def is_supported_model(program: GroundProgram, interpretation: frozenset[int]) -> bool:
    """Model where every true atom heads some rule with a satisfied body."""
    if not interpretation <= program.signature:
        return False
    if not satisfies(program, interpretation):
        return False
    for a in interpretation:
        supported = any(
            r.head == a and body_holds(r, interpretation) for r in program.normal_rules
        ) or any(
            a in c.head_atoms and all(literal_holds(l, interpretation) for l in c.body)
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
    must coincide with the learned nogoods wiping out every answer set.  A
    learned nogood forbids its atoms all true.
    """
    constraint = set(constraint_nogoods(propagator))
    for idx, assignment in enumerate(trace.assignments):
        if not is_supported_model(program, assignment):
            return False
        if any(assignment.issuperset(ng) for ng in trace.nogoods[:idx]):
            return False
        if not propagator.conflicts_with(assignment):
            return False
        if trace.nogoods[idx] not in constraint:
            return False
        if not assignment.issuperset(trace.nogoods[idx]):
            return False
    constrained = GroundProgram(
        signature=program.signature,
        normal_rules=program.normal_rules,
        choice_rules=program.choice_rules,
        cardinality_constraints=program.cardinality_constraints,
        nogoods=program.nogoods + tuple(nogood(true_atoms=ng) for ng in trace.nogoods),
    )
    return trace.complete == (not enumerate_answer_sets(constrained))


def traced_peak(fn, *args):
    """The function's result and the peak of the memory it allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
