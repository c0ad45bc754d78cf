"""Translation of comparator networks into negation-free aspif rules.

Each comparator becomes three rules (min output needs both inputs, max output
needs either) and every wire untouched at a level gets an inertia rule, so
wire values at every level are captured bit-for-bit by atoms.  The rules are
the aspif statements the rewrite prints; ``aspif.to_ground_program`` maps
them into the semantic model.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .aspif import DISJUNCTIVE, NormalBody, Rule
from .asplang import SemanticsError
from .network import Network


class _WireAtomMap(NamedTuple):
    width: int
    depth: int
    columns: tuple[tuple[int, ...], ...]

    def atom(self, wire: int, level: int) -> int:
        return self.columns[level][wire - 1]

    def atoms(self) -> list[int]:
        return [a for column in self.columns for a in column]

    def sidecar_lines(self) -> list[str]:
        """Debug mapping, one ``wire i level l atom id`` line per position."""
        return [
            f"wire {i} level {l} atom {a}"
            for l, column in enumerate(self.columns)
            for i, a in enumerate(column, 1)
        ]


class WireAtomMap(_WireAtomMap):
    """Injective map from (wire, level) positions to atom ids.

    ``columns[l][i - 1]`` is the atom for wire i after level l, input column
    first.  Level 0 atoms may be pre-existing program atoms; deeper levels
    are normally fresh.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> WireAtomMap:
        self = super().__new__(cls, *args, **kwargs)
        if len(self.columns) != self.depth + 1 or any(
            len(column) != self.width for column in self.columns
        ):
            raise SemanticsError("wire atom map does not cover the network shape")
        flat = self.atoms()
        if len(set(flat)) != len(flat):
            raise SemanticsError("wire atom map is not injective")
        if any(a < 1 for a in flat):
            raise SemanticsError("wire atoms must be positive")
        return self


def dense_wire_atom_map(
    width: int, depth: int, first_free: int, inputs: Sequence[int] | None = None
) -> WireAtomMap:
    """Allocate wire atoms level-major above ``first_free - 1``.

    ``inputs``, when given, supplies the level-0 atoms (one per wire) so the
    network can be grafted onto existing program atoms.
    """
    if inputs is not None and len(inputs) != width:
        raise SemanticsError(f"expected {width} input atoms, got {len(inputs)}")
    next_id = first_free
    if inputs is None:
        inputs = range(next_id, next_id + width)
        next_id += width
    columns = [tuple(inputs)]
    for _ in range(depth):
        columns.append(tuple(range(next_id, next_id + width)))
        next_id += width
    return WireAtomMap(width, depth, tuple(columns))


def _rule(head: int, *body: int) -> Rule:
    return Rule(DISJUNCTIVE, (head,), NormalBody(body))


def asp_of_network(network: Network, map: WireAtomMap) -> list[Rule]:
    """Rules capturing every wire value of the network.

    Rule count is 3 * |comparators| plus one inertia rule per untouched
    (wire, level) position.  Each rule has one head and a positive body in
    ascending atom order.
    """
    if (map.width, map.depth) != (network.width, network.depth):
        raise SemanticsError("wire atom map shape does not match the network")
    rules: list[Rule] = []
    layers = network.layers()
    for level in range(1, network.depth + 1):
        below, here = map.columns[level - 1], map.columns[level]
        touched: set[int] = set()
        for c in sorted(layers.get(level, []), key=lambda c: (c.i, c.j)):
            below_i, below_j = below[c.i - 1], below[c.j - 1]
            rules.append(_rule(here[c.i - 1], min(below_i, below_j), max(below_i, below_j)))
            rules.append(_rule(here[c.j - 1], below_i))
            rules.append(_rule(here[c.j - 1], below_j))
            touched |= {c.i, c.j}
        for wire in range(1, network.width + 1):
            if wire not in touched:
                rules.append(_rule(here[wire - 1], below[wire - 1]))
    return rules
