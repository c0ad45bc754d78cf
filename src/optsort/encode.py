"""Translation of comparator networks into negation-free aspif rules.

Each comparator becomes three rules (min output needs both inputs, max output
needs either) and every wire untouched at a level gets an inertia rule, so
wire values at every level are captured bit-for-bit by atoms.  The rules are
the aspif statements the rewrite prints; ``aspif.to_ground_program`` maps
them into the semantic model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .aspif import DISJUNCTIVE, NormalBody, Rule
from .asplang import SemanticsError
from .network import Network


@dataclass(frozen=True)
class WireAtomMap:
    """Injective map from (wire, level) positions to atom ids.

    ``grid[i - 1][l]`` is the atom for wire i after level l.  Level 0 atoms
    may be pre-existing program atoms; deeper levels are normally fresh.
    """

    width: int
    depth: int
    grid: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.grid) != self.width or any(
            len(row) != self.depth + 1 for row in self.grid
        ):
            raise SemanticsError("wire atom map does not cover the network shape")
        flat = [a for row in self.grid for a in row]
        if len(set(flat)) != len(flat):
            raise SemanticsError("wire atom map is not injective")
        if any(a < 1 for a in flat):
            raise SemanticsError("wire atoms must be positive")

    def atom(self, wire: int, level: int) -> int:
        return self.grid[wire - 1][level]

    def atoms(self) -> list[int]:
        return [a for row in self.grid for a in row]

    def sidecar_lines(self) -> list[str]:
        """Debug mapping, one ``wire i level l atom id`` line per position."""
        return [
            f"wire {i} level {l} atom {self.grid[i - 1][l]}"
            for l in range(self.depth + 1)
            for i in range(1, self.width + 1)
        ]


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
    columns: list[list[int]] = []
    if inputs is None:
        columns.append(list(range(next_id, next_id + width)))
        next_id += width
    else:
        columns.append(list(inputs))
    for _ in range(depth):
        columns.append(list(range(next_id, next_id + width)))
        next_id += width
    grid = tuple(
        tuple(columns[l][i] for l in range(depth + 1)) for i in range(width)
    )
    return WireAtomMap(width, depth, grid)


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
        touched: set[int] = set()
        for c in sorted(layers.get(level, []), key=lambda c: (c.i, c.j)):
            below_i = map.atom(c.i, level - 1)
            below_j = map.atom(c.j, level - 1)
            rules.append(
                _rule(map.atom(c.i, level), min(below_i, below_j), max(below_i, below_j))
            )
            rules.append(_rule(map.atom(c.j, level), below_i))
            rules.append(_rule(map.atom(c.j, level), below_j))
            touched |= {c.i, c.j}
        for wire in range(1, network.width + 1):
            if wire not in touched:
                rules.append(_rule(map.atom(wire, level), map.atom(wire, level - 1)))
    return rules
