"""Translation of comparator networks into negation-free aspif rules.

Each comparator becomes three rules (min output needs both inputs, max output
needs either) and every wire untouched at a level gets an inertia rule, so
wire values at every level are captured bit-for-bit by atoms.  Each rule is
one aspif normal-rule line, formatted from ``ONE_BODY_RULE`` or
``TWO_BODY_RULE``, the only two rule shapes a rewrite adds.  A rewrite writes
a level's lines verbatim as one ``aspif.Raw`` statement; ``verify`` and
``analysis.attach_network`` read them back through ``aspif.parse``.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple, Sequence

from .asplang import SemanticsError
from .network import Network

# aspif normal-rule lines ``head :- a`` and ``head :- a, b``
ONE_BODY_RULE = "1 0 1 %d 0 1 %d"
TWO_BODY_RULE = "1 0 1 %d 0 2 %d %d"


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


def asp_of_network(network: Network, map: WireAtomMap) -> list[str]:
    """Rules capturing every wire value of the network, one aspif line each.

    Rule count is 3 * |comparators| plus one inertia rule per untouched
    (wire, level) position.  Each level gives its gates' rules in the order
    the level holds them (ascending i), then its inertia rules by wire; each
    body is positive, in ascending atom order.
    """
    if (map.width, map.depth) != (network.width, network.depth):
        raise SemanticsError("wire atom map shape does not match the network")
    lines: list[str] = []
    for level, gates in enumerate(network.levels, 1):
        below, here = map.columns[level - 1], map.columns[level]
        untouched = bytearray(b"\x01") * network.width
        for i, j in gates:
            below_i, below_j = below[i - 1], below[j - 1]
            if below_i < below_j:
                lines.append(TWO_BODY_RULE % (here[i - 1], below_i, below_j))
            else:
                lines.append(TWO_BODY_RULE % (here[i - 1], below_j, below_i))
            lines.append(ONE_BODY_RULE % (here[j - 1], below_i))
            lines.append(ONE_BODY_RULE % (here[j - 1], below_j))
            untouched[i - 1] = untouched[j - 1] = 0
        lines.extend(ONE_BODY_RULE % pair for pair in compress(zip(here, below), untouched))
    return lines
