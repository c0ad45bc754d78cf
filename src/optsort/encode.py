"""Translation of comparator networks into aspif rules over the inputs' literals.

Each comparator becomes three rules (min output needs both inputs, max output
needs either) and every wire untouched at a level gets an inertia rule, so
wire values at every level are captured bit-for-bit by atoms.  The input
column is the literals the network sorts, of either sign; the sorter columns
after it are one block of fresh atoms (see ``dense_wire_atom_map``), and no
rule negates one.  Each rule is one aspif normal-rule line, formatted from
``ONE_BODY_RULE`` or ``TWO_BODY_RULE``, the only two rule shapes a rewrite
adds.  A rewrite writes a level's lines verbatim as one ``aspif.Raw``
statement; ``verify`` and ``pch`` (through ``analysis.attach_network``)
read the rewrite's text back through ``aspif.parse``.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

from .network import Network

# aspif normal-rule lines ``head :- a`` and ``head :- a, b``
ONE_BODY_RULE = "1 0 1 %d 0 1 %d"
TWO_BODY_RULE = "1 0 1 %d 0 2 %d %d"


def dense_wire_atom_map(
    inputs: Sequence[int], first: int, depth: int
) -> tuple[Sequence[int], ...]:
    """The literals of a network's (wire, level) positions: the inputs, then one block from ``first``.

    Wire i holds ``inputs[i - 1]`` before the network, and atom
    ``first + width * (l - 1) + i - 1`` after level l >= 1; the result holds
    the ``depth + 1`` columns, input column first.
    """
    width = len(inputs)
    return (inputs, *(range(first + width * l, first + width * (l + 1)) for l in range(depth)))


def asp_of_network(network: Network, inputs: Sequence[int], first: int) -> list[str]:
    """Rules capturing every wire value of the network, one aspif line each.

    The network sorts the ``inputs`` literals, and its wire atoms are the
    block ``dense_wire_atom_map`` lays out from ``first``.  Rule count is
    3 * |comparators| plus one inertia rule per untouched (wire, level)
    position.  Each level gives its gates' rules in the order the level holds
    them (ascending i), then its inertia rules by wire; a body holds wire i's
    literal before wire j's, and only level 1's bodies hold input literals.
    """
    columns = dense_wire_atom_map(inputs, first, network.depth)
    lines: list[str] = []
    for level, gates in enumerate(network.levels, 1):
        below, here = columns[level - 1], columns[level]
        untouched = bytearray(b"\x01") * network.width
        for i, j in gates:
            below_i, below_j = below[i - 1], below[j - 1]
            lines.append(TWO_BODY_RULE % (here[i - 1], below_i, below_j))
            lines.append(ONE_BODY_RULE % (here[j - 1], below_i))
            lines.append(ONE_BODY_RULE % (here[j - 1], below_j))
            untouched[i - 1] = untouched[j - 1] = 0
        lines.extend(ONE_BODY_RULE % pair for pair in compress(zip(here, below), untouched))
    return lines
