"""Translation of comparator networks into negation-free aspif rules.

Each comparator becomes three rules (min output needs both inputs, max output
needs either) and every wire untouched at a level gets an inertia rule, so
wire values at every level are captured bit-for-bit by atoms.  A network's
atoms are one block (see ``dense_wire_atom_map``).  Each rule is one aspif
normal-rule line, formatted from ``ONE_BODY_RULE`` or ``TWO_BODY_RULE``, the
only two rule shapes a rewrite adds.  A rewrite writes a level's lines
verbatim as one ``aspif.Raw`` statement; ``verify`` and
``analysis.attach_network`` read them back through ``aspif.parse``.
"""

from __future__ import annotations

from itertools import compress

from .network import Network

# aspif normal-rule lines ``head :- a`` and ``head :- a, b``
ONE_BODY_RULE = "1 0 1 %d 0 1 %d"
TWO_BODY_RULE = "1 0 1 %d 0 2 %d %d"


def dense_wire_atom_map(first: int, width: int, depth: int) -> tuple[range, ...]:
    """The atoms of a network's (wire, level) positions, one block from ``first``.

    Wire i after level l is atom ``first + width * l + i - 1``; the result
    holds the ``depth + 1`` columns, input column first.
    """
    return tuple(range(first + width * l, first + width * (l + 1)) for l in range(depth + 1))


def asp_of_network(network: Network, first: int) -> list[str]:
    """Rules capturing every wire value of the network, one aspif line each.

    The wire atoms are the block ``dense_wire_atom_map`` lays out from
    ``first``.  Rule count is 3 * |comparators| plus one inertia rule per
    untouched (wire, level) position.  Each level gives its gates' rules in
    the order the level holds them (ascending i), then its inertia rules by
    wire; each body is positive, in ascending atom order.
    """
    columns = dense_wire_atom_map(first, network.width, network.depth)
    lines: list[str] = []
    for level, gates in enumerate(network.levels, 1):
        below, here = columns[level - 1], columns[level]
        untouched = bytearray(b"\x01") * network.width
        for i, j in gates:
            # i < j, so the block numbers wire i's atom below wire j's
            below_i, below_j = below[i - 1], below[j - 1]
            lines.append(TWO_BODY_RULE % (here[i - 1], below_i, below_j))
            lines.append(ONE_BODY_RULE % (here[j - 1], below_i))
            lines.append(ONE_BODY_RULE % (here[j - 1], below_j))
            untouched[i - 1] = untouched[j - 1] = 0
        lines.extend(ONE_BODY_RULE % pair for pair in compress(zip(here, below), untouched))
    return lines
