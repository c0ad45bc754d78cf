"""Compare-exchange networks: construction, decomposition and rendering.

Wires are numbered 1..n top to bottom and levels 1..d left to right; level 0
denotes the input column.  A network stores its gates level by level, as
it is built and read.  All values are immutable once built.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import NamedTuple, Sequence


class NetworkError(ValueError):
    """Raised for out-of-range network parameters, annotations and drawing sizes."""


class Network(NamedTuple):
    """A comparator network on ``width`` wires: ``levels[l - 1]`` holds level
    l's gates as wire pairs ``(i, j)``, i < j, no two sharing a wire, in
    ascending i.  A level may be empty; levels are never renumbered.
    """

    width: int
    levels: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def size(self) -> int:
        return sum(map(len, self.levels))


def oe_sorter(n: int, depth: int | None = None) -> Network:
    """Odd-even mergesort network on n wires, cut to its first ``depth`` levels.

    Batcher's network, built level by level as in Knuth (TAOCP vol. 3,
    5.3.4): merge stage p = 1, 2, 4, ... takes one level per stride
    k = p, p/2, ..., 1, and compares i with i + k where both lie in the same
    block of 2p.  Laid out on the next power of two, it leaves out every
    comparator that would touch a phantom wire above n (phantom values sort
    as plus infinity), so the full network still sorts every input.  Depth is
    O(log^2 n), size O(n log^2 n).  Each level's gates come out in
    ascending i, and no level past ``depth`` is built.
    """
    if n < 0:
        raise NetworkError(f"wire count must be >= 0, got {n}")
    if depth is not None and depth < 0:
        raise NetworkError(f"depth limit must be >= 0, got {depth}")
    levels: list[tuple[tuple[int, int], ...]] = []
    p = 1
    while p < n:
        k = p
        while k and len(levels) != depth:
            levels.append(tuple(
                (i + 1, i + k + 1)
                for j in range(k % p, n - k, 2 * k)
                for i in range(j, min(j + k, n - k))
                if i // (2 * p) == (i + k) // (2 * p)
            ))
            k //= 2
        p *= 2
    return Network(n, tuple(levels))


def limit_depth(network: Network, d_max: int) -> Network:
    """Sub-network of the levels up to d_max; width unchanged."""
    if d_max < 0:
        raise NetworkError(f"depth limit must be >= 0, got {d_max}")
    return Network(network.width, network.levels[:d_max])


class ConfinedNetwork(NamedTuple):
    """A region of a network: a wire set over a contiguous level interval.

    The region's gates are the network's own gates inside it; propagation
    reads only the wires and the interval, so the region does not hold them.
    """

    wires: frozenset[int]
    min_level: int
    max_level: int


class Decomposition(NamedTuple):
    """An ordered list of pairwise compatible regions covering a network.

    The order respects data flow: a component never depends on the output of a
    later one (min level of an earlier component <= max level of any later one).
    """

    components: tuple[ConfinedNetwork, ...] = ()


def decompose_sparse(network: Network, k: int) -> Decomposition:
    """Partition into level blocks of size k refined by connected wire groups.

    Levels are grouped as 1..k, k+1..2k, ... (last block ends at the declared
    depth).  Within a block, wires connected through the block's comparators
    form one component each, and all wires free of comparators in that block
    form one extra component, so weight can keep flowing over them.
    """
    if k < 1:
        raise NetworkError(f"sparseness factor must be >= 1, got {k}")
    components: list[ConfinedNetwork] = []
    n = network.width
    lo = 1
    while lo <= network.depth:
        hi = min(lo + k - 1, network.depth)
        block = [gate for gates in network.levels[lo - 1 : hi] for gate in gates]
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
        groups: dict[int, set[int]] = {}
        for i, j in block:
            groups.setdefault(find(i), set()).update((i, j))
        parts = list(groups.values())
        untouched = set(range(1, n + 1)).difference(*parts)
        if untouched:
            parts.append(untouched)
        parts.sort(key=min)
        components.extend(ConfinedNetwork(frozenset(wires), lo, hi) for wires in parts)
        lo = hi + 1
    return Decomposition(tuple(components))


# bytes a drawing may take with its closing newline: the full sorter on 4096
# wires (67 MB) is drawn, the one on 8192 wires (268 MB) is refused
RENDER_BYTE_BUDGET = 1 << 27


def _subcolumns(gates: Sequence[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """A level's gates packed into the subcolumns that draw them.

    Gates come in ascending i, so a gate fits a subcolumn when it starts
    below that subcolumn's last gate; it takes the first such.  A subcolumn
    that fits one gate fits every later gate until it takes one, so the
    fitting subcolumns wait in a heap of their indices, and the others in a
    heap keyed by the end of their last gate.  A level without gates draws
    as one empty subcolumn.
    """
    subcolumns: list[list[tuple[int, int]]] = []
    free: list[int] = []
    busy: list[tuple[int, int]] = []  # (end of the last gate, subcolumn index)
    for gate in gates:
        while busy and busy[0][0] < gate[0]:
            heappush(free, heappop(busy)[1])
        if free:
            index = heappop(free)
            subcolumns[index].append(gate)
        else:
            index = len(subcolumns)
            subcolumns.append([gate])
        heappush(busy, (gate[1], index))
    return subcolumns or [[]]


def layout_diagram(
    network: Network, annotations: dict[tuple[int, int], str]
) -> tuple[list[list[list[tuple[int, int]]]], list[int]]:
    """Each level's subcolumns and each column's label width, once the
    annotations and the drawing's size are checked (see ``render_diagram``).

    Labels only widen a drawing, so the drawing without them bounds the
    labelled one from below.
    """
    for (wire, level) in annotations:
        if not (1 <= wire <= network.width and 0 <= level <= network.depth):
            raise NetworkError(f"annotation position ({wire}, {level}) out of range")
    n = network.width
    columns = [_subcolumns(gates) for gates in network.levels]
    label_widths = [0] * (network.depth + 1)
    for (_, level), text in annotations.items():
        label_widths[level] = max(label_widths[level], len(text))
    # a row is its two end cells, two bytes per subcolumn and a padded label
    # cell per labelled column; a non-ASCII label adds its extra bytes
    row_bytes = 2 + 2 * sum(map(len, columns)) + sum(w + 1 for w in label_widths if w)
    size = max(n * (row_bytes + 1), 1) + sum(
        len(t.encode()) - len(t) for t in annotations.values()
    )
    if size > RENDER_BYTE_BUDGET:
        raise NetworkError(
            f"a drawing of {n} wires would take {size} bytes, "
            f"over the budget of {RENDER_BYTE_BUDGET}"
        )
    return columns, label_widths


def render_diagram(
    network: Network,
    annotations: dict[tuple[int, int], str] | None = None,
) -> bytes:
    """Plain-text drawing as UTF-8 bytes: one row per wire, comparators as
    vertical ties, rows joined by newlines.

    ``annotations`` maps (wire, level) to a label drawn on the wire right
    after that level's column (level 0 labels sit at the far left).  A
    drawing that would take more than ``RENDER_BYTE_BUDGET`` bytes with a
    closing newline is refused before any of it is drawn.
    """
    annotations = annotations or {}
    columns, label_widths = layout_diagram(network, annotations)
    n = network.width

    # one bytearray per wire, so a drawing takes a byte per character, and
    # once more when the rows are joined
    rows = [bytearray(b"-") for _ in range(n)]

    def add_labels(level: int) -> None:
        width = label_widths[level]
        if width:
            for wire, row in enumerate(rows, 1):
                row += (annotations.get((wire, level), "").rjust(width, "-") + "-").encode()

    add_labels(0)
    for level, subcolumns in enumerate(columns, 1):
        for sub in subcolumns:
            cells = [b"--"] * n
            for i, j in sub:
                cells[i - 1 : j] = [b"o-", *[b"+-"] * (j - i - 1), b"o-"]
            for cell, row in zip(cells, rows):
                row += cell
        add_labels(level)
    for row in rows:
        row += b"-"
    return b"\n".join(rows)
