"""Compare-exchange networks: construction, evaluation, decomposition and rendering.

Wires are numbered 1..n top to bottom and levels 1..d left to right; level 0
denotes the input column.  A network stores its gates level by level, as
it is built and read.  All values are immutable once built.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence


class NetworkError(ValueError):
    """Raised for malformed comparators, networks or decompositions."""


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


class _ConfinedNetwork(NamedTuple):
    wires: frozenset[int]
    min_level: int
    max_level: int


class ConfinedNetwork(_ConfinedNetwork):
    """A region of a network: a wire set over a contiguous level interval.

    The region's gates are the network's own gates inside it; propagation
    reads only the wires and the interval, so the region does not hold them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ConfinedNetwork:
        self = super().__new__(cls, *args, **kwargs)
        if not self.wires or min(self.wires) < 1:
            raise NetworkError(f"region needs one or more wires >= 1, got {sorted(self.wires)}")
        if self.min_level > self.max_level or self.min_level < 1:
            raise NetworkError(
                f"level interval {self.min_level}..{self.max_level} is empty or invalid"
            )
        return self


class _Decomposition(NamedTuple):
    components: tuple[ConfinedNetwork, ...] = ()


class Decomposition(_Decomposition):
    """An ordered list of pairwise compatible regions covering a network.

    The order respects data flow: a component never depends on the output of a
    later one (min level of an earlier component <= max level of any later one).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Decomposition:
        self = super().__new__(cls, *args, **kwargs)
        # Components sharing an identical level interval must have disjoint
        # wires; groups with merely overlapping intervals must as well.
        by_interval: dict[tuple[int, int], set[int]] = {}
        for comp in self.components:
            key = (comp.min_level, comp.max_level)
            seen = by_interval.setdefault(key, set())
            if seen & comp.wires:
                raise NetworkError("components with equal level intervals share wires")
            seen |= comp.wires
        intervals = sorted(by_interval)
        for idx, key in enumerate(intervals):
            for later in intervals[idx + 1 :]:
                if later[0] > key[1]:
                    break
                shared = by_interval[key] & by_interval[later]
                if shared:
                    raise NetworkError(
                        f"incompatible components over wires {sorted(shared)}"
                    )
        running_min = None
        for comp in self.components:
            if running_min is not None and running_min > comp.max_level:
                raise NetworkError("component order violates data-flow ordering")
            running_min = (
                comp.min_level if running_min is None else max(running_min, comp.min_level)
            )
        return self


def whole_network_decomposition(network: Network) -> Decomposition:
    """The coarsest decomposition: the entire network as one component."""
    if network.depth == 0 or network.width == 0:
        return Decomposition(())
    comp = ConfinedNetwork(frozenset(range(1, network.width + 1)), 1, network.depth)
    return Decomposition((comp,))


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
    below that subcolumn's last gate; it takes the first such.  A level
    without gates draws as one empty subcolumn.
    """
    subcolumns: list[list[tuple[int, int]]] = []
    for gate in gates:
        for sub in subcolumns:
            if sub[-1][1] < gate[0]:
                sub.append(gate)
                break
        else:
            subcolumns.append([gate])
    return subcolumns or [[]]


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
