"""Comparator networks: construction, evaluation, decomposition and rendering.

Wires are numbered 1..n top to bottom and levels 1..d left to right; level 0
denotes the input column.  All values are immutable once built.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence


class NetworkError(ValueError):
    """Raised for malformed comparators, networks or decompositions."""


class Comparator(NamedTuple):
    """A compare-exchange gate between wires ``i < j`` at a 1-based level."""

    i: int
    j: int
    level: int


def _check_comparator(c: Comparator, width: int, depth: int) -> None:
    if not (1 <= c.i < c.j):
        raise NetworkError(f"comparator wires must satisfy 1 <= i < j, got {c}")
    if c.j > width:
        raise NetworkError(f"comparator {c} exceeds width {width}")
    if not (1 <= c.level <= depth):
        raise NetworkError(f"comparator {c} outside level range 1..{depth}")


class Network(NamedTuple):
    """A set of mutually compatible comparators on ``width`` wires.

    ``depth`` is the declared number of levels; trailing levels may be empty
    (the declared value is authoritative, levels are never renumbered).
    """

    width: int
    depth: int
    comparators: tuple[Comparator, ...]

    def layers(self) -> dict[int, list[Comparator]]:
        """Comparators grouped by level; levels with no gates are absent."""
        out: dict[int, list[Comparator]] = {}
        for c in self.comparators:
            out.setdefault(c.level, []).append(c)
        return out

    def size(self) -> int:
        return len(self.comparators)


def new_network(
    width: int,
    declared_depth: int,
    comparators: Iterable[Comparator | tuple[int, int, int]],
) -> Network:
    """Validate and build a network; duplicate comparators are dropped.

    Rejects out-of-range wires or levels and any two distinct comparators that
    share a wire on the same level.
    """
    if width < 0:
        raise NetworkError(f"width must be >= 0, got {width}")
    if declared_depth < 0:
        raise NetworkError(f"depth must be >= 0, got {declared_depth}")
    unique = sorted({Comparator(*c) for c in comparators}, key=lambda c: (c.level, c.i, c.j))
    seen_at_level: dict[int, set[int]] = {}
    for c in unique:
        _check_comparator(c, width, declared_depth)
        used = seen_at_level.setdefault(c.level, set())
        if c.i in used or c.j in used:
            raise NetworkError(f"comparator {c} overlaps another on level {c.level}")
        used.add(c.i)
        used.add(c.j)
    return Network(width, declared_depth, tuple(unique))


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
    layers = network.layers()
    current = list(input)
    for level in range(1, network.depth + 1):
        for c in layers.get(level, ()):
            a, b = current[c.i - 1], current[c.j - 1]
            if a > b:
                current[c.i - 1], current[c.j - 1] = b, a
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


def _oe_merge(wires: list[int], base: int, stop: float) -> tuple[list[Comparator], int]:
    # Merges two sorted halves of a power-of-two wire list; depth log2(len).
    # Nothing is built once ``base`` reaches ``stop``: all its levels are later.
    m = len(wires)
    if base >= stop:
        return [], m.bit_length() - 1
    if m <= 1:
        return [], 0
    if m == 2:
        return [Comparator(wires[0], wires[1], base + 1)], 1
    odd, d1 = _oe_merge(wires[0::2], base, stop)
    even, d2 = _oe_merge(wires[1::2], base, stop)
    d = max(d1, d2)
    final = [
        Comparator(wires[p], wires[p + 1], base + d + 1) for p in range(1, m - 1, 2)
    ]
    return odd + even + final, d + 1


def _oe_sort(wires: list[int], base: int, stop: float) -> tuple[list[Comparator], int]:
    m = len(wires)
    if base >= stop:
        p = m.bit_length() - 1
        return [], p * (p + 1) // 2
    if m <= 1:
        return [], 0
    half = m // 2
    lo, d1 = _oe_sort(wires[:half], base, stop)
    hi, d2 = _oe_sort(wires[half:], base, stop)
    d = max(d1, d2)
    merged, dm = _oe_merge(wires, base + d, stop)
    return lo + hi + merged, d + dm


def oe_sorter(n: int, depth: int | None = None) -> Network:
    """Odd-even mergesort network on n wires, cut to its first ``depth`` levels.

    Built on the next power of two; comparators touching the phantom high
    wires are dropped (phantom values sort as plus infinity), so the full
    network still sorts every input.  Depth is O(log^2 n), size O(n log^2 n).
    With a ``depth``, sub-sorts and merges that start at or beyond it are
    never built, and ``limit_depth`` trims the rest.
    """
    if n < 0:
        raise NetworkError(f"wire count must be >= 0, got {n}")
    if n <= 1:
        network = Network(n, 0, ())
    else:
        pot = 1 << (n - 1).bit_length()
        stop = math.inf if depth is None else depth
        comparators, full_depth = _oe_sort(list(range(1, pot + 1)), 0, stop)
        network = new_network(n, full_depth, [c for c in comparators if c.j <= n])
    return network if depth is None else limit_depth(network, depth)


def limit_depth(network: Network, d_max: int) -> Network:
    """Sub-network of comparators at levels <= d_max; width unchanged."""
    if d_max < 0:
        raise NetworkError(f"depth limit must be >= 0, got {d_max}")
    depth = min(network.depth, d_max)
    kept = tuple(c for c in network.comparators if c.level <= d_max)
    return Network(network.width, depth, kept)


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
        groups: dict[int, set[int]] = {}
        for c in block:
            groups.setdefault(find(c.i), set()).update((c.i, c.j))
        parts = list(groups.values())
        untouched = set(range(1, n + 1)).difference(*parts)
        if untouched:
            parts.append(untouched)
        parts.sort(key=min)
        components.extend(ConfinedNetwork(frozenset(wires), lo, hi) for wires in parts)
        lo = hi + 1
    return Decomposition(tuple(components))


def render_diagram(
    network: Network,
    annotations: dict[tuple[int, int], str] | None = None,
) -> str:
    """Plain-text drawing: one row per wire, comparators as vertical ties.

    ``annotations`` maps (wire, level) to a label drawn on the wire right
    after that level's column (level 0 labels sit at the far left).
    """
    annotations = annotations or {}
    for (wire, level) in annotations:
        if not (1 <= wire <= network.width and 0 <= level <= network.depth):
            raise NetworkError(f"annotation position ({wire}, {level}) out of range")
    n = network.width
    layers = network.layers()

    def label_cells(level: int) -> list[str]:
        texts = {w: annotations.get((w, level), "") for w in range(1, n + 1)}
        width = max((len(t) for t in texts.values()), default=0)
        if width == 0:
            return ["" for _ in range(n)]
        return [texts[w].rjust(width, "-") + "-" for w in range(1, n + 1)]

    rows = [["-"] for _ in range(n)]
    for cell, row in zip(label_cells(0), rows):
        row.append(cell)
    for level in range(1, network.depth + 1):
        gates = sorted(layers.get(level, []), key=lambda c: (c.i, c.j))
        subcolumns: list[list[Comparator]] = []
        for c in gates:
            for sub in subcolumns:
                if all(c.i > s.j or c.j < s.i for s in sub):
                    sub.append(c)
                    break
            else:
                subcolumns.append([c])
        for sub in subcolumns:
            for w in range(1, n + 1):
                ch = "-"
                for c in sub:
                    if w in (c.i, c.j):
                        ch = "o"
                    elif c.i < w < c.j:
                        ch = "+"
                rows[w - 1].append(ch + "-")
        if not subcolumns:
            for row in rows:
                row.append("--")
        for cell, row in zip(label_cells(level), rows):
            row.append(cell)
    return "\n".join("".join(row) + "-" for row in rows)
