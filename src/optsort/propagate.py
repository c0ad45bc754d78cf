"""Wire-weight matrices and the weight propagation calculus.

A weight matrix attaches a non-negative integer to every (wire, level)
position of a network.  Propagation moves the minimum boundary weight of a
region from its input column to its output column; the induced linear weight
function over wire values is preserved exactly.  ``propagate_decomposition``
folds that move over the regions of a decomposition, such as the level
blocks that ``network.decompose_sparse`` cuts.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .network import ConfinedNetwork, Decomposition


class WeightError(ValueError):
    """Raised for negative weights or shape mismatches."""


class _WeightMatrix(NamedTuple):
    width: int
    depth: int
    rows: tuple[tuple[int, ...], ...]

    def weight(self, wire: int, level: int) -> int:
        return self.rows[wire - 1][level]

    def nonzero_entries(self) -> list[tuple[int, int, int]]:
        """(wire, level, weight) triples with weight > 0, ordered by level then wire."""
        out = [
            (i + 1, j, w)
            for i, row in enumerate(self.rows)
            for j, w in enumerate(row)
            if w
        ]
        out.sort(key=lambda t: (t[1], t[0]))
        return out

    def _shifted(self, wires: Iterable[int], src: int, dst: int, amount: int) -> "WeightMatrix":
        rows = [list(row) for row in self.rows]
        for w in wires:
            rows[w - 1][src] -= amount
            rows[w - 1][dst] += amount
        return WeightMatrix(self.width, self.depth, tuple(tuple(r) for r in rows))


class WeightMatrix(_WeightMatrix):
    """Weights ``a[i][j]`` for wire i in 1..width, level j in 0..depth."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> WeightMatrix:
        self = super().__new__(cls, *args, **kwargs)
        if len(self.rows) != self.width:
            raise WeightError(f"expected {self.width} weight rows, got {len(self.rows)}")
        for row in self.rows:
            if len(row) != self.depth + 1:
                raise WeightError(
                    f"expected {self.depth + 1} weight columns, got {len(row)}"
                )
            for w in row:
                if w < 0:
                    raise WeightError(f"negative weight {w}")
        return self


def from_input_weights(input_weights: Sequence[int], depth: int) -> WeightMatrix:
    """Matrix with the given column 0 and zeros everywhere else."""
    for w in input_weights:
        if w < 0:
            raise WeightError(f"negative input weight {w}")
    rows = tuple((w,) + (0,) * depth for w in input_weights)
    return WeightMatrix(len(input_weights), depth, rows)


def propagate_confined(weights: WeightMatrix, confined: ConfinedNetwork) -> WeightMatrix:
    """Propagate over one confined region.

    The moved amount is the minimum weight on the region's wires at the column
    just before its first level; it is added at the region's last level.  The
    region's comparators themselves are irrelevant here, so a comparator-free
    region over inert wires still shifts weight (inertia keeps values put).
    """
    wires = confined.wires
    # wire 0 would index the last row, and level 0 would move weight out of
    # the last column
    if not (
        wires and min(wires) >= 1 and max(wires) <= weights.width
        and 1 <= confined.min_level <= confined.max_level <= weights.depth
    ):
        raise WeightError(
            f"region must hold wires in 1..{weights.width} over a nonempty "
            f"level interval in 1..{weights.depth}"
        )
    src = confined.min_level - 1
    c = min(weights.weight(w, src) for w in wires)
    if c == 0:
        return weights
    return weights._shifted(wires, src, confined.max_level, c)


def propagate_decomposition(weights: WeightMatrix, decomposition: Decomposition) -> WeightMatrix:
    """Fold propagation over the decomposition's components left to right."""
    for component in decomposition.components:
        weights = propagate_confined(weights, component)
    return weights
