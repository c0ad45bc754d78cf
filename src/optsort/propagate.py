"""Wire-weight matrices and the weight propagation calculus.

A weight matrix attaches a non-negative integer to every (wire, level)
position of a network.  Propagation moves the minimum boundary weight of a
region from its input column to its output column; the induced linear weight
function over wire values is preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .network import ConfinedNetwork, Decomposition, Network, apply, decompose_sparse


class WeightError(ValueError):
    """Raised for negative weights or shape mismatches."""


@dataclass(frozen=True)
class WeightMatrix:
    """Weights ``a[i][j]`` for wire i in 1..width, level j in 0..depth."""

    width: int
    depth: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
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

    def weight(self, wire: int, level: int) -> int:
        return self.rows[wire - 1][level]

    def column(self, level: int) -> list[int]:
        return [row[level] for row in self.rows]

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


def from_input_weights(input_weights: Sequence[int], depth: int) -> WeightMatrix:
    """Matrix with the given column 0 and zeros everywhere else."""
    for w in input_weights:
        if w < 0:
            raise WeightError(f"negative input weight {w}")
    rows = tuple((w,) + (0,) * depth for w in input_weights)
    return WeightMatrix(len(input_weights), depth, rows)


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
    c = min(weights.column(0))
    if c == 0:
        return weights
    return weights._shifted(range(1, weights.width + 1), 0, weights.depth, c)


def propagate_confined(weights: WeightMatrix, confined: ConfinedNetwork) -> WeightMatrix:
    """Propagate over one confined region.

    The moved amount is the minimum weight on the region's wires at the column
    just before its first level; it is added at the region's last level.  The
    region's comparators themselves are irrelevant here, so a comparator-free
    region over inert wires still shifts weight (inertia keeps values put).
    """
    wires = confined.wires
    if max(wires) > weights.width or confined.max_level > weights.depth:
        raise WeightError(f"region exceeds the {weights.width}x{weights.depth} weight matrix")
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


def propagate_sparse(
    weights: WeightMatrix, network: Network, sparseness: int | None
) -> WeightMatrix:
    """Propagate over the sparse decomposition of the network into level blocks.

    ``sparseness`` is the block size; None means one block over the whole
    depth, so weight lands only on the input and output columns.  A depth-0
    network has nothing to propagate over: the weights come back unchanged.
    """
    if network.depth == 0:
        return weights
    k = network.depth if sparseness is None else sparseness
    return propagate_decomposition(weights, decompose_sparse(network, k))
