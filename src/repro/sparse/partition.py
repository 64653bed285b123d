"""Partition vectors and 2-D tilings (Section 4.1, eqs. (13)–(15)).

A partition vector ``p`` with ``P`` parts over dimension ``n`` is a
non-decreasing integer vector ``0 = p[0] <= ... <= p[P] = n``; part ``i``
is the index range ``[p[i], p[i+1])``. MG-GCN uses *symmetric* uniform
partitioning (``p == q``) of the permuted adjacency matrix, relying on
the random permutation for nnz balance (§5.2); a nnz-balanced partition
is also provided for ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.config import INDEX_DTYPE, OFFSET_DTYPE
from repro.errors import PartitionError
from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class PartitionVector:
    """An immutable partition vector."""

    boundaries: Tuple[int, ...]

    def __post_init__(self) -> None:
        b = self.boundaries
        if len(b) < 2:
            raise PartitionError(f"partition vector needs >= 2 boundaries, got {b!r}")
        if b[0] != 0:
            raise PartitionError(f"partition vector must start at 0, got {b!r}")
        if any(b[i] > b[i + 1] for i in range(len(b) - 1)):
            raise PartitionError(f"partition vector must be non-decreasing: {b!r}")

    @property
    def num_parts(self) -> int:
        return len(self.boundaries) - 1

    @property
    def total(self) -> int:
        """The partitioned dimension ``n``."""
        return self.boundaries[-1]

    def part(self, i: int) -> Tuple[int, int]:
        """Half-open index range of part ``i``."""
        if not (0 <= i < self.num_parts):
            raise PartitionError(f"part {i} out of range for {self.num_parts} parts")
        return self.boundaries[i], self.boundaries[i + 1]

    def size(self, i: int) -> int:
        lo, hi = self.part(i)
        return hi - lo

    def sizes(self) -> List[int]:
        return [self.size(i) for i in range(self.num_parts)]

    def owner(self, index: int) -> int:
        """The part containing global ``index``."""
        if not (0 <= index < self.total):
            raise PartitionError(f"index {index} out of range [0, {self.total})")
        # searchsorted over the boundary array; 'right' so boundary indices
        # belong to the part that starts at them.
        return int(np.searchsorted(np.asarray(self.boundaries), index, side="right") - 1)

    def owners(self, indices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`owner`: the owning part of every index.

        One ``searchsorted`` over the whole batch — this is the shard
        routing step of the serving path, evaluated per frontier, so it
        must not loop in Python.
        """
        indices = np.asarray(indices)
        if indices.size and (
            indices.min() < 0 or indices.max() >= self.total
        ):
            raise PartitionError(
                f"index out of range [0, {self.total}) in owners() batch"
            )
        boundaries = np.asarray(self.boundaries)
        return (
            np.searchsorted(boundaries, indices, side="right") - 1
        ).astype(np.int64)

    def __iter__(self):
        for i in range(self.num_parts):
            yield self.part(i)


def uniform_partition(n: int, parts: int) -> PartitionVector:
    """Split ``[0, n)`` into ``parts`` near-equal contiguous ranges.

    The first ``n % parts`` parts get one extra element, matching the
    usual block distribution.
    """
    if parts <= 0:
        raise PartitionError(f"need a positive part count, got {parts}")
    if n < 0:
        raise PartitionError(f"cannot partition negative length {n}")
    base, extra = divmod(n, parts)
    boundaries = [0]
    for i in range(parts):
        boundaries.append(boundaries[-1] + base + (1 if i < extra else 0))
    return PartitionVector(tuple(boundaries))


def balanced_nnz_partition(matrix: CSRMatrix, parts: int) -> PartitionVector:
    """Row partition balancing stored entries per part.

    A greedy prefix scan over the row-nnz cumulative sum: part boundaries
    are placed where the running nnz crosses multiples of ``nnz/parts``.
    Used by the ablation benches to compare against the paper's
    permutation-based balancing.
    """
    if parts <= 0:
        raise PartitionError(f"need a positive part count, got {parts}")
    n = matrix.shape[0]
    cumulative = matrix.indptr[1:]  # nnz up to and including each row
    total = matrix.nnz
    boundaries = [0]
    for i in range(1, parts):
        target = total * i / parts
        boundary = int(np.searchsorted(cumulative, target, side="left")) + 1
        boundary = max(boundary, boundaries[-1])
        boundary = min(boundary, n)
        boundaries.append(boundary)
    boundaries.append(n)
    return PartitionVector(tuple(boundaries))


def tile_grid(
    matrix: CSRMatrix, row_parts: PartitionVector, col_parts: PartitionVector
) -> List[List[CSRMatrix]]:
    """The full 2-D tiling ``A^{ij}`` of eq. (15).

    Returns ``tiles[i][j]`` = sub-matrix of rows ``row_parts.part(i)`` and
    columns ``col_parts.part(j)`` with re-based indices — the tiles
    :meth:`CSRMatrix.tile` cuts, built in one pass per row block: each
    entry's column part (one ``searchsorted``), the entries grouped by
    part in their row-major order (one stable argsort), and every
    tile's row counts (one ``bincount``).
    """
    if row_parts.total != matrix.shape[0]:
        raise PartitionError(
            f"row partition covers {row_parts.total}, matrix has {matrix.shape[0]} rows"
        )
    if col_parts.total != matrix.shape[1]:
        raise PartitionError(
            f"col partition covers {col_parts.total}, matrix has {matrix.shape[1]} cols"
        )
    Q = col_parts.num_parts
    col_bounds = np.asarray(col_parts.boundaries, dtype=INDEX_DTYPE)
    tiles: List[List[CSRMatrix]] = []
    for r0, r1 in row_parts:
        rows = r1 - r0
        lo, hi = int(matrix.indptr[r0]), int(matrix.indptr[r1])
        cols = matrix.indices[lo:hi]
        vals = matrix.vals[lo:hi]
        part = np.searchsorted(col_bounds[1:-1], cols, side="right")
        # the narrowest dtype holding a part id makes the stable sort a
        # radix sort.
        order = np.argsort(part.astype(np.min_scalar_type(Q)), kind="stable")
        row = np.repeat(
            np.arange(rows, dtype=OFFSET_DTYPE),
            np.diff(matrix.indptr[r0 : r1 + 1]),
        )
        counts = np.bincount(
            part * rows + row, minlength=Q * rows
        ).reshape(Q, rows)
        # entry offsets of each tile inside ``order``
        ends = np.cumsum(counts.sum(axis=1))
        row_tiles: List[CSRMatrix] = []
        for j in range(Q):
            start = int(ends[j - 1]) if j else 0
            take = order[start : int(ends[j])]
            indptr = np.zeros(rows + 1, dtype=OFFSET_DTYPE)
            np.cumsum(counts[j], out=indptr[1:])
            row_tiles.append(CSRMatrix(
                (rows, int(col_bounds[j + 1] - col_bounds[j])),
                indptr,
                (cols[take] - col_bounds[j]).astype(INDEX_DTYPE),
                vals[take],
                validate=False,
            ))
        tiles.append(row_tiles)
    return tiles


def tile_nnz_matrix(
    matrix: CSRMatrix, row_parts: PartitionVector, col_parts: PartitionVector
) -> np.ndarray:
    """nnz of every ``A^{ij}`` tile without materialising the tiles.

    ``out[i, j]`` is the stored-entry count of tile ``(i, j)``; this is
    the load-balance diagnostic behind Figures 6/7 (computation time of a
    stage is proportional to its tile's nnz).
    """
    if row_parts.total != matrix.shape[0] or col_parts.total != matrix.shape[1]:
        raise PartitionError("partition vectors do not match matrix shape")
    col_boundaries = np.asarray(col_parts.boundaries[1:-1])
    out = np.zeros((row_parts.num_parts, col_parts.num_parts), dtype=np.int64)
    for i in range(row_parts.num_parts):
        r0, r1 = row_parts.part(i)
        cols = matrix.indices[matrix.indptr[r0] : matrix.indptr[r1]]
        tile_of_col = np.searchsorted(col_boundaries, cols, side="right")
        np.add.at(out[i], tile_of_col, 1)
    return out
