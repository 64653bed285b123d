"""Coordinate-format sparse matrices (construction/interchange format).

COO is the library's ingestion format: graph generators produce edge
lists, which are deduplicated/sorted here and converted to
:class:`~repro.sparse.csr.CSRMatrix` for computation, mirroring the
paper's pipeline (PIGO edge lists -> CSR for cuSPARSE).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config import FLOAT_DTYPE, INDEX_DTYPE, OFFSET_DTYPE
from repro.errors import ShapeError


def _owned(arr: np.ndarray, given) -> np.ndarray:
    """``arr``, copied if it may share memory with the caller's ``given``."""
    if isinstance(given, np.ndarray) and np.may_share_memory(arr, given):
        return arr.copy()
    return arr


class COOMatrix:
    """A sparse matrix as parallel (row, col, val) arrays.

    Invariants (established by the constructor):

    * ``rows``/``cols`` are within ``shape``;
    * entries are sorted by (row, col);
    * duplicate coordinates are summed.
    """

    __slots__ = ("shape", "rows", "cols", "vals")

    def __init__(
        self,
        shape: Tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: Optional[np.ndarray] = None,
        sum_duplicates: bool = True,
    ):
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if n_rows < 0 or n_cols < 0:
            raise ShapeError(f"negative matrix shape {shape}")
        given_rows, given_cols, given_vals = rows, cols, vals
        rows = np.asarray(rows, dtype=OFFSET_DTYPE).ravel()
        cols = np.asarray(cols, dtype=OFFSET_DTYPE).ravel()
        if rows.shape != cols.shape:
            raise ShapeError(
                f"rows and cols length mismatch: {rows.shape} vs {cols.shape}"
            )
        if vals is None:
            vals = np.ones(rows.shape[0], dtype=FLOAT_DTYPE)
        else:
            vals = np.asarray(vals, dtype=FLOAT_DTYPE).ravel()
            if vals.shape != rows.shape:
                raise ShapeError(
                    f"vals length mismatch: {vals.shape} vs {rows.shape}"
                )
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ShapeError(f"row index out of range for {n_rows} rows")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ShapeError(f"col index out of range for {n_cols} cols")
        keys = rows * n_cols + cols
        if keys.size < 2 or (keys[1:] > keys[:-1]).all():
            # already canonical (sorted, no duplicates), so the sort
            # would be the identity: an O(m) check instead of O(m log m).
            # Still own the arrays, as the sort's gather would.
            rows, cols, vals = (
                _owned(rows, given_rows),
                _owned(cols, given_cols),
                _owned(vals, given_vals),
            )
        else:
            # canonical order: sort by (row, col)
            order = np.lexsort((cols, rows))
            rows, cols, vals = rows[order], cols[order], vals[order]
            if sum_duplicates:
                keys = rows * n_cols + cols
                unique_mask = np.empty(rows.size, dtype=bool)
                unique_mask[0] = True
                np.not_equal(keys[1:], keys[:-1], out=unique_mask[1:])
                if not unique_mask.all():
                    group_ids = np.cumsum(unique_mask) - 1
                    summed = np.zeros(group_ids[-1] + 1, dtype=vals.dtype)
                    np.add.at(summed, group_ids, vals)
                    rows = rows[unique_mask]
                    cols = cols[unique_mask]
                    vals = summed
        self.shape = (n_rows, n_cols)
        self.rows = rows
        self.cols = cols
        self.vals = vals

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: np.ndarray,
        symmetrize: bool = False,
        vals: Optional[np.ndarray] = None,
    ) -> "COOMatrix":
        """Build an adjacency matrix from an ``(m, 2)`` edge array.

        ``symmetrize=True`` adds the reverse of every edge (GNN benchmark
        graphs are used undirected).
        """
        edges = np.asarray(edges, dtype=OFFSET_DTYPE)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ShapeError(f"edges must be (m, 2), got {edges.shape}")
        rows, cols = edges[:, 0], edges[:, 1]
        if symmetrize:
            rows = np.concatenate([rows, edges[:, 1]])
            cols = np.concatenate([cols, edges[:, 0]])
            if vals is not None:
                vals = np.concatenate([vals, vals])
        return cls((num_vertices, num_vertices), rows, cols, vals)

    # -- queries ---------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    def to_dense(self) -> np.ndarray:
        """Dense copy (small matrices / tests only)."""
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        out[self.rows, self.cols] = self.vals
        return out

    def transpose(self) -> "COOMatrix":
        """The transposed matrix (re-canonicalised)."""
        return COOMatrix(
            (self.shape[1], self.shape[0]), self.cols, self.rows, self.vals
        )

    def row_degrees(self) -> np.ndarray:
        """Number of stored entries per row."""
        deg = np.zeros(self.shape[0], dtype=OFFSET_DTYPE)
        np.add.at(deg, self.rows, 1)
        return deg

    def col_degrees(self) -> np.ndarray:
        """Number of stored entries per column."""
        deg = np.zeros(self.shape[1], dtype=OFFSET_DTYPE)
        np.add.at(deg, self.cols, 1)
        return deg

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"
