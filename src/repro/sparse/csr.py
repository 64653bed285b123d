"""Compressed Sparse Row matrices and the vectorised SpMM kernel.

CSR is the computation format, exactly as in the paper (cuSPARSE CSR
SpMM). The SpMM here is a pure-NumPy vectorised kernel: it gathers the
dense operand's rows for every nonzero and segment-sums them with
``np.add.reduceat`` — O(nnz * d) work with no Python-level loops over
nonzeros, following the vectorisation idioms of the HPC guides.

The class also provides the tiling operations (:meth:`row_block`,
:meth:`tile`) the 1D distribution of Section 4.1 is built from.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.config import FLOAT_DTYPE, INDEX_DTYPE, OFFSET_DTYPE
from repro.errors import PartitionError, ShapeError
from repro.sparse.coo import COOMatrix

_CSR_MATVECS = False  # unresolved sentinel; None once probed and absent
_INT32_MAX = int(np.iinfo(np.int32).max)


def _csr_matvecs():
    """SciPy's compiled ``Y += A @ X`` CSR kernel, or ``None``.

    ``scipy.sparse._sparsetools.csr_matvecs`` accumulates directly into
    the output buffer, so :meth:`CSRMatrix.spmm_into` can feed it the
    destination tensor and skip both the operator-dispatch layer and the
    temporary product array. It is a private module, hence the guarded
    probe with a graceful ``None`` (callers fall back to ``A @ X``).
    """
    global _CSR_MATVECS
    if _CSR_MATVECS is False:
        try:
            from scipy.sparse._sparsetools import csr_matvecs
        except ImportError:  # pragma: no cover - scipy layout changed
            csr_matvecs = None
        _CSR_MATVECS = csr_matvecs
    return _CSR_MATVECS


class CSRMatrix:
    """A sparse matrix in CSR format.

    Invariants:

    * ``indptr`` has length ``shape[0] + 1``, is non-decreasing, starts at
      0 and ends at ``nnz``;
    * ``indices[indptr[i]:indptr[i+1]]`` are the (sorted) column indices
      of row ``i``; ``vals`` holds the matching values.
    """

    __slots__ = (
        "shape", "indptr", "indices", "vals", "_scipy_cache", "_segment_cache",
        "_nnz", "_fast_spmm",
    )

    #: distinct feature-width buckets whose SpMM segment metadata is kept
    #: per matrix. GCN layers use a handful of widths, so this is ample;
    #: on overflow the cache is simply rebuilt.
    _SEGMENT_CACHE_LIMIT = 8

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        vals: np.ndarray,
        validate: bool = True,
    ):
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.asarray(indptr, dtype=OFFSET_DTYPE)
        self.indices = np.asarray(indices, dtype=INDEX_DTYPE)
        self.vals = np.asarray(vals, dtype=FLOAT_DTYPE)
        self._scipy_cache = None
        self._segment_cache = None
        self._nnz = None
        self._fast_spmm = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        n_rows, n_cols = self.shape
        if n_rows < 0 or n_cols < 0:
            raise ShapeError(f"negative matrix shape {self.shape}")
        if self.indptr.shape != (n_rows + 1,):
            raise ShapeError(
                f"indptr length {self.indptr.shape[0]} != rows+1 ({n_rows + 1})"
            )
        if self.indptr[0] != 0:
            raise ShapeError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ShapeError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape != (nnz,) or self.vals.shape != (nnz,):
            raise ShapeError(
                f"indices/vals length mismatch: {self.indices.shape[0]}, "
                f"{self.vals.shape[0]} vs nnz={nnz}"
            )
        if nnz and (self.indices.min() < 0 or self.indices.max() >= n_cols):
            raise ShapeError(f"column index out of range for {n_cols} cols")

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSRMatrix":
        """Convert a canonical COO matrix (sorted, deduplicated) to CSR."""
        n_rows, _ = coo.shape
        counts = np.zeros(n_rows, dtype=OFFSET_DTYPE)
        np.add.at(counts, coo.rows, 1)
        indptr = np.zeros(n_rows + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        return cls(
            coo.shape,
            indptr,
            coo.cols.astype(INDEX_DTYPE),
            coo.vals,
            validate=False,
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build from a dense array (tests/small examples)."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeError(f"from_dense requires a 2-D array, got {dense.shape}")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(
            COOMatrix(dense.shape, rows, cols, dense[rows, cols])
        )

    @classmethod
    def empty(cls, shape: Tuple[int, int]) -> "CSRMatrix":
        """A matrix with no stored entries."""
        return cls(
            shape,
            np.zeros(int(shape[0]) + 1, dtype=OFFSET_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            np.empty(0, dtype=FLOAT_DTYPE),
            validate=False,
        )

    # -- queries ---------------------------------------------------------------

    @property
    def nnz(self) -> int:
        n = self._nnz
        if n is None:
            n = self._nnz = int(self.indptr[-1])
        return n

    @property
    def nbytes(self) -> int:
        """Device bytes of this matrix (indptr + indices + vals)."""
        return self.indptr.nbytes + self.indices.nbytes + self.vals.nbytes

    def row_nnz(self) -> np.ndarray:
        """Stored entries per row."""
        return np.diff(self.indptr)

    def to_dense(self) -> np.ndarray:
        """Dense copy (small matrices / tests only)."""
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        rows = np.repeat(np.arange(self.shape[0]), self.row_nnz())
        out[rows, self.indices] = self.vals
        return out

    def to_coo(self) -> COOMatrix:
        rows = np.repeat(np.arange(self.shape[0], dtype=OFFSET_DTYPE), self.row_nnz())
        return COOMatrix(
            self.shape, rows, self.indices.astype(OFFSET_DTYPE), self.vals,
            sum_duplicates=False,
        )

    def equals(self, other: "CSRMatrix") -> bool:
        """Structural equality: same shape, indptr, indices, and values.

        Bitwise on the stored arrays (``vals`` compared with
        ``np.array_equal``, so two NaN payloads differ) — no ``to_dense``
        round-trip, so it is safe at symbolic-scale shapes where a dense
        copy would not fit.
        """
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.vals, other.vals)
        )

    def transpose(self) -> "CSRMatrix":
        """CSR of the transposed matrix (a CSC view re-expressed as CSR)."""
        t = self._scipy().T.tocsr()
        t.sort_indices()
        return CSRMatrix(
            (self.shape[1], self.shape[0]),
            t.indptr.astype(OFFSET_DTYPE),
            t.indices.astype(INDEX_DTYPE),
            t.data.astype(FLOAT_DTYPE),
            validate=False,
        )

    # -- tiling (Section 4.1) ---------------------------------------------------

    def row_block(self, r0: int, r1: int) -> "CSRMatrix":
        """Rows ``[r0, r1)`` as a standalone CSR (columns unchanged)."""
        if not (0 <= r0 <= r1 <= self.shape[0]):
            raise PartitionError(
                f"row block [{r0}, {r1}) out of range for {self.shape[0]} rows"
            )
        lo, hi = int(self.indptr[r0]), int(self.indptr[r1])
        return CSRMatrix(
            (r1 - r0, self.shape[1]),
            self.indptr[r0 : r1 + 1] - lo,
            self.indices[lo:hi],
            self.vals[lo:hi],
            validate=False,
        )

    def tile(self, r0: int, r1: int, c0: int, c1: int) -> "CSRMatrix":
        """The sub-matrix ``[r0:r1, c0:c1]`` with re-based column indices.

        This is the :math:`A^{ij}` tile of eq. (15): entry ``(u, v)`` of
        the tile is entry ``(u + r0, v + c0)`` of the original.
        """
        block = self.row_block(r0, r1)
        if not (0 <= c0 <= c1 <= self.shape[1]):
            raise PartitionError(
                f"col range [{c0}, {c1}) out of range for {self.shape[1]} cols"
            )
        mask = (block.indices >= c0) & (block.indices < c1)
        # per-row counts of surviving entries -> new indptr
        rows = np.repeat(np.arange(block.shape[0], dtype=OFFSET_DTYPE), block.row_nnz())
        kept_rows = rows[mask]
        counts = np.zeros(block.shape[0], dtype=OFFSET_DTYPE)
        np.add.at(counts, kept_rows, 1)
        indptr = np.zeros(block.shape[0] + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        return CSRMatrix(
            (block.shape[0], c1 - c0),
            indptr,
            (block.indices[mask] - c0).astype(INDEX_DTYPE),
            block.vals[mask],
            validate=False,
        )

    # -- compute kernels ---------------------------------------------------------

    def spmm(
        self,
        dense: np.ndarray,
        out: Optional[np.ndarray] = None,
        accumulate: bool = False,
        use_scipy: bool = True,
    ) -> np.ndarray:
        """``out (+)= self @ dense`` — the vectorised CSR SpMM.

        ``dense`` is ``(k, d)`` with ``k == shape[1]``; the result is
        ``(m, d)``. With ``accumulate=True`` the product is added into
        ``out`` (the multi-stage algorithm's ``C^i += A^{ij} H^j``).

        With ``use_scipy=True`` (default) the heavy lifting runs through
        SciPy's compiled CSR matmul; ``use_scipy=False`` forces the pure
        NumPy reference kernel (the two are cross-checked in tests).
        """
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != self.shape[1]:
            raise ShapeError(
                f"spmm: operand shape {dense.shape} incompatible with "
                f"matrix shape {self.shape}"
            )
        m, d = self.shape[0], dense.shape[1]
        if out is None:
            out = np.zeros((m, d), dtype=np.result_type(self.vals, dense))
            accumulate = True  # freshly zeroed
        elif out.shape != (m, d):
            raise ShapeError(f"spmm: out shape {out.shape} != {(m, d)}")
        elif not accumulate:
            out.fill(0.0)
        if self.nnz == 0:
            return out
        if use_scipy:
            product = self._scipy() @ dense
            out += product.astype(out.dtype, copy=False)
            return out
        self._spmm_numpy_into(dense, out)
        return out

    def spmm_into(
        self,
        dense: np.ndarray,
        out: np.ndarray,
        accumulate: bool = True,
        use_scipy: bool = True,
    ) -> np.ndarray:
        """``out (+)= self @ dense`` without shape re-validation.

        The hot-path entry the timed :func:`repro.kernels.ops.spmm`
        kernel (and replayed execution plans) call every epoch: operand
        shapes were validated when the schedule was built, so this skips
        the checks and goes straight to the compiled/segmented kernel,
        reusing the per-matrix caches (the kernel operands of
        :meth:`_spmm_fast_args`, the segment metadata behind
        :meth:`_segments`). The compiled path never builds a scipy
        matrix; only the operator fallback does.
        """
        if not accumulate:
            out.fill(0.0)
        if self.nnz == 0:
            return out
        if use_scipy:
            # Straight into the compiled kernel, accumulating into
            # ``out`` in place: skips scipy's operator dispatch and
            # the temporary product array, which dominate at the
            # per-tile call rates of a replayed epoch. A strided
            # ``dense`` is flattened by ravel (scipy's own path pays
            # the same copy); ``out`` must stay a view. The kernel
            # operands are cached per matrix (immutable arrays).
            fast = self._fast_spmm
            if fast is None:
                fast = self._spmm_fast_args()
            m, k, indptr, indices, data, dtype, matvecs = fast
            if dtype is not None and dense.dtype == dtype == out.dtype:
                if out.flags.c_contiguous:
                    matvecs(m, k, dense.shape[1], indptr, indices, data,
                            dense.ravel(), out.ravel())
                    return out
                # Strided ``out`` (a narrow view of a wider buffer): the
                # kernel needs a contiguous target, so accumulate into a
                # zeroed scratch and add — the exact sequence (and
                # floats) of the operator fallback, without its dispatch.
                product = np.zeros(out.shape, dtype=dtype)
                matvecs(m, k, out.shape[1], indptr, indices, data,
                        dense.ravel(), product.ravel())
                out += product
                return out
            product = self._scipy() @ dense
            out += product.astype(out.dtype, copy=False)
            return out
        self._spmm_numpy_into(dense, out)
        return out

    def _spmm_fast_args(self):
        """Build + cache the compiled-kernel operands for :meth:`spmm_into`.

        The kernel wants ``indptr`` and ``indices`` in one index dtype:
        int32 while the shape and nnz fit, int64 otherwise — the dtype
        a scipy matrix over these arrays picks, so the operator fallback
        runs the same kernel. Built from this matrix's arrays without
        constructing a scipy matrix; ``dtype`` is None when the compiled
        kernel is absent, which routes every call to the operator
        fallback.
        """
        matvecs = _csr_matvecs()
        index_dtype = (
            np.int32 if max(self.nnz, *self.shape) <= _INT32_MAX else np.int64
        )
        fast = (
            self.shape[0], self.shape[1],
            self.indptr.astype(index_dtype),
            self.indices.astype(index_dtype, copy=False),
            self.vals,
            self.vals.dtype if matvecs is not None else None, matvecs,
        )
        self._fast_spmm = fast
        return fast

    def _scipy(self):
        """A cached ``scipy.sparse.csr_matrix`` sharing this matrix's arrays.

        Safe to cache because :class:`CSRMatrix` is immutable by
        convention — every mutating operation returns a new instance.
        """
        if self._scipy_cache is None:
            from scipy import sparse as _sparse

            self._scipy_cache = _sparse.csr_matrix(
                (self.vals, self.indices, self.indptr), shape=self.shape
            )
        return self._scipy_cache

    def _segments(self, d: int):
        """Cached per-chunk schedule metadata for the NumPy SpMM kernel.

        For a feature width ``d`` the kernel tiles the nonzeros into
        chunks of at most ``32M / d`` gathered elements; the chunk row
        boundaries, nonzero ranges, non-empty-row masks, and ``reduceat``
        start offsets depend only on the sparsity pattern and the chunk
        size — not on the operand values — so they are computed once per
        ``(matrix, feature-width bucket)`` and reused every epoch. Lives
        beside ``_scipy_cache``; keyed by ``chunk_nnz`` so widths that
        bucket to the same chunking share one entry.
        """
        max_elements = 32_000_000
        chunk_nnz = max(max_elements // max(d, 1), 1)
        cache = self._segment_cache
        if cache is None:
            cache = self._segment_cache = {}
        blocks = cache.get(chunk_nnz)
        if blocks is not None:
            return blocks
        if len(cache) >= self._SEGMENT_CACHE_LIMIT:
            cache.clear()
        m = self.shape[0]
        nnz_per_row = np.diff(self.indptr)
        targets = np.arange(chunk_nnz, self.nnz, chunk_nnz, dtype=np.int64)
        cuts = np.searchsorted(self.indptr, targets, side="left")
        cuts = np.unique(cuts[(cuts > 0) & (cuts < m)])
        boundaries = [0, *cuts.tolist(), m]
        blocks = []
        for r0, r1 in zip(boundaries[:-1], boundaries[1:]):
            lo, hi = int(self.indptr[r0]), int(self.indptr[r1])
            if hi <= lo:
                continue
            nonempty = nnz_per_row[r0:r1] > 0
            starts = (self.indptr[r0:r1][nonempty] - lo).astype(np.intp)
            blocks.append((r0, r1, lo, hi, nonempty, starts))
        cache[chunk_nnz] = blocks
        return blocks

    def _spmm_numpy_into(self, dense: np.ndarray, out: np.ndarray) -> None:
        """Pure-NumPy gather + segment-sum kernel, accumulating into ``out``.

        Chunks over row blocks so the gathered ``(nnz_chunk, d)``
        temporary stays bounded (~32M elements) — the host-memory
        analogue of the tiled kernels the HPC guides recommend. The
        chunk schedule comes from the :meth:`_segments` cache.
        """
        for r0, r1, lo, hi, nonempty, starts in self._segments(out.shape[1]):
            gathered = self.vals[lo:hi, None] * dense[self.indices[lo:hi]]
            if starts.size:
                sums = np.add.reduceat(gathered, starts, axis=0)
                out_block = out[r0:r1]
                out_block[nonempty] += sums

    def spmv(self, vec: np.ndarray) -> np.ndarray:
        """``self @ vec`` for a 1-D vector."""
        vec = np.asarray(vec)
        if vec.ndim != 1:
            raise ShapeError(f"spmv requires 1-D operand, got {vec.shape}")
        return self.spmm(vec[:, None]).ravel()

    def scale_rows(self, factors: np.ndarray) -> "CSRMatrix":
        """A new matrix with row ``i`` multiplied by ``factors[i]``."""
        factors = np.asarray(factors, dtype=FLOAT_DTYPE)
        if factors.shape != (self.shape[0],):
            raise ShapeError(
                f"scale_rows: {factors.shape} factors for {self.shape[0]} rows"
            )
        expanded = np.repeat(factors, self.row_nnz())
        return CSRMatrix(
            self.shape, self.indptr, self.indices, self.vals * expanded,
            validate=False,
        )

    def scale_cols(self, factors: np.ndarray) -> "CSRMatrix":
        """A new matrix with column ``j`` multiplied by ``factors[j]``."""
        factors = np.asarray(factors, dtype=FLOAT_DTYPE)
        if factors.shape != (self.shape[1],):
            raise ShapeError(
                f"scale_cols: {factors.shape} factors for {self.shape[1]} cols"
            )
        return CSRMatrix(
            self.shape, self.indptr, self.indices, self.vals * factors[self.indices],
            validate=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
