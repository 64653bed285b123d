"""An incrementally maintained graph: delta buffer + CSR row splicing.

:class:`DynamicGraph` is the mutable twin of a frozen
:class:`~repro.datasets.loader.Dataset`. Writes arrive as
:class:`~repro.dynamic.mutation.MutationBatch` deltas, buffer in a COO
delta log, and merge into the live :class:`~repro.sparse.csr.CSRMatrix`
at *generation boundaries* (:meth:`DynamicGraph.commit`):

* only the touched rows of ``A`` / ``A^T`` are re-merged — untouched row
  segments are block-copied into the new index arrays;
* GCN renormalisation (:mod:`repro.sparse.normalize`) is restricted to
  the touched *columns*: an edge op on ``(u, v)`` changes the in-degree
  of ``v``, hence exactly row ``v`` of ``A_hat^T``. Those rows are
  recomputed with the same sequential ``np.add.at`` accumulation order
  (source-ascending) and the same ``float32`` reciprocal/multiply the
  from-scratch path uses, so the incremental matrices are **bit
  identical** to a full rebuild at every generation — the invariant the
  parity tests pin with :meth:`CSRMatrix.equals`.

Commit-window semantics: the last operation on an edge key wins;
deleting a missing edge is a counted no-op; removing a vertex drops all
its incident edges (and wins over same-window edge ops on it) but keeps
its id as a tombstoned empty row, so vertex ids are stable forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.config import FLOAT_DTYPE, INDEX_DTYPE, OFFSET_DTYPE
from repro.datasets.loader import Dataset
from repro.dynamic.mutation import MutationBatch
from repro.errors import MutationError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.normalize import gcn_normalize


def _flat_positions(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices of concatenated segments ``[starts[i], +lens[i])``."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts.astype(np.int64), lens) + (
        np.arange(total, dtype=np.int64) - np.repeat(offsets, lens)
    )


def _splice_rows(
    csr: CSRMatrix,
    shape: Tuple[int, int],
    rows: np.ndarray,
    row_counts: np.ndarray,
    entry_cols: np.ndarray,
    entry_vals: np.ndarray,
) -> CSRMatrix:
    """A new CSR with ``rows`` replaced (and the matrix possibly grown).

    ``rows`` is sorted unique; ``entry_cols``/``entry_vals`` hold the
    replacement rows' entries concatenated in row-major, column-sorted
    order (``row_counts[i]`` entries for ``rows[i]``). Rows beyond the
    old row count start empty. The untouched rows between two touched
    ones are one contiguous run in both matrices, so they move as one
    slice copy: at most ``len(rows) + 1`` copies, no per-entry indices.
    """
    n_old = csr.shape[0]
    n_new = shape[0]
    counts = np.zeros(n_new, dtype=np.int64)
    counts[:n_old] = np.diff(csr.indptr)
    counts[rows] = row_counts
    indptr = np.zeros(n_new + 1, dtype=OFFSET_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    indices = np.empty(total, dtype=INDEX_DTYPE)
    vals = np.empty(total, dtype=FLOAT_DTYPE)
    touched_old = rows[rows < n_old]
    run_starts = np.concatenate(([0], touched_old + 1))
    run_ends = np.concatenate((touched_old, [n_old]))
    for a, b in zip(run_starts.tolist(), run_ends.tolist()):
        if a >= b:
            continue
        s0, s1 = int(csr.indptr[a]), int(csr.indptr[b])
        d0 = int(indptr[a])
        indices[d0 : d0 + s1 - s0] = csr.indices[s0:s1]
        vals[d0 : d0 + s1 - s0] = csr.vals[s0:s1]
    dst_new = _flat_positions(indptr[rows], row_counts)
    indices[dst_new] = entry_cols.astype(INDEX_DTYPE)
    vals[dst_new] = entry_vals.astype(FLOAT_DTYPE)
    return CSRMatrix(shape, indptr, indices, vals, validate=False)


def _merge_rows(
    touched: np.ndarray,
    old_rows: np.ndarray,
    old_cols: np.ndarray,
    old_vals: np.ndarray,
    drop_keys: np.ndarray,
    ins_rows: np.ndarray,
    ins_cols: np.ndarray,
    ins_vals: np.ndarray,
    n: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge old touched-row entries with the delta, column-sorted.

    Returns ``(row_counts, cols, vals)`` aligned with ``touched``. Old
    entries whose ``row * n + col`` key is in the sorted ``drop_keys``
    are removed (deletes and overwrites), then the insert entries are
    appended and the union re-sorted by ``(row, col)``.
    """
    old_keys = old_rows * n + old_cols
    if drop_keys.size:
        pos = np.searchsorted(drop_keys, old_keys)
        pos[pos == drop_keys.size] = 0
        keep = drop_keys[pos] != old_keys
    else:
        keep = np.ones(old_keys.size, dtype=bool)
    rows = np.concatenate([old_rows[keep], ins_rows])
    cols = np.concatenate([old_cols[keep], ins_cols])
    vals = np.concatenate([old_vals[keep], ins_vals])
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    row_counts = np.bincount(
        np.searchsorted(touched, rows), minlength=touched.size
    )
    return row_counts, cols, vals


@dataclass(frozen=True)
class CommitResult:
    """What one generation boundary changed (counter + invalidation feed)."""

    generation: int
    #: sorted rows of ``A_hat^T`` that were renormalised — exactly the
    #: vertices whose layer-1 embedding is stale (the delta-invalidation
    #: seed set).
    touched_rows: np.ndarray
    adjacency_rows_rebuilt: int
    normalized_rows_rebuilt: int
    edges_inserted: int
    edges_overwritten: int
    edges_deleted: int
    noop_deletes: int
    vertices_added: int
    vertices_removed: int
    num_vertices: int

    @property
    def mutations_applied(self) -> int:
        return (
            self.edges_inserted
            + self.edges_overwritten
            + self.edges_deleted
            + self.noop_deletes
            + self.vertices_added
            + self.vertices_removed
        )


class DynamicGraph:
    """A mutable graph with generation-stamped incremental CSR state."""

    def __init__(self, dataset: Dataset):
        if dataset.is_symbolic:
            raise MutationError("DynamicGraph needs a functional dataset")
        self.name = dataset.name
        self.num_classes = dataset.num_classes
        self.adj: CSRMatrix = CSRMatrix.from_coo(dataset.adjacency)
        self.adj_t: CSRMatrix = self.adj.transpose()
        self.a_hat_t: CSRMatrix = gcn_normalize(dataset.adjacency).transpose()
        n = dataset.n
        self.in_degree = np.zeros(n, dtype=FLOAT_DTYPE)
        np.add.at(
            self.in_degree, dataset.adjacency.cols, dataset.adjacency.vals
        )
        self.features = np.array(dataset.features, copy=True)
        self.labels = np.array(dataset.labels, copy=True)
        self.train_mask = np.array(dataset.train_mask, copy=True)
        self.val_mask = np.array(dataset.val_mask, copy=True)
        self.test_mask = np.array(dataset.test_mask, copy=True)
        self.alive = np.ones(n, dtype=bool)
        self.generation = 0
        self._pend_u: List[np.ndarray] = []
        self._pend_v: List[np.ndarray] = []
        self._pend_val: List[np.ndarray] = []
        self._pend_del: List[np.ndarray] = []
        self._pend_removals: List[np.ndarray] = []
        self._pend_feats: List[np.ndarray] = []
        self._pend_labels: List[np.ndarray] = []

    # -- introspection --------------------------------------------------------

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def m(self) -> int:
        return self.adj.nnz

    @property
    def pending_ops(self) -> int:
        return sum(a.size for a in self._pend_u) + sum(
            a.size for a in self._pend_removals
        ) + sum(f.shape[0] for f in self._pend_feats)

    def degrees(self) -> np.ndarray:
        """Total (in + out) stored-entry degree per vertex."""
        return (self.adj.row_nnz() + self.adj_t.row_nnz()).astype(np.int64)

    def snapshot_dataset(self) -> Dataset:
        """The current generation as a frozen :class:`Dataset`."""
        return Dataset(
            name=f"{self.name}@g{self.generation}",
            adjacency=self.adj.to_coo(),
            features=self.features,
            labels=self.labels,
            train_mask=self.train_mask,
            val_mask=self.val_mask,
            test_mask=self.test_mask,
            num_classes=self.num_classes,
        )

    def scratch_rebuild(self) -> Tuple[CSRMatrix, CSRMatrix]:
        """``(A, A_hat^T)`` rebuilt from scratch off the live edge set.

        The parity oracle: runs the exact seed-code path (canonical COO
        -> :meth:`CSRMatrix.from_coo` -> :func:`gcn_normalize` ->
        :meth:`~CSRMatrix.transpose`) with no incremental state; the
        incremental matrices must :meth:`~CSRMatrix.equals` these.
        """
        coo = self.adj.to_coo()
        return CSRMatrix.from_coo(coo), gcn_normalize(coo).transpose()

    # -- the write path -------------------------------------------------------

    def apply(self, batch: MutationBatch) -> int:
        """Buffer one mutation batch; returns the pending-op count.

        Nothing becomes visible until :meth:`commit` — reads between
        ``apply`` and ``commit`` see the previous generation, which is
        what gives the serving engine clean generation boundaries.
        """
        n_limit = self.n + sum(f.shape[0] for f in self._pend_feats)
        if batch.add_features is not None:
            if batch.add_features.shape[1] != self.features.shape[1]:
                raise MutationError(
                    f"batch {batch.batch_id}: added features have width "
                    f"{batch.add_features.shape[1]}, graph has "
                    f"{self.features.shape[1]}"
                )
            labels = batch.add_labels
            if labels is not None and labels.size and (
                labels.min() < 0 or labels.max() >= self.num_classes
            ):
                raise MutationError(
                    f"batch {batch.batch_id}: added labels out of range "
                    f"[0, {self.num_classes})"
                )
            n_limit += batch.add_features.shape[0]
            self._pend_feats.append(batch.add_features)
            self._pend_labels.append(
                labels
                if labels is not None
                else np.zeros(batch.add_features.shape[0], dtype=np.int64)
            )
        for name, edges in (
            ("insert", batch.insert_edges),
            ("delete", batch.delete_edges),
        ):
            if edges.size and (edges.min() < 0 or edges.max() >= n_limit):
                raise MutationError(
                    f"batch {batch.batch_id}: {name} endpoint out of range "
                    f"[0, {n_limit})"
                )
            in_old = edges[edges < self.n] if edges.size else edges
            if in_old.size and not self.alive[in_old].all():
                raise MutationError(
                    f"batch {batch.batch_id}: {name} touches a removed vertex"
                )
            if name == "insert" and edges.size and (
                edges[:, 0] == edges[:, 1]
            ).any():
                raise MutationError(
                    f"batch {batch.batch_id}: self-loop insert"
                )
        rem = batch.remove_vertices
        if rem.size:
            if rem.min() < 0 or rem.max() >= n_limit:
                raise MutationError(
                    f"batch {batch.batch_id}: removal out of range "
                    f"[0, {n_limit})"
                )
            in_old = rem[rem < self.n]
            if in_old.size and not self.alive[in_old].all():
                raise MutationError(
                    f"batch {batch.batch_id}: removing an already-removed "
                    f"vertex"
                )
            self._pend_removals.append(rem.astype(np.int64))
        u = np.concatenate(
            [batch.insert_edges[:, 0], batch.delete_edges[:, 0]]
        ).astype(np.int64)
        v = np.concatenate(
            [batch.insert_edges[:, 1], batch.delete_edges[:, 1]]
        ).astype(np.int64)
        val = np.concatenate(
            [
                batch.insert_vals,
                np.zeros(batch.delete_edges.shape[0], dtype=FLOAT_DTYPE),
            ]
        )
        is_del = np.concatenate(
            [
                np.zeros(batch.insert_edges.shape[0], dtype=bool),
                np.ones(batch.delete_edges.shape[0], dtype=bool),
            ]
        )
        self._pend_u.append(u)
        self._pend_v.append(v)
        self._pend_val.append(val)
        self._pend_del.append(is_del)
        return self.pending_ops

    def commit(self) -> CommitResult:
        """Merge the delta buffer; advance to the next generation.

        An empty buffer is a no-op: no generation bump, current matrices
        returned untouched.
        """
        if self.pending_ops == 0 and not self._pend_feats:
            return CommitResult(
                generation=self.generation,
                touched_rows=np.empty(0, dtype=np.int64),
                adjacency_rows_rebuilt=0,
                normalized_rows_rebuilt=0,
                edges_inserted=0,
                edges_overwritten=0,
                edges_deleted=0,
                noop_deletes=0,
                vertices_added=0,
                vertices_removed=0,
                num_vertices=self.n,
            )
        n_old = self.n
        feats = (
            np.concatenate(self._pend_feats)
            if self._pend_feats
            else np.empty((0, self.features.shape[1]), dtype=FLOAT_DTYPE)
        )
        add_labels = (
            np.concatenate(self._pend_labels)
            if self._pend_labels
            else np.empty(0, dtype=self.labels.dtype)
        )
        k_add = feats.shape[0]
        n_new = n_old + k_add
        u = (
            np.concatenate(self._pend_u)
            if self._pend_u
            else np.empty(0, dtype=np.int64)
        )
        v = (
            np.concatenate(self._pend_v)
            if self._pend_v
            else np.empty(0, dtype=np.int64)
        )
        val = (
            np.concatenate(self._pend_val)
            if self._pend_val
            else np.empty(0, dtype=FLOAT_DTYPE)
        )
        is_del = (
            np.concatenate(self._pend_del)
            if self._pend_del
            else np.empty(0, dtype=bool)
        )
        removals = (
            np.unique(np.concatenate(self._pend_removals))
            if self._pend_removals
            else np.empty(0, dtype=np.int64)
        )

        if removals.size:
            # expand each removal into delete ops over every incident
            # edge — existing (from A and A^T) and same-window pending —
            # appended last so they win the per-key dedup below.
            exist_rem = removals[removals < n_old]
            out_lens = np.diff(self.adj.indptr)[exist_rem]
            out_pos = _flat_positions(self.adj.indptr[exist_rem], out_lens)
            in_lens = np.diff(self.adj_t.indptr)[exist_rem]
            in_pos = _flat_positions(self.adj_t.indptr[exist_rem], in_lens)
            pend_hit = np.isin(u, removals) | np.isin(v, removals)
            ru = np.concatenate(
                [
                    np.repeat(exist_rem, out_lens),
                    self.adj_t.indices[in_pos].astype(np.int64),
                    u[pend_hit],
                ]
            )
            rv = np.concatenate(
                [
                    self.adj.indices[out_pos].astype(np.int64),
                    np.repeat(exist_rem, in_lens),
                    v[pend_hit],
                ]
            )
            u = np.concatenate([u, ru])
            v = np.concatenate([v, rv])
            val = np.concatenate(
                [val, np.zeros(ru.size, dtype=FLOAT_DTYPE)]
            )
            is_del = np.concatenate([is_del, np.ones(ru.size, dtype=bool)])

        # per-edge-key last-writer-wins dedup.
        if u.size:
            key = u * n_new + v
            order = np.lexsort((np.arange(u.size), key))
            key_sorted = key[order]
            last = np.empty(u.size, dtype=bool)
            last[-1] = True
            np.not_equal(key_sorted[1:], key_sorted[:-1], out=last[:-1])
            win = order[last]
            u, v, val, is_del = u[win], v[win], val[win], is_del[win]

        # membership of each op key in the current A (noop detection).
        cand_rows = np.unique(u)
        cand_lens = np.diff(self.adj.indptr)[cand_rows[cand_rows < n_old]]
        cand_in_old = cand_rows[cand_rows < n_old]
        pos = _flat_positions(self.adj.indptr[cand_in_old], cand_lens)
        old_rows = np.repeat(cand_in_old, cand_lens)
        old_cols = self.adj.indices[pos].astype(np.int64)
        old_vals = self.adj.vals[pos]
        old_keys = old_rows * n_new + old_cols  # sorted: row-major scan
        op_keys = u * n_new + v
        if old_keys.size:
            loc = np.searchsorted(old_keys, op_keys)
            loc[loc == old_keys.size] = 0
            exists = old_keys[loc] == op_keys
        else:
            exists = np.zeros(op_keys.size, dtype=bool)

        effective = ~is_del | exists
        eu, ev = u[effective], v[effective]
        eval_, edel = val[effective], is_del[effective]
        touched_a = np.unique(eu)
        touched_at = np.unique(ev)

        # new content of the touched A rows (and, transposed, A^T rows).
        in_touched = np.isin(old_rows, touched_a)
        drop = np.sort((eu * n_new + ev))
        ins = ~edel
        a_counts, a_cols, a_vals = _merge_rows(
            touched_a,
            old_rows[in_touched],
            old_cols[in_touched],
            old_vals[in_touched],
            drop,
            eu[ins],
            ev[ins],
            eval_[ins],
            n_new,
        )
        # A^T: same survivors/inserts with (row, col) swapped. Old A^T
        # entries of the touched columns come from adj_t directly.
        t_lens = np.diff(self.adj_t.indptr)[touched_at[touched_at < n_old]]
        t_in_old = touched_at[touched_at < n_old]
        t_pos = _flat_positions(self.adj_t.indptr[t_in_old], t_lens)
        t_rows = np.repeat(t_in_old, t_lens)
        t_cols = self.adj_t.indices[t_pos].astype(np.int64)
        t_vals = self.adj_t.vals[t_pos]
        drop_t = np.sort((ev * n_new + eu))
        at_counts, at_cols, at_vals = _merge_rows(
            touched_at, t_rows, t_cols, t_vals, drop_t,
            ev[ins], eu[ins], eval_[ins], n_new,
        )

        new_adj = _splice_rows(
            self.adj, (n_new, n_new), touched_a, a_counts, a_cols, a_vals
        )
        new_adj_t = _splice_rows(
            self.adj_t, (n_new, n_new), touched_at, at_counts, at_cols,
            at_vals,
        )

        # in-degree of the touched columns, re-accumulated in the exact
        # element order gcn_normalize uses (source-ascending np.add.at).
        deg = np.zeros(n_new, dtype=FLOAT_DTYPE)
        deg[:n_old] = self.in_degree
        deg[touched_at] = 0.0
        np.add.at(deg, np.repeat(touched_at, at_counts), at_vals)
        inv = np.ones(touched_at.size, dtype=FLOAT_DTYPE)
        dt = deg[touched_at]
        nz = dt != 0
        inv[nz] = 1.0 / dt[nz]
        ahat_vals = at_vals.astype(FLOAT_DTYPE) * np.repeat(
            inv, at_counts
        )
        new_a_hat_t = _splice_rows(
            self.a_hat_t, (n_new, n_new), touched_at, at_counts, at_cols,
            ahat_vals,
        )

        # swap in the new generation's state.
        self.adj, self.adj_t, self.a_hat_t = new_adj, new_adj_t, new_a_hat_t
        self.in_degree = deg
        if k_add:
            self.features = np.concatenate([self.features, feats])
            self.labels = np.concatenate([self.labels, add_labels])
            pad = np.zeros(k_add, dtype=bool)
            self.train_mask = np.concatenate([self.train_mask, pad])
            self.val_mask = np.concatenate([self.val_mask, pad])
            self.test_mask = np.concatenate([self.test_mask, pad])
            self.alive = np.concatenate(
                [self.alive, np.ones(k_add, dtype=bool)]
            )
        if removals.size:
            self.alive[removals] = False
            self.train_mask[removals] = False
            self.val_mask[removals] = False
            self.test_mask[removals] = False
        self.generation += 1
        result = CommitResult(
            generation=self.generation,
            touched_rows=touched_at,
            adjacency_rows_rebuilt=int(touched_a.size),
            normalized_rows_rebuilt=int(touched_at.size),
            edges_inserted=int((ins & ~exists[effective]).sum()),
            edges_overwritten=int((ins & exists[effective]).sum()),
            edges_deleted=int(edel.sum()),
            noop_deletes=int((is_del & ~exists).sum()),
            vertices_added=k_add,
            vertices_removed=int(removals.size),
            num_vertices=n_new,
        )
        self._pend_u.clear()
        self._pend_v.clear()
        self._pend_val.clear()
        self._pend_del.clear()
        self._pend_removals.clear()
        self._pend_feats.clear()
        self._pend_labels.clear()
        return result

    def apply_and_commit(self, batch: MutationBatch) -> CommitResult:
        """Convenience: one batch per generation (the serving default)."""
        self.apply(batch)
        return self.commit()
