"""Unit tests: mutation streams and the incremental CSR (repro.dynamic)."""

import hashlib

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.dynamic import (
    DynamicGraph,
    MutationBatch,
    MutationStream,
    bursty_mutations,
    l_hop_affected,
    poisson_mutations,
)
from repro.errors import MutationError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


def csr(rows, cols, vals, shape):
    return CSRMatrix.from_coo(
        COOMatrix(shape, np.asarray(rows), np.asarray(cols),
                  np.asarray(vals, dtype=np.float32))
    )

pytestmark = pytest.mark.dynamic


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("cora", scale=0.25, learnable=True, seed=0)


@pytest.fixture(scope="module")
def reddit():
    return load_dataset("reddit", scale=0.005, learnable=True, seed=7)


def assert_matches_scratch(g, generation):
    """Incremental state must be bit-identical to a from-scratch rebuild."""
    adj, a_hat_t = g.scratch_rebuild()
    assert g.adj.equals(adj), f"adjacency diverged at generation {generation}"
    assert g.a_hat_t.equals(a_hat_t), (
        f"normalized adjacency diverged at generation {generation}"
    )
    assert g.adj_t.equals(adj.transpose())


class TestMutationStream:
    def test_poisson_is_deterministic(self, dataset):
        a = poisson_mutations(dataset, 4, rate=3.0, edges_per_batch=6, seed=5)
        b = poisson_mutations(dataset, 4, rate=3.0, edges_per_batch=6, seed=5)
        assert len(a) == len(b) == 4
        for x, y in zip(a, b):
            assert x.arrival == y.arrival
            assert np.array_equal(x.insert_edges, y.insert_edges)
            assert np.array_equal(x.delete_edges, y.delete_edges)

    def test_arrivals_sorted_and_positive_rate_required(self, dataset):
        s = bursty_mutations(dataset, num_bursts=3, burst_size=2,
                             burst_rate=2.0, edges_per_batch=4, seed=1)
        assert len(s) == 6
        arrivals = [b.arrival for b in s]
        assert arrivals == sorted(arrivals)
        with pytest.raises(MutationError):
            poisson_mutations(dataset, 2, rate=0.0)

    def test_skew_targets_hot_vertices(self, dataset):
        g = DynamicGraph(dataset)
        deg = g.degrees()
        hot = set(np.argsort(-deg)[: dataset.n // 10].tolist())
        skewed = poisson_mutations(dataset, 8, rate=3.0, edges_per_batch=10,
                                   skew=1.2, seed=3)
        flat = poisson_mutations(dataset, 8, rate=3.0, edges_per_batch=10,
                                 skew=0.0, seed=3)

        def hot_fraction(stream):
            endpoints = np.concatenate(
                [b.insert_edges[:, 0] for b in stream if b.insert_edges.size]
            )
            return np.mean([int(v) in hot for v in endpoints])

        assert hot_fraction(skewed) > hot_fraction(flat)

    def test_batch_validation(self):
        with pytest.raises(MutationError):
            MutationBatch(batch_id=0, arrival=-1.0)
        with pytest.raises(MutationError):
            MutationBatch(batch_id=0, arrival=0.0,
                          insert_edges=np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(MutationError):
            MutationStream(batches=(
                MutationBatch(batch_id=0, arrival=2.0),
                MutationBatch(batch_id=1, arrival=1.0),
            ))


def stream_digest(dataset, skew):
    """sha256 over seeded mutation and query streams of ``dataset``.

    Covers every batch's arrival and insert/delete edge bytes of a
    poisson and a bursty mutation stream, and the arrivals and targets
    of a poisson query workload.
    """
    from repro.serve import poisson_workload

    h = hashlib.sha256()
    streams = (
        poisson_mutations(dataset, 30, rate=10.0, edges_per_batch=8,
                          skew=skew, seed=9),
        bursty_mutations(dataset, num_bursts=5, burst_size=3, burst_rate=2.0,
                         edges_per_batch=6, skew=skew, seed=10),
    )
    for stream in streams:
        for batch in stream:
            h.update(np.float64(batch.arrival).tobytes())
            h.update(batch.insert_edges.tobytes())
            h.update(batch.delete_edges.tobytes())
    for request in poisson_workload(dataset, 500, rate=2000.0, skew=skew,
                                    seed=8):
        h.update(np.float64(request.arrival).tobytes())
        h.update(np.asarray(request.vertices, dtype=np.int64).tobytes())
    return h.hexdigest()


class TestStreamsPinned:
    """Mutation and query streams, pinned to their bytes.

    The digests were recorded before the per-stream sampling tables were
    hoisted out of the per-batch loop; the streams must not move.
    """

    @pytest.mark.parametrize("skew,expected", [
        (0.8, "a5bf2e70c9b33f962756e23c293161698606a893b809bd1e74a0183e33424a42"),
        (0.0, "e4ca7460e53d434e78424328857937a652122a1918bc14513fdea7bb65319f19"),
    ], ids=["skew0.8", "skew0"])
    def test_reddit_streams_unchanged(self, reddit, skew, expected):
        assert stream_digest(reddit, skew) == expected


class TestIncrementalRebuild:
    def test_insert_delete_stream_matches_scratch(self, dataset):
        g = DynamicGraph(dataset)
        for batch in poisson_mutations(dataset, 6, rate=3.0,
                                       edges_per_batch=8, skew=0.6, seed=11):
            g.apply(batch)
            res = g.commit()
            assert_matches_scratch(g, res.generation)
            assert res.generation == g.generation

    def test_touched_rows_cover_value_changes(self, dataset):
        """Every row of A_hat^T whose values changed is in touched_rows."""
        g = DynamicGraph(dataset)
        for batch in poisson_mutations(dataset, 3, rate=3.0,
                                       edges_per_batch=10, skew=0.4, seed=17):
            before = g.a_hat_t
            res = g.apply_and_commit(batch)
            after = g.a_hat_t
            changed = []
            for v in range(g.n):
                b0, b1 = before.indptr[v], before.indptr[v + 1]
                a0, a1 = after.indptr[v], after.indptr[v + 1]
                if not (
                    np.array_equal(before.indices[b0:b1], after.indices[a0:a1])
                    and np.array_equal(before.vals[b0:b1], after.vals[a0:a1])
                ):
                    changed.append(v)
            assert np.isin(changed, res.touched_rows).all()
            # and the rebuild really was restricted: touched is a minority
            assert len(res.touched_rows) < g.n // 4

    def test_vertex_addition(self, dataset):
        g = DynamicGraph(dataset)
        n0 = g.n
        d = g.features.shape[1]
        batch = MutationBatch(
            batch_id=0, arrival=0.0,
            insert_edges=np.array(
                [[n0, 0], [1, n0 + 1], [n0 + 2, n0]], dtype=np.int64
            ),
            add_features=np.full((3, d), 0.5, dtype=np.float32),
            add_labels=np.zeros(3, dtype=np.int64),
        )
        res = g.apply_and_commit(batch)
        assert res.vertices_added == 3
        assert g.n == n0 + 3
        assert g.features.shape == (n0 + 3, d)
        assert not g.train_mask[n0:].any()
        assert_matches_scratch(g, res.generation)

    def test_vertex_removal_tombstones(self, dataset):
        g = DynamicGraph(dataset)
        deg = g.degrees()
        victim = int(np.argmax(deg))
        res = g.apply_and_commit(MutationBatch(
            batch_id=0, arrival=0.0,
            remove_vertices=np.array([victim], dtype=np.int64),
        ))
        assert res.vertices_removed == 1
        assert g.n == len(g.alive)  # ids stay stable, no compaction
        assert not g.alive[victim]
        assert g.adj.row_nnz()[victim] == 0
        assert g.adj_t.row_nnz()[victim] == 0
        assert_matches_scratch(g, res.generation)
        with pytest.raises(MutationError):
            g.apply(MutationBatch(
                batch_id=1, arrival=1.0,
                insert_edges=np.array([[victim, 1]], dtype=np.int64),
            ))

    def test_last_writer_wins_within_batch(self, dataset):
        g = DynamicGraph(dataset)
        # insert then delete the same edge in one batch: the delete wins.
        e = np.array([[2, 3]], dtype=np.int64)
        g.apply(MutationBatch(batch_id=0, arrival=0.0, insert_edges=e))
        g.apply(MutationBatch(batch_id=1, arrival=0.0, delete_edges=e))
        res = g.commit()
        b0, b1 = g.adj.indptr[2], g.adj.indptr[3]
        assert 3 not in g.adj.indices[b0:b1]
        assert_matches_scratch(g, res.generation)

    def test_noop_delete_counted(self, dataset):
        g = DynamicGraph(dataset)
        # find a non-edge
        u = 0
        row = set(g.adj.indices[g.adj.indptr[0]:g.adj.indptr[1]].tolist())
        v = next(x for x in range(1, g.n) if x not in row)
        res = g.apply_and_commit(MutationBatch(
            batch_id=0, arrival=0.0,
            delete_edges=np.array([[u, v]], dtype=np.int64),
        ))
        assert res.noop_deletes == 1
        assert res.edges_deleted == 0

    def test_self_loop_insert_rejected(self, dataset):
        g = DynamicGraph(dataset)
        with pytest.raises(MutationError):
            g.apply(MutationBatch(
                batch_id=0, arrival=0.0,
                insert_edges=np.array([[4, 4]], dtype=np.int64),
            ))

    def test_edge_rows_and_adjacent_rows_splice(self, dataset):
        """Touch the first and last rows and two neighbouring rows, so the
        untouched runs include empty ones at both ends and in between."""
        g = DynamicGraph(dataset)
        last = g.n - 1
        res = g.apply_and_commit(MutationBatch(
            batch_id=0, arrival=0.0,
            insert_edges=np.array(
                [[0, last], [last, 0], [5, 6], [6, 5], [5, 7]],
                dtype=np.int64,
            ),
        ))
        assert {0, 5, 6, last} <= set(res.touched_rows.tolist())
        assert_matches_scratch(g, res.generation)

    def test_empty_commit_is_noop_generation(self, dataset):
        g = DynamicGraph(dataset)
        before = g.a_hat_t
        res = g.commit()
        assert res.mutations_applied == 0
        assert g.a_hat_t is before


class TestCSRMatrixEquals:
    def test_equals_structural(self):
        rows = np.array([0, 1, 2])
        cols = np.array([1, 2, 0])
        vals = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        a = csr(rows, cols, vals, (3, 3))
        b = csr(rows, cols, vals, (3, 3))
        assert a.equals(b) and b.equals(a)
        c = csr(rows, cols, vals * 2, (3, 3))
        assert not a.equals(c)
        d = csr(rows, cols, vals, (4, 4))
        assert not a.equals(d)
        assert a.equals(object()) is NotImplemented


class TestLHopAffected:
    def test_exact_on_a_path_graph(self):
        # 0 -> 1 -> 2 -> 3 -> 4 (a_hat_t row v holds in-neighbors of v)
        rows = np.array([1, 2, 3, 4])
        cols = np.array([0, 1, 2, 3])
        vals = np.ones(4, dtype=np.float32)
        at = csr(rows, cols, vals, (5, 5))
        stale = l_hop_affected(at, np.array([1]), num_layers=3)
        assert stale[0].tolist() == [1]
        assert stale[1].tolist() == [1, 2]
        assert stale[2].tolist() == [1, 2, 3]

    def test_single_layer_is_touched_set(self):
        at = csr(np.array([0]), np.array([1]),
                 np.ones(1, dtype=np.float32), (3, 3))
        stale = l_hop_affected(at, np.array([0, 2]), num_layers=1)
        assert len(stale) == 1
        assert stale[0].tolist() == [0, 2]
