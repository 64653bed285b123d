"""Property tests: the serving frontier gather against a sort-based oracle.

``ServingEngine._sub_csr`` restricts ``A_hat^T`` to a set of rows and
compacts the referenced columns. :func:`sub_csr_reference` does it the
obvious way, ``np.unique`` over the gathered columns and
``np.searchsorted`` to remap them; the engine marks the column range and
remaps through a position table instead, and a single canonical row
is its own ``need`` set. Both must return the same ``need`` ids and a
bitwise-equal sub-matrix for any sorted unique row set, including rows
with no in-edges, the first and last rows, rows of vertices a commit
added, and a single row stored with its columns out of order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.loader import Dataset
from repro.dynamic import DynamicGraph, DynamicServingEngine, MutationBatch
from repro.nn import GCNModelSpec
from repro.nn.init import init_weights
from repro.serve import ServingConfig, ServingEngine
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

pytestmark = pytest.mark.serving

N = 40
#: a vertex with no edges at all: an empty row of ``A_hat^T``.
ISOLATED = 17
ADDED = 3


def sub_csr_reference(a_hat_t, rows):
    """``(need, sub)`` via a sort of the gathered columns."""
    indptr = a_hat_t.indptr
    starts = indptr[rows].astype(np.int64)
    lens = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    total = int(lens.sum())
    offsets = np.cumsum(lens) - lens
    flat = np.repeat(starts, lens) + (
        np.arange(total, dtype=np.int64) - np.repeat(offsets, lens)
    )
    cols = a_hat_t.indices[flat]
    need = np.unique(cols).astype(np.int64)
    sub = CSRMatrix(
        (rows.size, need.size),
        np.concatenate(([0], np.cumsum(lens))),
        np.searchsorted(need, cols),
        a_hat_t.vals[flat],
        validate=False,
    )
    return need, sub


def small_dataset():
    rng = np.random.default_rng(4)
    rows = rng.integers(0, N, 240)
    cols = rng.integers(0, N, 240)
    keep = (rows != ISOLATED) & (cols != ISOLATED)
    adjacency = COOMatrix((N, N), rows[keep], cols[keep],
                          rng.random(int(keep.sum())).astype(np.float32))
    mask = np.ones(N, dtype=bool)
    return Dataset(
        name="small", adjacency=adjacency,
        features=rng.standard_normal((N, 6)).astype(np.float32),
        labels=rng.integers(0, 3, N), train_mask=mask, val_mask=mask,
        test_mask=mask, num_classes=3,
    )


DATASET = small_dataset()
SPEC = GCNModelSpec.build(DATASET.d0, 8, DATASET.num_classes, 2)
WEIGHTS = init_weights(SPEC.layer_dims, seed=0)
CONFIG = ServingConfig(num_gpus=2, record_trace=False)


def static_engine():
    return ServingEngine(DATASET, WEIGHTS, SPEC, config=CONFIG)


def grown_engine():
    """The live engine after a commit that added :data:`ADDED` vertices;
    the last one added has no edges."""
    dyn = DynamicServingEngine(DynamicGraph(DATASET), WEIGHTS, SPEC,
                               config=CONFIG)
    dyn.apply(MutationBatch(
        batch_id=0, arrival=0.0,
        insert_edges=np.array([[N, 0], [0, N], [N + 1, N - 1], [N, N + 1]]),
        add_features=np.ones((ADDED, DATASET.d0), dtype=np.float32),
        add_labels=np.zeros(ADDED, dtype=np.int64),
    ))
    dyn.commit()
    return dyn.engine


ENGINES = {"static": static_engine(), "grown": grown_engine()}


def assert_matches_reference(engine, rows):
    rows = np.asarray(rows, dtype=np.int64)
    need, sub = engine._sub_csr(rows)
    want_need, want_sub = sub_csr_reference(engine.a_hat_t, rows)
    assert need.dtype == np.int64
    assert np.array_equal(need, want_need)
    assert sub.indptr.dtype == want_sub.indptr.dtype
    assert sub.indices.dtype == want_sub.indices.dtype
    assert sub.equals(want_sub)


def test_fixture_shapes():
    static, grown = ENGINES["static"], ENGINES["grown"]
    assert static.a_hat_t.row_nnz()[ISOLATED] == 0
    assert grown.a_hat_t.shape == (N + ADDED, N + ADDED)
    assert grown.a_hat_t.row_nnz()[N + ADDED - 1] == 0
    assert grown.a_hat_t.row_nnz()[N] > 0


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_edge_rows(name):
    engine = ENGINES[name]
    n = engine.a_hat_t.shape[0]
    for rows in ([0], [n - 1], [ISOLATED], [0, n - 1], [0, ISOLATED, n - 1],
                 list(range(n)), [n - 3, n - 2, n - 1]):
        assert_matches_reference(engine, sorted(set(rows)))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(ENGINES)), data=st.data())
def test_random_row_sets(name, data):
    engine = ENGINES[name]
    n = engine.a_hat_t.shape[0]
    rows = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    assert_matches_reference(engine, sorted(rows))


def test_single_row_with_unsorted_columns():
    """One row takes a shortcut only when its columns are strictly
    increasing; a row stored out of order takes the general gather."""
    engine = static_engine()
    a = engine.a_hat_t
    row = int(np.argmax(a.row_nnz()))
    lo, hi = a.indptr[row], a.indptr[row + 1]
    indices, vals = a.indices.copy(), a.vals.copy()
    indices[lo:hi] = indices[lo:hi][::-1]
    vals[lo:hi] = vals[lo:hi][::-1]
    engine.a_hat_t = CSRMatrix(a.shape, a.indptr, indices, vals)
    assert_matches_reference(engine, [row])
