"""Property tests: partition vectors and permutations."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sparse import (
    COOMatrix,
    CSRMatrix,
    apply_permutation,
    invert_permutation,
    random_permutation,
    uniform_partition,
)
from repro.sparse.partition import PartitionVector, tile_grid
from repro.sparse.permutation import permute_rows


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 500), st.integers(1, 32))
def test_uniform_partition_covers_everything(n, parts):
    p = uniform_partition(n, parts)
    assert p.num_parts == parts
    assert p.total == n
    assert sum(p.sizes()) == n
    sizes = p.sizes()
    assert max(sizes) - min(sizes) <= 1  # near-equal


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 500), st.integers(1, 32))
def test_owner_consistent_with_parts(n, parts):
    p = uniform_partition(n, parts)
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, n, size=min(n, 16)):
        owner = p.owner(int(idx))
        lo, hi = p.part(owner)
        assert lo <= idx < hi


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 300), st.integers(0, 2**31 - 1))
def test_permutation_bijective(n, seed):
    perm = random_permutation(n, seed=seed)
    assert np.array_equal(np.sort(perm), np.arange(n))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**31 - 1))
def test_inverse_composes_to_identity(n, seed):
    perm = random_permutation(n, seed=seed)
    inv = invert_permutation(perm)
    assert np.array_equal(perm[inv], np.arange(n))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**31 - 1))
def test_symmetric_permutation_preserves_structure(n, seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 0.3).astype(np.float32)
    coo = COOMatrix(dense.shape, *np.nonzero(dense))
    perm = random_permutation(n, seed=seed + 1)
    permuted = apply_permutation(coo, perm)
    assert permuted.nnz == coo.nnz
    # degree multiset preserved
    assert sorted(permuted.row_degrees()) == sorted(coo.row_degrees())
    # applying inverse restores the matrix
    restored = apply_permutation(permuted, invert_permutation(perm))
    assert np.allclose(restored.to_dense(), coo.to_dense())


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 100), st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_permute_rows_invertible(n, d, seed):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((n, d))
    perm = random_permutation(n, seed=seed)
    out = permute_rows(arr, perm)
    back = out[perm]  # out[perm[i]] == arr[i]
    assert np.allclose(back, arr)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 40), st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_permutation_preserves_spmm_result(n, d, seed):
    """Training math is permutation-equivariant: P A P^T (P x) = P (A x).
    This is the invariant that makes §5.2's permutation trick safe."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 0.4).astype(np.float32)
    coo = COOMatrix(dense.shape, *np.nonzero(dense))
    x = rng.standard_normal((n, d)).astype(np.float32)
    perm = random_permutation(n, seed=seed + 7)

    from repro.sparse import CSRMatrix

    y_plain = CSRMatrix.from_coo(coo).spmm(x)
    permuted = CSRMatrix.from_coo(apply_permutation(coo, perm))
    y_perm = permuted.spmm(permute_rows(x, perm))
    assert np.allclose(permute_rows(y_plain, perm), y_perm, atol=1e-3)


@st.composite
def _tiled_matrix(draw):
    """A random CSR matrix (empty rows included) and row/column partition
    vectors that may have empty parts."""
    n_rows = draw(st.integers(0, 30))
    n_cols = draw(st.integers(0, 30))
    seed = draw(st.integers(0, 2**31 - 1))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    rng = np.random.default_rng(seed)
    dense = np.where(
        rng.random((n_rows, n_cols)) < density,
        rng.standard_normal((n_rows, n_cols)), 0.0,
    ).astype(np.float32)

    def parts(total):
        cuts = draw(st.lists(st.integers(0, total), min_size=0, max_size=6))
        return PartitionVector(tuple([0, *sorted(cuts), total]))

    return CSRMatrix.from_dense(dense), parts(n_rows), parts(n_cols)


@settings(max_examples=150, deadline=None)
@given(_tiled_matrix())
def test_tile_grid_equals_per_tile_cuts(case):
    """The one-pass tiling cuts every tile exactly as CSRMatrix.tile
    does: the same indptr, indices and values, with the same dtypes."""
    matrix, rows, cols = case
    grid = tile_grid(matrix, rows, cols)
    assert len(grid) == rows.num_parts
    for (r0, r1), row_tiles in zip(rows, grid):
        assert len(row_tiles) == cols.num_parts
        for (c0, c1), got in zip(cols, row_tiles):
            want = matrix.tile(r0, r1, c0, c1)
            assert got.shape == want.shape
            for field in ("indptr", "indices", "vals"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype, field
                assert np.array_equal(a, b), field
