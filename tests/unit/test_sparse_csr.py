"""CSR invariants, kernels (scipy vs numpy reference), tiling, scaling."""

import numpy as np
import pytest

from repro.errors import PartitionError, ShapeError
from repro.sparse import COOMatrix, CSRMatrix


@pytest.fixture()
def random_dense(rng):
    dense = (rng.random((12, 9)) < 0.3).astype(np.float32)
    dense *= rng.random((12, 9)).astype(np.float32)
    return dense


def test_from_coo_roundtrip(random_dense):
    rows, cols = np.nonzero(random_dense)
    coo = COOMatrix(random_dense.shape, rows, cols, random_dense[rows, cols])
    csr = CSRMatrix.from_coo(coo)
    assert np.allclose(csr.to_dense(), random_dense)


def test_from_dense_roundtrip(random_dense):
    csr = CSRMatrix.from_dense(random_dense)
    assert np.allclose(csr.to_dense(), random_dense)
    assert np.allclose(csr.to_coo().to_dense(), random_dense)


def test_empty_matrix():
    csr = CSRMatrix.empty((4, 7))
    assert csr.nnz == 0
    assert csr.spmm(np.ones((7, 2), dtype=np.float32)).sum() == 0


def test_validation_rejects_bad_indptr():
    with pytest.raises(ShapeError):
        CSRMatrix((2, 2), indptr=[0, 2], indices=[0, 1], vals=[1, 1])  # short
    with pytest.raises(ShapeError):
        CSRMatrix((2, 2), indptr=[1, 1, 2], indices=[0], vals=[1])  # not 0-based
    with pytest.raises(ShapeError):
        CSRMatrix((2, 2), indptr=[0, 2, 1], indices=[0, 1], vals=[1, 1])  # dec


def test_validation_rejects_bad_indices():
    with pytest.raises(ShapeError):
        CSRMatrix((2, 2), indptr=[0, 1, 2], indices=[0, 5], vals=[1, 1])


def test_spmm_matches_dense(random_dense, rng):
    csr = CSRMatrix.from_dense(random_dense)
    B = rng.random((9, 5)).astype(np.float32)
    assert np.allclose(csr.spmm(B), random_dense @ B, atol=1e-5)


def test_spmm_numpy_reference_matches_scipy(random_dense, rng):
    csr = CSRMatrix.from_dense(random_dense)
    B = rng.random((9, 5)).astype(np.float32)
    fast = csr.spmm(B, use_scipy=True)
    ref = csr.spmm(B, use_scipy=False)
    assert np.allclose(fast, ref, atol=1e-5)


def test_spmm_accumulate(random_dense, rng):
    csr = CSRMatrix.from_dense(random_dense)
    B = rng.random((9, 3)).astype(np.float32)
    out = np.ones((12, 3), dtype=np.float32)
    csr.spmm(B, out=out, accumulate=True)
    assert np.allclose(out, 1.0 + random_dense @ B, atol=1e-5)


def test_spmm_overwrite(random_dense, rng):
    csr = CSRMatrix.from_dense(random_dense)
    B = rng.random((9, 3)).astype(np.float32)
    out = np.full((12, 3), 9.0, dtype=np.float32)
    csr.spmm(B, out=out, accumulate=False)
    assert np.allclose(out, random_dense @ B, atol=1e-5)


def test_spmm_shape_errors(random_dense):
    csr = CSRMatrix.from_dense(random_dense)
    with pytest.raises(ShapeError):
        csr.spmm(np.ones((8, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        csr.spmm(np.ones((9, 2), dtype=np.float32), out=np.ones((3, 2), dtype=np.float32))


def test_spmm_chunking_large(rng):
    """Force the numpy kernel through its chunked path."""
    n = 600
    dense = (rng.random((n, n)) < 0.2).astype(np.float32)
    csr = CSRMatrix.from_dense(dense)
    B = rng.random((n, 512)).astype(np.float32)  # nnz*d > 32M
    got = csr.spmm(B, use_scipy=False)
    assert np.allclose(got, dense @ B, atol=1e-2)


def test_spmv(random_dense, rng):
    csr = CSRMatrix.from_dense(random_dense)
    v = rng.random(9).astype(np.float32)
    assert np.allclose(csr.spmv(v), random_dense @ v, atol=1e-5)
    with pytest.raises(ShapeError):
        csr.spmv(np.ones((9, 1), dtype=np.float32))


def test_transpose(random_dense):
    csr = CSRMatrix.from_dense(random_dense)
    assert np.allclose(csr.transpose().to_dense(), random_dense.T)


def test_row_block(random_dense):
    csr = CSRMatrix.from_dense(random_dense)
    block = csr.row_block(3, 8)
    assert np.allclose(block.to_dense(), random_dense[3:8])
    with pytest.raises(PartitionError):
        csr.row_block(5, 20)


def test_tile(random_dense):
    csr = CSRMatrix.from_dense(random_dense)
    tile = csr.tile(2, 7, 3, 9)
    assert np.allclose(tile.to_dense(), random_dense[2:7, 3:9])
    with pytest.raises(PartitionError):
        csr.tile(0, 2, 5, 100)


def test_scale_rows_and_cols(random_dense):
    csr = CSRMatrix.from_dense(random_dense)
    r = np.arange(1, 13, dtype=np.float32)
    c = np.arange(1, 10, dtype=np.float32)
    assert np.allclose(csr.scale_rows(r).to_dense(), random_dense * r[:, None], atol=1e-5)
    assert np.allclose(csr.scale_cols(c).to_dense(), random_dense * c[None, :], atol=1e-5)
    with pytest.raises(ShapeError):
        csr.scale_rows(c)
    with pytest.raises(ShapeError):
        csr.scale_cols(r)


def test_nbytes_accounting(random_dense):
    csr = CSRMatrix.from_dense(random_dense)
    expected = (12 + 1) * 8 + csr.nnz * (4 + 4)
    assert csr.nbytes == expected


def test_row_nnz(random_dense):
    csr = CSRMatrix.from_dense(random_dense)
    assert np.array_equal(csr.row_nnz(), (random_dense != 0).sum(axis=1))


# -- spmm_into's compiled fast path -------------------------------------------


def with_empty_rows(rng, shape, density=0.3):
    """float32 CSR with every third row empty (row 0 included)."""
    dense = (rng.random(shape) < density) * rng.standard_normal(shape)
    dense[::3] = 0.0
    return CSRMatrix.from_dense(dense.astype(np.float32))


def twin(csr):
    """A separate instance over the same arrays (its own caches)."""
    return CSRMatrix(csr.shape, csr.indptr, csr.indices, csr.vals,
                     validate=False)


def operator_path(csr, dense, out):
    """``out += A @ dense`` through the scipy operator — the reference."""
    out += (twin(csr)._scipy() @ dense).astype(out.dtype, copy=False)
    return out


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


class TestSpmmIntoFastPath:
    @pytest.mark.parametrize("shape,width", [((30, 20), 7), ((9, 40), 1),
                                             ((64, 64), 16)])
    def test_empty_rows_bitwise_vs_operator(self, rng, shape, width):
        csr = with_empty_rows(rng, shape)
        x = rng.standard_normal((shape[1], width)).astype(np.float32)
        out = np.full((shape[0], width), 5.0, dtype=np.float32)
        csr.spmm_into(x, out, accumulate=False)
        want = operator_path(csr, x, np.zeros_like(out))
        assert same_bits(out, want)
        assert csr._scipy_cache is None

    def test_no_entries(self, rng):
        for csr in (CSRMatrix.empty((6, 4)),
                    CSRMatrix.from_dense(np.zeros((6, 4), dtype=np.float32))):
            x = rng.standard_normal((4, 3)).astype(np.float32)
            out = np.full((6, 3), 2.0, dtype=np.float32)
            csr.spmm_into(x, out, accumulate=True)
            assert (out == 2.0).all()
            csr.spmm_into(x, out, accumulate=False)
            assert (out == 0.0).all()
            assert csr._scipy_cache is None

    def test_strided_out_bitwise_vs_operator(self, rng):
        csr = with_empty_rows(rng, (25, 18))
        x = rng.standard_normal((18, 5)).astype(np.float32)
        wide = rng.standard_normal((25, 11)).astype(np.float32)
        out = wide[:, 3:8]
        assert not out.flags.c_contiguous
        want = operator_path(csr, x, out.copy())
        csr.spmm_into(x, out, accumulate=True)
        assert same_bits(out, want)
        assert csr._scipy_cache is None

    def test_float64_dense_takes_operator_fallback(self, rng):
        csr = with_empty_rows(rng, (20, 15))
        x = rng.standard_normal((15, 4))
        out = rng.standard_normal((20, 4)).astype(np.float32)
        want = operator_path(csr, x, out.copy())
        csr.spmm_into(x, out, accumulate=True)
        assert same_bits(out, want)

    def test_missing_kernel_takes_operator_fallback(self, rng, monkeypatch):
        import repro.sparse.csr as csr_module

        monkeypatch.setattr(csr_module, "_csr_matvecs", lambda: None)
        csr = with_empty_rows(rng, (20, 15))
        x = rng.standard_normal((15, 4)).astype(np.float32)
        out = rng.standard_normal((20, 4)).astype(np.float32)
        want = operator_path(csr, x, out.copy())
        csr.spmm_into(x, out, accumulate=True)
        assert same_bits(out, want)
        assert csr._fast_spmm[5] is None  # cached as "no compiled kernel"

    @pytest.mark.parametrize("shape", [(12, 9), (3, 2**31 + 10)])
    def test_index_dtype_is_scipys(self, shape):
        """int32 while shape and nnz fit, int64 for both arrays beyond."""
        csr = CSRMatrix(shape, [0, 1, 1, 3] + [3] * (shape[0] - 3),
                        [0, 1, 5], np.ones(3, dtype=np.float32))
        _, _, indptr, indices, data, _, _ = csr._spmm_fast_args()
        ref = twin(csr)._scipy()
        expected = np.int32 if max(shape) < 2**31 else np.int64
        assert indptr.dtype == indices.dtype == ref.indptr.dtype == expected
        assert np.array_equal(indptr, ref.indptr)
        assert np.array_equal(indices, ref.indices)
        assert data is csr.vals
        assert csr._scipy_cache is None
