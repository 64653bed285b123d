"""COO construction invariants."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import COOMatrix


def test_canonical_sorting():
    coo = COOMatrix((3, 3), rows=[2, 0, 1], cols=[1, 2, 0])
    assert list(coo.rows) == [0, 1, 2]
    assert list(coo.cols) == [2, 0, 1]


def test_duplicates_summed():
    coo = COOMatrix((2, 2), rows=[0, 0, 1], cols=[1, 1, 0], vals=[1.0, 2.0, 5.0])
    assert coo.nnz == 2
    dense = coo.to_dense()
    assert dense[0, 1] == pytest.approx(3.0)
    assert dense[1, 0] == pytest.approx(5.0)


def test_duplicates_kept_when_disabled():
    coo = COOMatrix(
        (2, 2), rows=[0, 0], cols=[1, 1], vals=[1.0, 2.0], sum_duplicates=False
    )
    assert coo.nnz == 2


def test_default_unit_values():
    coo = COOMatrix((2, 2), rows=[0], cols=[1])
    assert coo.vals[0] == pytest.approx(1.0)


def test_out_of_range_indices_rejected():
    with pytest.raises(ShapeError):
        COOMatrix((2, 2), rows=[2], cols=[0])
    with pytest.raises(ShapeError):
        COOMatrix((2, 2), rows=[0], cols=[-1])


def test_length_mismatch_rejected():
    with pytest.raises(ShapeError):
        COOMatrix((2, 2), rows=[0, 1], cols=[0])
    with pytest.raises(ShapeError):
        COOMatrix((2, 2), rows=[0], cols=[0], vals=[1.0, 2.0])


def test_empty_matrix():
    coo = COOMatrix((4, 4), rows=[], cols=[])
    assert coo.nnz == 0
    assert coo.to_dense().sum() == 0


def test_from_edges_symmetrize():
    edges = np.array([[0, 1], [1, 2]])
    coo = COOMatrix.from_edges(3, edges, symmetrize=True)
    dense = coo.to_dense()
    assert dense[0, 1] == dense[1, 0] == 1.0
    assert dense[1, 2] == dense[2, 1] == 1.0


def test_from_edges_shape_check():
    with pytest.raises(ShapeError):
        COOMatrix.from_edges(3, np.array([0, 1, 2]))


def test_transpose_roundtrip():
    coo = COOMatrix((3, 2), rows=[0, 2], cols=[1, 0], vals=[3.0, 4.0])
    t = coo.transpose()
    assert t.shape == (2, 3)
    assert np.allclose(t.to_dense(), coo.to_dense().T)


def _sorted_path(shape, rows, cols, vals, sum_duplicates=True):
    """The constructor's sort-and-merge path, applied unconditionally."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float32)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if sum_duplicates and rows.size:
        keys = rows * shape[1] + cols
        first = np.concatenate(([True], keys[1:] != keys[:-1]))
        summed = np.zeros(int(first.sum()), dtype=vals.dtype)
        np.add.at(summed, np.cumsum(first) - 1, vals)
        rows, cols, vals = rows[first], cols[first], summed
    return rows, cols, vals


def _assert_bitwise(coo, expected):
    for got, want in zip((coo.rows, coo.cols, coo.vals), expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("case", ["sorted", "unsorted", "duplicates",
                                  "sorted_duplicates"])
@pytest.mark.parametrize("sum_duplicates", [True, False])
def test_constructor_matches_sort_path(case, sum_duplicates):
    rng = np.random.default_rng(7)
    shape = (40, 30)
    keys = rng.choice(shape[0] * shape[1], size=200, replace=False)
    if case == "sorted":
        keys = np.sort(keys)
    elif case == "duplicates":
        keys = np.concatenate([keys, keys[:50]])
    elif case == "sorted_duplicates":
        keys = np.sort(np.concatenate([keys, keys[:50]]))
    rows, cols = keys // shape[1], keys % shape[1]
    vals = rng.standard_normal(keys.size).astype(np.float32)
    coo = COOMatrix(shape, rows, cols, vals, sum_duplicates=sum_duplicates)
    _assert_bitwise(
        coo, _sorted_path(shape, rows, cols, vals, sum_duplicates)
    )


def test_sorted_input_is_not_aliased():
    rows = np.array([0, 0, 2], dtype=np.int64)
    cols = np.array([1, 2, 0], dtype=np.int64)
    vals = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    coo = COOMatrix((3, 3), rows, cols, vals)
    rows[0] = cols[0] = 2
    vals[0] = 9.0
    assert coo.rows.tolist() == [0, 0, 2]
    assert coo.cols.tolist() == [1, 2, 0]
    assert coo.vals.tolist() == [1.0, 2.0, 3.0]


def test_degrees():
    coo = COOMatrix((3, 3), rows=[0, 0, 1], cols=[1, 2, 2])
    assert list(coo.row_degrees()) == [2, 1, 0]
    assert list(coo.col_degrees()) == [0, 1, 2]
