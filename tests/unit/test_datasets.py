"""Dataset registry, generators (Chung-Lu, planted), loader."""

import numpy as np
import pytest

from repro.datasets import (
    DatasetSpec,
    SymbolicDataset,
    chung_lu_graph,
    get_spec,
    load_dataset,
    planted_partition_dataset,
    power_law_degrees,
    table1_rows,
)
from repro.datasets.synthetic import split_masks
from repro.errors import DatasetError


class TestSpecs:
    def test_table1_verbatim(self):
        rows = {r[0]: r for r in table1_rows()}
        assert rows["reddit"][1] == 233_000
        assert rows["reddit"][3] == 602
        assert rows["papers"][2] == 1_610_000_000
        assert rows["cora"][4] == 6
        assert rows["proteins"][4] == 256

    def test_avg_degree(self):
        spec = get_spec("reddit")
        assert spec.avg_degree == pytest.approx(115_000_000 / 233_000)

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            get_spec("imagenet")

    def test_case_insensitive(self):
        assert get_spec("Reddit").name == "reddit"

    def test_scaled_preserves_degree_and_widths(self):
        spec = get_spec("products").scaled(0.01)
        assert spec.d0 == 104
        assert spec.num_classes == 47
        assert spec.avg_degree == pytest.approx(
            get_spec("products").avg_degree, rel=0.05
        )

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(DatasetError):
            get_spec("cora").scaled(0.0)


class TestPowerLawDegrees:
    def test_mean_calibrated(self):
        w = power_law_degrees(10_000, mean_degree=12.0, exponent=2.2)
        assert w.mean() == pytest.approx(12.0, rel=1e-6)

    def test_sorted_descending(self):
        w = power_law_degrees(1000, 5.0)
        assert np.all(np.diff(w) <= 0)

    def test_heavy_tail(self):
        w = power_law_degrees(10_000, 10.0, exponent=2.0)
        assert w[0] > 10 * w.mean()

    def test_validation(self):
        with pytest.raises(DatasetError):
            power_law_degrees(0, 5.0)
        with pytest.raises(DatasetError):
            power_law_degrees(10, -1.0)
        with pytest.raises(DatasetError):
            power_law_degrees(10, 5.0, exponent=1.0)


class TestChungLu:
    def test_basic_properties(self):
        w = power_law_degrees(2000, 8.0)
        adj = chung_lu_graph(w, seed=1)
        assert adj.shape == (2000, 2000)
        assert adj.nnz > 0
        dense_deg = adj.row_degrees()
        # symmetric
        assert np.array_equal(adj.to_dense(), adj.to_dense().T)
        # no self loops
        assert not np.any(adj.rows == adj.cols)

    def test_edge_count_near_target(self):
        w = power_law_degrees(5000, 10.0)
        adj = chung_lu_graph(w, num_edges=25_000, seed=2)
        # symmetrised, deduped: within a factor ~2.2 of 2*requested
        assert 0.45 * 50_000 <= adj.nnz <= 50_000

    def test_degree_correlates_with_weights(self):
        w = power_law_degrees(3000, 10.0)
        adj = chung_lu_graph(w, seed=3)
        deg = adj.row_degrees()
        # top-weight decile should out-degree bottom decile substantially
        assert deg[:300].mean() > 3 * deg[-300:].mean()

    def test_deterministic(self):
        w = power_law_degrees(500, 6.0)
        a = chung_lu_graph(w, seed=7)
        b = chung_lu_graph(w, seed=7)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cols, b.cols)

    def test_validation(self):
        with pytest.raises(DatasetError):
            chung_lu_graph(np.array([]))
        with pytest.raises(DatasetError):
            chung_lu_graph(np.array([-1.0, 2.0]))
        with pytest.raises(DatasetError):
            chung_lu_graph(np.zeros(5))


class TestPlanted:
    def test_homophily_realised(self):
        adj, x, y, train, val, test = planted_partition_dataset(
            2000, num_classes=4, feature_dim=8, avg_degree=12,
            homophily=0.9, seed=9,
        )
        same = (y[adj.rows] == y[adj.cols]).mean()
        assert same > 0.6  # 0.9 within + chance cross hits

    def test_all_classes_present(self):
        _, _, y, _, _, _ = planted_partition_dataset(
            50, num_classes=7, feature_dim=4, seed=10
        )
        assert set(np.unique(y)) == set(range(7))

    def test_features_carry_signal(self):
        _, x, y, _, _, _ = planted_partition_dataset(
            1000, num_classes=3, feature_dim=16, feature_noise=0.1, seed=11
        )
        centroids = np.stack([x[y == c].mean(axis=0) for c in range(3)])
        # distinct centroids
        assert np.linalg.norm(centroids[0] - centroids[1]) > 1.0

    def test_validation(self):
        with pytest.raises(DatasetError):
            planted_partition_dataset(3, num_classes=5, feature_dim=4)
        with pytest.raises(DatasetError):
            planted_partition_dataset(10, 2, 4, homophily=1.5)
        with pytest.raises(DatasetError):
            planted_partition_dataset(10, 2, 4, avg_degree=0)


class TestSplits:
    def test_masks_partition_vertices(self):
        train, val, test = split_masks(100, 0.4, 0.2, seed=12)
        combined = train.astype(int) + val.astype(int) + test.astype(int)
        assert np.all(combined == 1)
        assert train.sum() == 40

    def test_validation(self):
        with pytest.raises(DatasetError):
            split_masks(10, 0.0)
        with pytest.raises(DatasetError):
            split_masks(10, 0.5, 0.6)


class TestLoader:
    def test_functional_load(self):
        ds = load_dataset("arxiv", scale=0.01, seed=13)
        assert not ds.is_symbolic
        assert ds.d0 == 128
        assert ds.num_classes == 40
        assert ds.n == pytest.approx(1690, rel=0.01)
        assert ds.avg_degree == pytest.approx(get_spec("arxiv").avg_degree, rel=0.5)

    def test_symbolic_load_full_size(self):
        ds = load_dataset("papers", symbolic=True)
        assert ds.is_symbolic
        assert ds.n == 111_000_000
        assert ds.num_train >= 1

    def test_learnable_load(self):
        ds = load_dataset("cora", scale=0.2, learnable=True, seed=14)
        # labels must correlate with structure: check homophily
        same = (ds.labels[ds.adjacency.rows] == ds.labels[ds.adjacency.cols]).mean()
        assert same > 1.5 / ds.num_classes

    def test_deterministic(self):
        a = load_dataset("cora", scale=0.1, seed=15)
        b = load_dataset("cora", scale=0.1, seed=15)
        assert np.array_equal(a.adjacency.rows, b.adjacency.rows)
        assert np.allclose(a.features, b.features)

    def test_dataset_validation(self):
        ds = load_dataset("cora", scale=0.1, seed=16)
        from repro.datasets import Dataset

        with pytest.raises(DatasetError):
            Dataset(
                name="bad",
                adjacency=ds.adjacency,
                features=ds.features[:-1],
                labels=ds.labels,
                train_mask=ds.train_mask,
                val_mask=ds.val_mask,
                test_mask=ds.test_mask,
                num_classes=ds.num_classes,
            )

    def test_symbolic_validation(self):
        with pytest.raises(DatasetError):
            SymbolicDataset(name="x", n=0, m=1, d0=1, num_classes=1)
