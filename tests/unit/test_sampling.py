"""Neighbour sampling, explosion metric, mini-batch trainer."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.device import category_seconds
from repro.errors import ConfigurationError
from repro.nn import GCNModelSpec
from repro.sampling import (
    MiniBatchGCNTrainer,
    NeighborSampler,
    neighborhood_expansion,
)
from repro.sparse import CSRMatrix
from repro.sparse.normalize import gcn_normalize


@pytest.fixture(scope="module")
def graph():
    ds = load_dataset("cora", scale=0.3, learnable=True, seed=1)
    adj = gcn_normalize(ds.adjacency).transpose()
    return ds, adj


class TestNeighborSampler:
    def test_block_shapes_and_ordering(self, graph):
        _, adj = graph
        sampler = NeighborSampler(adj, fanouts=[4, 4])
        seeds = np.array([0, 5, 9])
        blocks = sampler.sample(seeds, rng=1)
        assert len(blocks) == 2
        # last block's destinations are the seeds
        assert np.array_equal(np.sort(blocks[-1].dst_nodes), np.sort(seeds))
        # chaining: dst of block l == src of block l+1
        assert np.array_equal(blocks[0].dst_nodes, blocks[1].src_nodes)
        # destination prefix convention
        for block in blocks:
            assert np.array_equal(block.src_nodes[: block.num_dst],
                                  block.dst_nodes)

    def test_fanout_respected(self, graph):
        _, adj = graph
        sampler = NeighborSampler(adj, fanouts=[3])
        blocks = sampler.sample(np.arange(20), rng=2)
        assert blocks[0].adjacency.row_nnz().max() <= 3

    def test_rows_are_mean_normalised(self, graph):
        _, adj = graph
        sampler = NeighborSampler(adj, fanouts=[4])
        block = sampler.sample(np.arange(10), rng=3)[0]
        sums = block.adjacency.to_dense().sum(axis=1)
        nz = block.adjacency.row_nnz() > 0
        assert np.allclose(sums[nz], 1.0, atol=1e-5)

    def test_deterministic_given_rng(self, graph):
        _, adj = graph
        sampler = NeighborSampler(adj, fanouts=[4, 4])
        a = sampler.sample(np.arange(8), rng=7)
        b = sampler.sample(np.arange(8), rng=7)
        assert np.array_equal(a[0].src_nodes, b[0].src_nodes)

    def test_validation(self, graph):
        _, adj = graph
        with pytest.raises(ConfigurationError):
            NeighborSampler(adj, fanouts=[])
        with pytest.raises(ConfigurationError):
            NeighborSampler(adj, fanouts=[0])
        with pytest.raises(ConfigurationError):
            NeighborSampler(CSRMatrix.empty((3, 4)), fanouts=[2])
        sampler = NeighborSampler(adj, fanouts=[2])
        with pytest.raises(ConfigurationError):
            sampler.sample(np.array([], dtype=np.int64))


class TestExpansion:
    def test_monotone_and_bounded(self, graph):
        ds, adj = graph
        sizes = neighborhood_expansion(adj, np.arange(8), hops=3)
        assert len(sizes) == 4
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= ds.n

    def test_explosion_on_dense_graph(self):
        """The intro's claim: a handful of seeds reaches almost the whole
        graph within a couple of hops on a Reddit-density graph."""
        ds = load_dataset("reddit", scale=0.01, seed=3)
        adj = gcn_normalize(ds.adjacency).transpose()
        sizes = neighborhood_expansion(adj, np.arange(16), hops=2)
        assert sizes[2] > 0.9 * ds.n

    def test_path_graph_grows_linearly(self):
        n = 50
        dense = np.zeros((n, n), dtype=np.float32)
        for i in range(n - 1):
            dense[i, i + 1] = dense[i + 1, i] = 1.0
        adj = CSRMatrix.from_dense(dense)
        sizes = neighborhood_expansion(adj, np.array([0]), hops=5)
        assert sizes == [1, 2, 3, 4, 5, 6]

    def test_zero_hops(self, graph):
        _, adj = graph
        assert neighborhood_expansion(adj, np.array([3, 4]), hops=0) == [2]

    def test_validation(self, graph):
        _, adj = graph
        with pytest.raises(ConfigurationError):
            neighborhood_expansion(adj, np.array([0]), hops=-1)


class TestMiniBatchTrainer:
    def test_learns(self, graph):
        ds, _ = graph
        model = GCNModelSpec.build(ds.d0, 16, ds.num_classes, 2)
        trainer = MiniBatchGCNTrainer(ds, model, fanouts=[5, 5],
                                      batch_size=64, seed=2)
        stats = trainer.fit(8)
        assert stats[-1].loss < 0.5 * stats[0].loss
        assert trainer.evaluate("test") > 2.0 / ds.num_classes

    def test_epoch_stats_protocol(self, graph):
        ds, _ = graph
        model = GCNModelSpec.build(ds.d0, 8, ds.num_classes, 2)
        trainer = MiniBatchGCNTrainer(ds, model, batch_size=128, seed=3)
        stats = trainer.train_epoch()
        assert stats.epoch_time > 0
        assert category_seconds(stats.trace).get("spmm", 0) > 0

    def test_composes_with_training_loop(self, graph):
        from repro.training import TrainingLoop

        ds, _ = graph
        model = GCNModelSpec.build(ds.d0, 8, ds.num_classes, 2)
        trainer = MiniBatchGCNTrainer(ds, model, batch_size=128, seed=4)
        loop = TrainingLoop(trainer, max_epochs=3, eval_every=3)
        history = loop.run()
        assert history.epochs == 3
        assert history.best_val_accuracy is not None

    def test_validation(self, graph):
        ds, _ = graph
        model = GCNModelSpec.build(ds.d0, 8, ds.num_classes, 2)
        with pytest.raises(ConfigurationError):
            MiniBatchGCNTrainer(ds, model, batch_size=0)
        with pytest.raises(ConfigurationError):
            MiniBatchGCNTrainer(ds, model, fanouts=[5])
        bad_model = GCNModelSpec.build(3, 8, ds.num_classes, 2)
        with pytest.raises(ConfigurationError):
            MiniBatchGCNTrainer(ds, bad_model)

    def test_sampled_epoch_does_more_work_than_full_batch(self, graph):
        """Per-epoch touched-vertex volume exceeds n once fanouts and
        hops multiply — the neighbourhood-explosion work blow-up."""
        ds, adj = graph
        sampler = NeighborSampler(adj, fanouts=[10, 10])
        train_ids = np.nonzero(ds.train_mask)[0]
        touched = 0
        rng = np.random.default_rng(0)
        for start in range(0, train_ids.size, 32):
            seeds = train_ids[start : start + 32]
            blocks = sampler.sample(seeds, rng=rng)
            touched += blocks[0].num_src
        assert touched > ds.n  # a full-batch epoch touches each vertex once
