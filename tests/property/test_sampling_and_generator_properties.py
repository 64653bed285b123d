"""Property tests: neighbour sampling invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sampling import NeighborSampler, neighborhood_expansion
from repro.sparse import COOMatrix, CSRMatrix


def _random_graph(n, density_seed):
    rng = np.random.default_rng(density_seed)
    dense = (rng.random((n, n)) < 0.2).astype(np.float32)
    np.fill_diagonal(dense, 0.0)
    return CSRMatrix.from_dense(dense)


class TestSamplerProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(10, 40),       # graph size
        st.integers(1, 3),         # layers
        st.integers(1, 6),         # fanout
        st.integers(0, 2**31 - 1), # seed
    )
    def test_blocks_chain_and_respect_fanout(self, n, layers, fanout, seed):
        adj = _random_graph(n, seed)
        sampler = NeighborSampler(adj, fanouts=[fanout] * layers)
        rng = np.random.default_rng(seed)
        seeds = np.unique(rng.integers(0, n, size=min(5, n)))
        blocks = sampler.sample(seeds, rng=rng)
        assert len(blocks) == layers
        assert np.array_equal(np.sort(blocks[-1].dst_nodes), seeds)
        for a, b in zip(blocks[:-1], blocks[1:]):
            assert np.array_equal(a.dst_nodes, b.src_nodes)
        for block in blocks:
            assert block.adjacency.row_nnz().max() <= fanout
            # destination prefix convention
            assert np.array_equal(
                block.src_nodes[: block.num_dst], block.dst_nodes
            )
            # sampled edges exist in the real graph
            dense = adj.to_dense()
            brows = np.repeat(
                np.arange(block.num_dst), block.adjacency.row_nnz()
            )
            for local_dst, local_src in zip(brows, block.adjacency.indices):
                u = int(block.dst_nodes[local_dst])
                v = int(block.src_nodes[local_src])
                assert dense[u, v] != 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(10, 60), st.integers(0, 3), st.integers(0, 2**31 - 1))
    def test_expansion_monotone_bounded(self, n, hops, seed):
        adj = _random_graph(n, seed)
        rng = np.random.default_rng(seed)
        seeds = np.unique(rng.integers(0, n, size=3))
        sizes = neighborhood_expansion(adj, seeds, hops=hops)
        assert len(sizes) == hops + 1
        assert sizes[0] == seeds.size
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= n
