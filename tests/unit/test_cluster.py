"""Multi-node cluster model: topology, NIC sharing, the scaling wall."""

import pytest

from repro.comm import Communicator
from repro.config import GB
from repro.core import MGGCNTrainer
from repro.datasets import load_dataset
from repro.errors import TopologyError
from repro.hardware import Topology, dgx1, dgx_a100, multi_node_cluster
from repro.hardware.spec import LinkSpec, MachineSpec
from repro.nn import GCNModelSpec


class TestClusterConstruction:
    def test_basic(self):
        cluster = multi_node_cluster(4, dgx1())
        assert cluster.num_gpus == 32
        assert cluster.num_nodes == 4
        assert cluster.node_size == 8
        assert cluster.node_of(0) == 0
        assert cluster.node_of(15) == 1
        assert cluster.node_of(31) == 3

    def test_intra_node_links_replicated(self):
        cluster = multi_node_cluster(2, dgx1())
        # GPU 8 (node 1's gpu 0) has the same 6-link budget as GPU 0
        assert sum(l.count for l in cluster.links_from(8)) == 6
        # and its links stay inside node 1
        for link in cluster.links_from(8):
            assert 8 <= link.dst < 16

    def test_switched_node_template(self):
        cluster = multi_node_cluster(2, dgx_a100())
        assert cluster.has_switch
        assert cluster.num_gpus == 16

    def test_single_node_cluster_is_plain(self):
        cluster = multi_node_cluster(1, dgx1())
        assert cluster.num_nodes == 1
        assert cluster.inter_node_bandwidth == 0.0

    def test_validation(self):
        with pytest.raises(TopologyError):
            multi_node_cluster(0, dgx1())
        nested = multi_node_cluster(2, dgx1())
        with pytest.raises(TopologyError):
            multi_node_cluster(2, nested)

    def test_cross_node_explicit_link_rejected(self):
        gpu = dgx1().gpu
        with pytest.raises(TopologyError):
            MachineSpec(
                name="bad", gpu=gpu, num_gpus=4, node_size=2,
                inter_node_bandwidth=25 * GB,
                links=(LinkSpec(src=0, dst=3, bandwidth=1.0),),
            )

    def test_multi_node_requires_nic(self):
        gpu = dgx1().gpu
        with pytest.raises(TopologyError):
            MachineSpec(name="bad", gpu=gpu, num_gpus=4, node_size=2)


class TestClusterTopology:
    def test_nic_shared_among_participants(self):
        cluster = multi_node_cluster(2, dgx1(), nic_bandwidth=25 * GB)
        topo = Topology(cluster)
        intra = topo.collective_bandwidth(range(8))
        cross = topo.collective_bandwidth(range(16))
        assert intra == pytest.approx(150 * GB)
        assert cross == pytest.approx(25 * GB / 8)  # NIC / 8 GPUs per node

    def test_partial_node_participation(self):
        cluster = multi_node_cluster(2, dgx1(), nic_bandwidth=25 * GB)
        topo = Topology(cluster)
        # 2 GPUs per node -> each pair shares the NIC two ways
        bw = topo.collective_bandwidth([0, 1, 8, 9])
        assert bw == pytest.approx(25 * GB / 2)

    def test_cross_node_p2p(self):
        cluster = multi_node_cluster(2, dgx1(), nic_bandwidth=25 * GB)
        topo = Topology(cluster)
        assert topo.p2p_bandwidth(0, 8) == pytest.approx(25 * GB)
        assert topo.p2p_latency(0, 8) == pytest.approx(5e-6)

    def test_cross_node_bisection(self):
        cluster = multi_node_cluster(4, dgx1(), nic_bandwidth=25 * GB)
        topo = Topology(cluster)
        bw = topo.bisection_bandwidth(range(16), range(16, 32))
        assert bw == pytest.approx(2 * 25 * GB)


class TestScalingWall:
    def test_scaling_blocked_beyond_a_node(self):
        """The paper's motivating claim: full-batch GNN training does
        not scale past a single machine — crossing the node boundary
        makes the epoch *slower* despite doubling the GPUs. The wall is
        the flat ring's (the default node-aware collectives break it; see
        ``test_parallel_trainers``)."""
        cluster = multi_node_cluster(4, dgx1())
        ds = load_dataset("reddit", symbolic=True)
        model = GCNModelSpec.paper_model(1, ds.d0, ds.num_classes)

        def epoch(P):
            trainer = MGGCNTrainer(ds, model, machine=cluster, num_gpus=P)
            trainer.comm = Communicator(
                trainer.ctx, bw_derate=trainer.comm.bw_derate
            )
            return trainer.train_epoch().epoch_time

        t8, t16, t32 = epoch(8), epoch(16), epoch(32)
        assert t16 > 2 * t8  # the wall
        assert t32 > 2 * t8  # more nodes do not recover it
