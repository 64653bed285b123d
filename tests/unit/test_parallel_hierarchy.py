"""Node-aware collectives: payload equality, timing, link accounting."""

import numpy as np
import pytest

from repro.comm import Communicator
from repro.device import SimContext
from repro.hardware import dgx1, multi_node_cluster, uniform_machine
from repro.parallel import (
    HierarchicalCommunicator,
    group_leaders,
    link_class,
    node_groups,
    spans_nodes,
)
from repro.resilience import DeviceFailure, FaultInjector, FaultPlan
from repro.telemetry import Telemetry

# bandwidth-bound payload: hierarchy pays extra phase latency, so its
# win only shows once the NIC share dominates (as on real clusters).
BIG = (512, 512)


@pytest.fixture()
def cluster():
    return multi_node_cluster(2, dgx1())


@pytest.fixture()
def ctx(cluster):
    return SimContext(cluster, num_gpus=16)


def _pair(ctx, rng, shape=BIG):
    """(flat ctx+comm, hier ctx+comm) with identical payload tensors."""
    flat = Communicator(ctx)
    hier = HierarchicalCommunicator(ctx)
    return flat, hier


class TestGroups:
    def test_node_groups_split_on_boundary(self, cluster):
        groups = node_groups(cluster, list(range(16)))
        assert groups == [list(range(8)), list(range(8, 16))]

    def test_groups_preserve_order_of_appearance(self, cluster):
        groups = node_groups(cluster, [9, 1, 8, 0])
        assert groups == [[9, 8], [1, 0]]

    def test_leaders_are_first_members(self, cluster):
        groups = node_groups(cluster, list(range(16)))
        assert group_leaders(groups) == [0, 8]

    def test_spans_and_link_class(self, cluster):
        assert spans_nodes(cluster, [0, 8])
        assert not spans_nodes(cluster, [0, 7])
        assert link_class(cluster, [0, 8]) == "inter_node"
        assert link_class(cluster, [0, 7]) == "intra_node"
        assert link_class(dgx1(), [0, 7]) == "intra_node"


class TestPayloadEquality:
    """Every collective's functional result is bit-identical to flat."""

    def test_broadcast(self, ctx, rng):
        flat, hier = _pair(ctx, rng)
        payload = rng.random(BIG).astype(np.float32)
        results = {}
        for comm in (flat, hier):
            src = ctx.device(3).from_numpy(payload)
            dsts = {r: ctx.device(r).empty(BIG) for r in range(16) if r != 3}
            comm.broadcast(3, src, dsts)
            results[comm] = {r: t.data.copy() for r, t in dsts.items()}
        for r in results[flat]:
            assert np.array_equal(results[flat][r], results[hier][r])
            assert np.array_equal(results[hier][r], payload)

    def test_allreduce(self, ctx, rng):
        flat, hier = _pair(ctx, rng)
        payloads = [rng.random(BIG).astype(np.float32) for _ in range(16)]
        results = {}
        for comm in (flat, hier):
            tensors = {
                r: ctx.device(r).from_numpy(payloads[r].copy())
                for r in range(16)
            }
            comm.allreduce(tensors, op="sum")
            results[comm] = {r: t.data.copy() for r, t in tensors.items()}
        for r in range(16):
            # bit-identical: the hierarchical path must not re-associate
            # the float32 sum (it computes centrally in flat rank order)
            assert np.array_equal(results[flat][r], results[hier][r])

    def test_allgather(self, ctx, rng):
        flat, hier = _pair(ctx, rng)
        shards = [rng.random((4 + r, 8)).astype(np.float32) for r in range(16)]
        total = sum(s.shape[0] for s in shards)
        results = {}
        for comm in (flat, hier):
            srcs = {r: ctx.device(r).from_numpy(shards[r]) for r in range(16)}
            dsts = {r: ctx.device(r).empty((total, 8)) for r in range(16)}
            comm.allgather(srcs, dsts)
            results[comm] = {r: t.data.copy() for r, t in dsts.items()}
        expect = np.vstack(shards)
        for r in range(16):
            assert np.array_equal(results[flat][r], results[hier][r])
            assert np.array_equal(results[hier][r], expect)


class TestTiming:
    def test_hierarchy_beats_flat_across_nodes(self, ctx, rng):
        """Bandwidth-bound collectives pay each NIC once per node."""
        flat, hier = _pair(ctx, rng)
        nbytes = BIG[0] * BIG[1] * 4
        assert hier.broadcast_duration(0, nbytes) < flat.broadcast_duration(
            0, nbytes
        )
        assert hier.allreduce_duration(nbytes) < flat.allreduce_duration(
            nbytes
        )
        assert hier.allgather_duration(16 * nbytes) < flat.allgather_duration(
            16 * nbytes
        )

    def test_single_node_falls_back_to_flat(self, rng):
        ctx = SimContext(dgx1(), num_gpus=8)
        flat = Communicator(ctx)
        hier = HierarchicalCommunicator(ctx)
        assert not hier.is_hierarchical
        nbytes = BIG[0] * BIG[1] * 4
        assert hier.broadcast_duration(0, nbytes) == pytest.approx(
            flat.broadcast_duration(0, nbytes)
        )
        payload = rng.random(BIG).astype(np.float32)
        for comm in (flat, hier):
            src = ctx.device(0).from_numpy(payload)
            dsts = {r: ctx.device(r).empty(BIG) for r in range(1, 8)}
            events = comm.broadcast(0, src, dsts)
            comm_times = {ev.time for ev in events.values()}
            assert len(comm_times) == 1

    def test_intra_node_subset_uses_flat_path(self, ctx):
        hier = HierarchicalCommunicator(ctx, ranks=[0, 1, 2, 3])
        assert not hier.is_hierarchical

    def test_broadcast_is_one_event_per_rank(self, ctx, rng):
        hier = HierarchicalCommunicator(ctx)
        src = ctx.device(0).from_numpy(rng.random(BIG).astype(np.float32))
        dsts = {r: ctx.device(r).empty(BIG) for r in range(1, 16)}
        events = hier.broadcast(0, src, dsts, name="bc")
        trace = ctx.engine.trace
        assert [ev.name for ev in trace] == ["bc"] * 16
        assert sorted(ev.device for ev in trace) == sorted(
            ctx.device(r).name for r in range(16)
        )
        duration = hier.broadcast_duration(0, src.nbytes)
        assert {ev.time for ev in events.values()} == {duration}

    @pytest.mark.parametrize(
        "node", [uniform_machine(2, name="mini-node"), dgx1()],
        ids=["2x2gpu", "2xdgx1"],
    )
    @pytest.mark.parametrize("root", [0, 1, 3])
    def test_generic_and_planned_paths_agree(self, node, root, rng):
        """The generic broadcast (under an inert fault plan) and the
        planned one give bitwise-equal event times, stream clocks and
        link counters, from skewed stream clocks."""
        cluster = multi_node_cluster(2, node)
        P = cluster.num_gpus
        payload = rng.random((64, 32)).astype(np.float32)

        def run(planned):
            telemetry = Telemetry(run_id="t")
            inert = FaultInjector(FaultPlan(
                device_failures=(DeviceFailure(rank=0, time=1e9),)
            ))
            ctx = SimContext(cluster, telemetry=telemetry,
                             fault_injector=None if planned else inert)
            comm = HierarchicalCommunicator(ctx)
            for r in range(P):
                ctx.device(r).comm_stream.ready_time = 1e-6 * ((r * 7) % P)
            src = ctx.device(root).from_numpy(payload)
            dsts = {r: ctx.device(r).empty(payload.shape)
                    for r in range(P) if r != root}
            if planned:
                plan = comm.plan_broadcast(root, src, dsts, name="bc")
                events = comm.broadcast_replay(plan, 0.0)
            else:
                events = comm.broadcast(root, src, dsts, name="bc")
            assert all(np.array_equal(d.data, payload) for d in dsts.values())
            links = {
                k: v for k, v in telemetry.registry.flatten().items()
                if k.startswith("repro_comm_link_")
            }
            return (
                {r: ev.time for r, ev in events.items()},
                [ctx.device(r).comm_stream.ready_time for r in range(P)],
                links,
            )

        planned, generic = run(True), run(False)
        assert planned == generic
        links = planned[2]
        assert links['repro_comm_link_bytes_total{link="inter_node"}'] == (
            payload.nbytes
        )
        assert links['repro_comm_link_bytes_total{link="intra_node"}'] == (
            2 * payload.nbytes
        )


class TestLinkAccounting:
    def _telemetry_ctx(self, nodes=2):
        telemetry = Telemetry(run_id="t")
        cluster = multi_node_cluster(nodes, dgx1())
        ctx = SimContext(cluster, num_gpus=nodes * 8, telemetry=telemetry)
        return telemetry, ctx

    def test_hierarchical_allreduce_split(self, rng):
        telemetry, ctx = self._telemetry_ctx()
        hier = HierarchicalCommunicator(ctx)
        payload = rng.random((256, 256)).astype(np.float32)
        tensors = {
            r: ctx.device(r).from_numpy(payload.copy()) for r in range(16)
        }
        hier.allreduce(tensors)
        flat = telemetry.registry.flatten()
        nbytes = float(payload.nbytes)
        # one leader-tree allreduce crosses the NICs ...
        assert flat['repro_comm_link_bytes_total{link="inter_node"}'] == nbytes
        # ... and each node runs one intra reduce + one intra broadcast
        assert flat['repro_comm_link_bytes_total{link="intra_node"}'] == (
            4 * nbytes
        )

    def test_flat_collective_spanning_nodes_is_all_inter(self, rng):
        telemetry, ctx = self._telemetry_ctx()
        flat_comm = Communicator(ctx)
        assert flat_comm.link_class == "inter_node"
        tensors = {
            r: ctx.device(r).from_numpy(
                rng.random((64, 64)).astype(np.float32)
            )
            for r in range(16)
        }
        flat_comm.allreduce(tensors)
        flat = telemetry.registry.flatten()
        assert flat['repro_comm_link_bytes_total{link="inter_node"}'] > 0
        assert (
            flat.get('repro_comm_link_bytes_total{link="intra_node"}', 0.0)
            == 0.0
        )

    def test_single_node_is_all_intra(self, rng):
        telemetry = Telemetry(run_id="t")
        ctx = SimContext(dgx1(), num_gpus=8, telemetry=telemetry)
        comm = Communicator(ctx)
        assert comm.link_class == "intra_node"
        tensors = {
            r: ctx.device(r).from_numpy(
                rng.random((64, 64)).astype(np.float32)
            )
            for r in range(8)
        }
        comm.allreduce(tensors)
        flat = telemetry.registry.flatten()
        assert flat['repro_comm_link_bytes_total{link="intra_node"}'] > 0
        assert (
            flat.get('repro_comm_link_bytes_total{link="inter_node"}', 0.0)
            == 0.0
        )
