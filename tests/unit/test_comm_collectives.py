"""Collectives: functional data movement + rendezvous timing semantics."""

import numpy as np
import pytest

from repro.comm import Communicator
from repro.device import Mode, SimContext
from repro.errors import CommunicationError
from repro.hardware import dgx1, dgx_a100


@pytest.fixture()
def ctx():
    return SimContext(dgx1(), num_gpus=4)


@pytest.fixture()
def comm(ctx):
    return Communicator(ctx)


class TestBroadcast:
    def test_data_reaches_all_ranks(self, ctx, comm, rng):
        payload = rng.random((6, 3)).astype(np.float32)
        src = ctx.device(1).from_numpy(payload)
        dsts = {r: ctx.device(r).empty((6, 3)) for r in (0, 2, 3)}
        comm.broadcast(1, src, dsts)
        for r in (0, 2, 3):
            assert np.allclose(dsts[r].data, payload)

    def test_all_ranks_finish_together(self, ctx, comm):
        src = ctx.device(0).from_numpy(np.zeros((512, 512), dtype=np.float32))
        dsts = {r: ctx.device(r).empty((512, 512)) for r in (1, 2, 3)}
        events = comm.broadcast(0, src, dsts)
        times = {ev.time for ev in events.values()}
        assert len(times) == 1

    def test_rendezvous_waits_for_slowest(self, ctx, comm):
        # make rank 2's comm stream busy until t=1.0
        ctx.engine.submit(ctx.device(2).comm_stream, "busy", "comm", 1.0)
        src = ctx.device(0).from_numpy(np.zeros((4, 4), dtype=np.float32))
        dsts = {r: ctx.device(r).empty((4, 4)) for r in (1, 2, 3)}
        events = comm.broadcast(0, src, dsts)
        assert events[0].time > 1.0

    def test_duration_scales_with_bytes(self, ctx, comm):
        def bcast_time(rows):
            src = ctx.device(0).from_numpy(np.zeros((rows, 256), dtype=np.float32))
            dsts = {r: ctx.device(r).empty((rows, 256)) for r in (1, 2, 3)}
            events = comm.broadcast(0, src, dsts)
            return events[0].time

        t_small = bcast_time(64)
        ctx2 = SimContext(dgx1(), num_gpus=4)
        comm2 = Communicator(ctx2)
        src = ctx2.device(0).from_numpy(np.zeros((64 * 16, 256), dtype=np.float32))
        dsts = {r: ctx2.device(r).empty((64 * 16, 256)) for r in (1, 2, 3)}
        t_big = comm2.broadcast(0, src, dsts)[0].time
        assert t_big > t_small

    def test_shape_mismatch_rejected(self, ctx, comm):
        src = ctx.device(0).from_numpy(np.zeros((4, 4), dtype=np.float32))
        dsts = {1: ctx.device(1).empty((5, 4))}
        with pytest.raises(CommunicationError):
            comm.broadcast(0, src, dsts)

    def test_root_must_be_member(self, ctx):
        comm = Communicator(ctx, ranks=[0, 1])
        src = ctx.device(2).from_numpy(np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(CommunicationError):
            comm.broadcast(2, src, {})


class TestAllreduce:
    def test_sum(self, ctx, comm):
        tensors = {
            r: ctx.device(r).from_numpy(
                np.full((3, 3), float(r + 1), dtype=np.float32)
            )
            for r in range(4)
        }
        comm.allreduce(tensors, op="sum")
        for r in range(4):
            assert np.allclose(tensors[r].data, 10.0)

    def test_mean(self, ctx, comm):
        tensors = {
            r: ctx.device(r).from_numpy(
                np.full((2, 2), float(r), dtype=np.float32)
            )
            for r in range(4)
        }
        comm.allreduce(tensors, op="mean")
        for r in range(4):
            assert np.allclose(tensors[r].data, 1.5)

    def test_unknown_op(self, ctx, comm):
        tensors = {r: ctx.device(r).zeros((2, 2)) for r in range(4)}
        with pytest.raises(CommunicationError):
            comm.allreduce(tensors, op="max")

    def test_missing_rank_rejected(self, ctx, comm):
        tensors = {r: ctx.device(r).zeros((2, 2)) for r in range(3)}
        with pytest.raises(CommunicationError):
            comm.allreduce(tensors)

    def test_shape_mismatch_rejected(self, ctx, comm):
        tensors = {r: ctx.device(r).zeros((2, 2)) for r in range(3)}
        tensors[3] = ctx.device(3).zeros((3, 3))
        with pytest.raises(CommunicationError):
            comm.allreduce(tensors)


class TestAllgather:
    def test_concatenation(self, ctx, comm):
        srcs = {
            r: ctx.device(r).from_numpy(
                np.full((2, 3), float(r), dtype=np.float32)
            )
            for r in range(4)
        }
        dsts = {r: ctx.device(r).empty((8, 3)) for r in range(4)}
        comm.allgather(srcs, dsts)
        for r in range(4):
            for s in range(4):
                assert np.allclose(dsts[r].data[2 * s : 2 * s + 2], float(s))

    def test_wrong_dst_rows(self, ctx, comm):
        srcs = {r: ctx.device(r).zeros((2, 3)) for r in range(4)}
        dsts = {r: ctx.device(r).empty((6, 3)) for r in range(4)}
        with pytest.raises(CommunicationError):
            comm.allgather(srcs, dsts)


class TestTiming:
    def test_single_rank_collectives_are_free(self):
        ctx = SimContext(dgx1(), num_gpus=1)
        comm = Communicator(ctx)
        t = ctx.device(0).zeros((4, 4))
        events = comm.allreduce({0: t})
        assert events[0].time == pytest.approx(0.0)

    def test_switch_machine_faster_than_mesh(self):
        def bcast_time(machine):
            ctx = SimContext(machine, num_gpus=8)
            comm = Communicator(ctx)
            src = ctx.device(0).from_numpy(
                np.zeros((1 << 14, 512), dtype=np.float32)
            )
            dsts = {r: ctx.device(r).empty((1 << 14, 512)) for r in range(1, 8)}
            return comm.broadcast(0, src, dsts)[0].time

        assert bcast_time(dgx_a100()) < bcast_time(dgx1())

    def test_bw_derate_slows_collectives(self):
        def bcast_time(derate):
            ctx = SimContext(dgx1(), num_gpus=4)
            comm = Communicator(ctx, bw_derate=derate)
            src = ctx.device(0).from_numpy(np.zeros((1 << 14, 512), dtype=np.float32))
            dsts = {r: ctx.device(r).empty((1 << 14, 512)) for r in range(1, 4)}
            return comm.broadcast(0, src, dsts)[0].time

        assert bcast_time(0.5) > bcast_time(1.0)

    def test_collective_overhead_floor(self):
        ctx = SimContext(dgx1(), num_gpus=4)
        comm = Communicator(ctx, collective_overhead=1e-3)
        src = ctx.device(0).from_numpy(np.zeros((1, 1), dtype=np.float32))
        dsts = {r: ctx.device(r).empty((1, 1)) for r in range(1, 4)}
        assert comm.broadcast(0, src, dsts)[0].time >= 1e-3

    def test_invalid_construction(self, ctx):
        with pytest.raises(CommunicationError):
            Communicator(ctx, ranks=[0, 0])
        with pytest.raises(CommunicationError):
            Communicator(ctx, ranks=[0, 99])
        with pytest.raises(CommunicationError):
            Communicator(ctx, bw_derate=0.0)
        with pytest.raises(CommunicationError):
            Communicator(ctx, collective_overhead=-1.0)
