"""Streams, events and the discrete-event engine."""

import pytest

from repro.device import Engine, Mode, SimContext, Stream, VirtualGPU
from repro.device.stream import Event
from repro.errors import ConfigurationError, StreamError
from repro.hardware import dgx1
from repro.hardware.machines import V100


@pytest.fixture()
def engine():
    return Engine()


@pytest.fixture()
def dev():
    return VirtualGPU(V100, rank=0)


def test_in_order_execution_on_one_stream(engine, dev):
    s = dev.compute_stream
    e1 = engine.submit(s, "a", "gemm", 1.0)
    e2 = engine.submit(s, "b", "gemm", 2.0)
    assert e1.time == pytest.approx(1.0)
    assert e2.time == pytest.approx(3.0)


def test_event_dependency_across_streams(engine, dev):
    comp, comm = dev.compute_stream, dev.comm_stream
    e1 = engine.submit(comm, "bcast", "comm", 5.0)
    e2 = engine.submit(comp, "spmm", "spmm", 1.0, deps=[e1])
    assert e2.time == pytest.approx(6.0)


def test_wait_event_defers_start(engine, dev):
    comp, comm = dev.compute_stream, dev.comm_stream
    e1 = engine.submit(comm, "bcast", "comm", 3.0)
    comp.wait_event(e1)
    e2 = engine.submit(comp, "spmm", "spmm", 1.0)
    assert e2.time == pytest.approx(4.0)


def test_independent_streams_overlap(engine, dev):
    e1 = engine.submit(dev.comm_stream, "bcast", "comm", 5.0)
    e2 = engine.submit(dev.compute_stream, "gemm", "gemm", 5.0)
    # no dependency: both finish at t=5 (true overlap)
    assert e1.time == e2.time == pytest.approx(5.0)


def test_unrecorded_event_rejected(engine, dev):
    ghost = Event("never-recorded")
    dev.compute_stream.wait_event(ghost)
    with pytest.raises(StreamError):
        engine.submit(dev.compute_stream, "x", "gemm", 1.0)


def test_negative_duration_rejected(engine, dev):
    with pytest.raises(ValueError):
        engine.submit(dev.compute_stream, "x", "gemm", -1.0)


def test_barrier_aligns_streams(engine, dev):
    engine.submit(dev.comm_stream, "a", "comm", 7.0)
    engine.submit(dev.compute_stream, "b", "gemm", 2.0)
    t = engine.barrier([dev.comm_stream, dev.compute_stream])
    assert t == pytest.approx(7.0)
    assert dev.compute_stream.ready_time == pytest.approx(7.0)


def test_trace_records_categories(engine, dev):
    engine.submit(dev.compute_stream, "a", "gemm", 1.0)
    engine.submit(dev.compute_stream, "b", "spmm", 2.0, stage=3)
    assert len(engine.trace) == 2
    assert engine.trace[1].stage == 3
    assert engine.trace[1].duration == pytest.approx(2.0)
    by_cat = engine.events_by_category()
    assert by_cat == {"gemm": pytest.approx(1.0), "spmm": pytest.approx(2.0)}


def test_trace_disabled(dev):
    engine = Engine(record_trace=False)
    engine.submit(dev.compute_stream, "a", "gemm", 1.0)
    assert engine.trace == []


class TestSimContext:
    def test_device_count_clamped(self):
        ctx = SimContext(dgx1(), num_gpus=4)
        assert len(ctx.devices) == 4
        with pytest.raises(ConfigurationError, match="num_gpus=9 out of range"):
            SimContext(dgx1(), num_gpus=9)
        with pytest.raises(ConfigurationError):
            SimContext(dgx1(), num_gpus=0)

    def test_default_uses_all_gpus(self):
        assert SimContext(dgx1()).num_gpus == 8

    def test_synchronize_and_elapsed(self):
        ctx = SimContext(dgx1(), num_gpus=2)
        ctx.engine.submit(ctx.device(0).compute_stream, "x", "gemm", 4.0)
        assert ctx.elapsed() == pytest.approx(4.0)
        t = ctx.synchronize()
        assert t == pytest.approx(4.0)
        assert ctx.device(1).compute_stream.ready_time == pytest.approx(4.0)

    def test_peak_memory_max_over_devices(self):
        ctx = SimContext(dgx1(), num_gpus=2)
        ctx.device(0).empty((1024, 1024))
        assert ctx.peak_memory() >= 4 * 1024 * 1024

    def test_reset_timing(self):
        ctx = SimContext(dgx1(), num_gpus=2)
        ctx.engine.submit(ctx.device(0).compute_stream, "x", "gemm", 4.0)
        ctx.reset_timing()
        assert ctx.elapsed() == 0.0
        assert ctx.engine.trace == []

    def test_symbolic_context_devices_symbolic(self):
        ctx = SimContext(dgx1(), num_gpus=2, mode=Mode.SYMBOLIC)
        t = ctx.device(0).empty((4, 4))
        assert t.data is None
