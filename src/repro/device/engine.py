"""Discrete-event engine: simulated timing + execution traces.

Kernels and collectives compute their *results* eagerly (in functional
mode, with the NumPy/scipy calls in :mod:`repro.kernels.ops`) but their
*time* is simulated: each op is submitted to a stream with a modelled
duration, the engine assigns it

``start = max(stream ready time, dependency event times)``
``end   = start + duration``

and advances the stream. Every op is recorded as a :class:`TraceEvent`,
from which the profiling layer reconstructs the paper's per-op runtime
breakdown (Fig. 5) and per-stage SpMM timelines (Figs. 6, 8).

A :class:`SimContext` bundles an engine with the set of virtual GPUs of
one machine and is the object trainers are built around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.device.device import VirtualGPU
from repro.device.stream import Event, Stream
from repro.device.tensor import Mode
from repro.errors import ConfigurationError
from repro.hardware.spec import MachineSpec
from repro.hardware.topology import Topology


@dataclass(frozen=True)
class TraceEvent:
    """One completed op in the simulated execution."""

    device: str
    stream: str
    name: str
    #: op category for breakdowns: "spmm", "gemm", "activation", "loss",
    #: "adam", "comm", "memset", ...
    category: str
    start: float
    end: float
    #: optional SpMM stage index (for stage timelines)
    stage: Optional[int] = None
    #: bytes moved, for comm ops (0 otherwise)
    nbytes: int = 0
    #: opaque correlation id (e.g. a serving request/batch id) that links
    #: this op to a higher-level unit of work across devices and streams.
    correlation: Optional[str] = None
    #: floating-point operations performed (0 for non-compute ops);
    #: feeds the telemetry layer's roofline gauges.
    flops: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def category_seconds(trace: Iterable[TraceEvent]) -> Dict[str, float]:
    """Total op seconds per category, summed in trace order."""
    totals: Dict[str, float] = {}
    for ev in trace:
        totals[ev.category] = totals.get(ev.category, 0.0) + (ev.end - ev.start)
    return totals


class Engine:
    """Assigns simulated times to submitted ops and records the trace.

    The engine never computes results itself: a submitted op may carry
    the functional ``compute`` closure its kernel already ran, which an
    active epoch capture records for replay.

    ``fault_injector`` (a :class:`repro.resilience.FaultInjector`, or
    None) lets the engine model device failure and stragglers: an op
    submitted on a dead device raises
    :class:`~repro.errors.DeviceFailedError`, and straggler windows
    dilate op durations. With no injector (or an empty plan) the
    scheduling arithmetic is bit-identical to a fault-free engine.
    """

    def __init__(self, record_trace: bool = True, fault_injector=None,
                 telemetry=None):
        self.record_trace = record_trace
        self.fault_injector = fault_injector
        self.trace: List[TraceEvent] = []
        #: active :class:`repro.plan.PlanCapture`, or None. While set,
        #: every submitted op (and its functional ``compute`` closure) is
        #: also recorded into the capture's execution plan.
        self.capture = None
        #: optional :class:`repro.telemetry.Telemetry` hub (duck-typed —
        #: anything with ``on_op(event)``); every submitted op is
        #: forwarded so metrics accumulate even with tracing off.
        self.telemetry = telemetry

    def submit(
        self,
        stream: Stream,
        name: str,
        category: str,
        duration: float,
        deps: Sequence[Event] = (),
        stage: Optional[int] = None,
        nbytes: int = 0,
        compute=None,
        correlation: Optional[str] = None,
        flops: float = 0.0,
    ) -> Event:
        """Schedule one op on ``stream``; returns its completion event.

        ``compute`` is the op's functional closure (already executed by
        the caller); it is ignored unless an epoch capture is active, in
        which case it is recorded so replay can re-run the numerics.
        ``correlation`` tags the trace event with an opaque id (serving
        request/batch ids) so spans are attributable across streams.
        """
        if duration < 0:
            raise ValueError(f"op {name!r}: negative duration {duration}")
        start = stream.consume_waits()
        for dep in deps:
            start = max(start, dep.require_time())
        injector = self.fault_injector
        if injector is not None and not injector.is_trivial:
            rank = getattr(stream.device, "rank", None)
            if rank is not None:
                injector.check_device(stream.device.name, rank, start)
                factor = injector.compute_factor(rank, start)
                if factor != 1.0:
                    duration = duration * factor
        end = start + duration
        stream.ready_time = end
        event = Event(name=name)
        event.time = end
        if self.capture is not None:
            self.capture.record_kernel(
                stream, event, name, category, duration, deps, stage, nbytes,
                compute, correlation=correlation, flops=flops,
            )
        telemetry = self.telemetry
        if self.record_trace or (
            telemetry is not None and getattr(telemetry, "trace_ops", False)
        ):
            ev = TraceEvent(
                device=stream.device.name,
                stream=stream.name,
                name=name,
                category=category,
                start=start,
                end=end,
                stage=stage,
                nbytes=nbytes,
                correlation=correlation,
                flops=flops,
            )
            if self.record_trace:
                self.trace.append(ev)
            if telemetry is not None:
                telemetry.on_op(ev)
        elif telemetry is not None:
            # No trace and no op spans wanted: account from raw values and
            # skip building a TraceEvent nobody would keep (the event
            # construction, not the counting, is the expensive part).
            telemetry.on_op_values(
                category, stream.device.name, end - start, nbytes, flops
            )
        return event

    def submit_after(
        self,
        pre: Sequence[tuple],
        post: Sequence[tuple],
        floor: float,
    ) -> List[Event]:
        """Submit prebuilt specs whose only dependency is a shared floor.

        The stage-plan replay path (:mod:`repro.core.spmm_mg`): every
        rank's SpMM waits on the same broadcast completion time, so the
        per-op dependency scan of :meth:`submit` collapses to one ``max``
        against ``floor``. ``pre[i]`` is ``(stream, name, category,
        duration)`` and ``post[i]`` is ``(stage, nbytes, compute,
        correlation, flops)`` — :meth:`submit`'s arguments on either side
        of ``deps`` — and the timing, trace, and telemetry are
        bit-identical to calling :meth:`submit` per spec with a dep event
        at ``floor``. Caller contract (the pipelined gate): a trivial
        fault injector; an active epoch capture is fed by the caller,
        which records the whole stage at once.
        """
        telemetry = self.telemetry
        trace_on = self.record_trace
        spans = telemetry is not None and getattr(telemetry, "trace_ops", False)
        events: List[Event] = []
        for i, (stream, op_name, category, duration) in enumerate(pre):
            start = stream.consume_waits()
            if floor > start:
                start = floor
            end = start + duration
            stream.ready_time = end
            event = Event(name=op_name)
            event.time = end
            events.append(event)
            if trace_on or spans:
                tail = post[i]
                ev = TraceEvent(
                    device=stream.device.name,
                    stream=stream.name,
                    name=op_name,
                    category=category,
                    start=start,
                    end=end,
                    stage=tail[0],
                    nbytes=tail[1],
                    correlation=tail[3],
                    flops=tail[4],
                )
                if trace_on:
                    self.trace.append(ev)
                if telemetry is not None:
                    telemetry.on_op(ev)
            elif telemetry is not None:
                tail = post[i]
                telemetry.on_op_values(
                    category, stream.device.name, end - start, tail[1], tail[4]
                )
        return events

    def barrier(self, streams: Iterable[Stream]) -> float:
        """Synchronise a set of streams to a common time; returns it.

        Models a device-wide/communicator-wide sync point (e.g. the end of
        an epoch, or NCCL's internal rendezvous before a collective).
        """
        streams = list(streams)
        t = max((s.ready_time for s in streams), default=0.0)
        for s in streams:
            s.ready_time = t
        if self.capture is not None:
            self.capture.record_barrier(streams)
        return t

    def now(self, streams: Iterable[Stream]) -> float:
        """Latest ready time across ``streams`` without synchronising."""
        return max((s.ready_time for s in streams), default=0.0)

    def clear_trace(self) -> None:
        self.trace.clear()

    def record_event(self, ev: TraceEvent) -> None:
        """Append an externally built trace event (collectives, recovery)."""
        self.trace.append(ev)

    def record_events(self, events: Sequence[TraceEvent]) -> None:
        """Append a batch of trace events (replay's regenerated epoch)."""
        self.trace.extend(events)

    def events_by_category(self) -> Dict[str, float]:
        """Total op time per category (summed over devices and streams)."""
        return category_seconds(self.trace)


class SimContext:
    """One machine's worth of virtual GPUs plus the shared engine.

    ``num_gpus`` selects how many of the machine's GPUs participate (the
    paper sweeps 1/2/4/8); topology queries still see the full machine,
    because unused GPUs do not add links to the ones in use.
    """

    def __init__(
        self,
        machine: MachineSpec,
        num_gpus: Optional[int] = None,
        mode: Mode = Mode.FUNCTIONAL,
        record_trace: bool = True,
        fault_injector=None,
        telemetry=None,
    ):
        if num_gpus is None:
            num_gpus = machine.num_gpus
        if not (1 <= num_gpus <= machine.num_gpus):
            raise ConfigurationError(
                f"num_gpus={num_gpus} out of range for {machine.name} "
                f"({machine.num_gpus} GPUs)"
            )
        self.machine = machine
        self.num_gpus = int(num_gpus)
        self.mode = mode
        self.fault_injector = fault_injector
        self.engine = Engine(
            record_trace=record_trace,
            fault_injector=fault_injector,
            telemetry=telemetry,
        )
        self.topology = Topology(machine, fault_injector=fault_injector)
        self.devices: List[VirtualGPU] = [
            VirtualGPU(machine.gpu, rank=r, mode=mode) for r in range(self.num_gpus)
        ]

    @property
    def ranks(self) -> List[int]:
        return list(range(self.num_gpus))

    def device(self, rank: int) -> VirtualGPU:
        return self.devices[rank]

    def all_streams(self) -> List[Stream]:
        out: List[Stream] = []
        for dev in self.devices:
            out.append(dev.compute_stream)
            out.append(dev.comm_stream)
        return out

    def synchronize(self) -> float:
        """Barrier over every stream of every device; returns the time."""
        return self.engine.barrier(self.all_streams())

    def elapsed(self) -> float:
        """Latest completion time across all devices (no sync)."""
        return self.engine.now(self.all_streams())

    def peak_memory(self) -> int:
        """Max peak memory over participating devices, bytes."""
        return max(dev.memory_peak for dev in self.devices)

    def reset_timing(self) -> None:
        """Zero all stream clocks and drop the trace (keep memory state).

        Used between a warm-up epoch and measured epochs so reported epoch
        times exclude one-time staging.
        """
        for s in self.all_streams():
            s.reset()
        self.engine.clear_trace()
