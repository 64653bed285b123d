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

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

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
        #: incremental per-category op seconds, kept in lockstep with
        #: ``trace`` (only accumulates while tracing, like the scan the
        #: totals replace).
        self._category_seconds: Dict[str, float] = {}

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
                cs = self._category_seconds
                cs[category] = cs.get(category, 0.0) + (end - start)
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

    def submit_many(self, specs: Sequence[tuple]) -> List[Event]:
        """Schedule a batch of independent-or-ordered ops in one call.

        Each spec is ``(stream, name, category, duration, deps, stage,
        nbytes, compute, correlation, flops)`` — the arguments of
        :meth:`submit` in positional form. Start times for the whole
        batch are computed with one ``np.maximum.reduceat`` over the
        flattened (stream base, dep times) segments — the same trick
        :meth:`repro.plan.plan.ExecutionPlan.compute_timeline` uses — so
        a dependency-levelled batch pays one engine call instead of one
        Python call per op. Specs may repeat a stream; later specs on the
        same stream are serialised after earlier ones exactly as
        sequential submits would be.

        Bit-identical to calling :meth:`submit` per spec in order (and
        falls back to exactly that under a non-trivial fault injector,
        where per-op failure checks must run at op granularity).
        """
        injector = self.fault_injector
        if injector is not None and not injector.is_trivial:
            return [
                self.submit(s[0], s[1], s[2], s[3], deps=s[4], stage=s[5],
                            nbytes=s[6], compute=s[7], correlation=s[8],
                            flops=s[9])
                for s in specs
            ]
        n = len(specs)
        if n == 0:
            return []
        durations: List[float] = []
        if n < 64:
            # small batches: a scalar max loop beats the ndarray setup
            # cost of the reduceat path (identical floats — max is exact
            # under any evaluation order).
            starts = []
            for spec in specs:
                duration = spec[3]
                if duration < 0:
                    raise ValueError(
                        f"op {spec[1]!r}: negative duration {duration}"
                    )
                durations.append(duration)
                s = spec[0].consume_waits()
                for dep in spec[4]:
                    t = dep.require_time()
                    if t > s:
                        s = t
                starts.append(s)
            ends = [s + d for s, d in zip(starts, durations)]
        else:
            times: List[float] = []
            offsets = np.empty(n, dtype=np.intp)
            for i, spec in enumerate(specs):
                duration = spec[3]
                if duration < 0:
                    raise ValueError(
                        f"op {spec[1]!r}: negative duration {duration}"
                    )
                offsets[i] = len(times)
                times.append(spec[0].consume_waits())
                for dep in spec[4]:
                    times.append(dep.require_time())
                durations.append(duration)
            starts = np.maximum.reduceat(
                np.asarray(times, dtype=np.float64), offsets
            )
            ends = starts + np.asarray(durations, dtype=np.float64)
        capture = self.capture
        telemetry = self.telemetry
        trace_on = self.record_trace
        spans = telemetry is not None and getattr(telemetry, "trace_ops", False)
        cs = self._category_seconds
        events: List[Event] = []
        for i, spec in enumerate(specs):
            stream = spec[0]
            start = float(starts[i])
            if stream.ready_time > start:
                # this stream already advanced earlier in the batch
                start = stream.ready_time
                end = start + float(durations[i])
            else:
                end = float(ends[i])
            stream.ready_time = end
            event = Event(name=spec[1])
            event.time = end
            events.append(event)
            if trace_on or spans:
                ev = TraceEvent(
                    device=stream.device.name,
                    stream=stream.name,
                    name=spec[1],
                    category=spec[2],
                    start=start,
                    end=end,
                    stage=spec[5],
                    nbytes=spec[6],
                    correlation=spec[8],
                    flops=spec[9],
                )
                if trace_on:
                    self.trace.append(ev)
                    cs[spec[2]] = cs.get(spec[2], 0.0) + (end - start)
                if telemetry is not None:
                    telemetry.on_op(ev)
            elif telemetry is not None:
                telemetry.on_op_values(
                    spec[2], stream.device.name, end - start, spec[6], spec[9]
                )
        if capture is not None:
            # the batch's deps all predate it, so recording after the
            # loop matches recording op by op.
            capture.record_kernels(specs, events, durations)
        return events

    def submit_after(
        self,
        pre: Sequence[tuple],
        post: Sequence[tuple],
        floor: float,
    ) -> List[Event]:
        """Submit prebuilt specs whose only dependency is a shared floor.

        The stage-plan replay path (:mod:`repro.core.spmm_mg`): every
        rank's SpMM waits on the same broadcast completion time, so the
        per-spec dependency scan of :meth:`submit_many` collapses to one
        ``max`` against ``floor``. ``pre[i]`` is ``(stream, name,
        category, duration)`` and ``post[i]`` is ``(stage, nbytes,
        compute, correlation, flops)`` — the two halves of the
        :meth:`submit_many` spec around its deps slot, and the timing,
        trace, and telemetry are bit-identical to submitting those specs
        with a dep event at ``floor``. Caller contract (the pipelined
        gate): a trivial fault injector; an active epoch capture is fed
        by the caller, which records the whole stage at once.
        """
        telemetry = self.telemetry
        trace_on = self.record_trace
        spans = telemetry is not None and getattr(telemetry, "trace_ops", False)
        cs = self._category_seconds
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
                    cs[category] = cs.get(category, 0.0) + (end - start)
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
        self._category_seconds.clear()

    def record_event(self, ev: TraceEvent) -> None:
        """Append an externally built trace event, keeping totals in sync.

        The entry point for code that used to append to ``trace``
        directly (collectives, replay, recovery) — going through here is
        what keeps :meth:`events_by_category` an O(1) copy instead of a
        full-trace scan.
        """
        self.trace.append(ev)
        cs = self._category_seconds
        cs[ev.category] = cs.get(ev.category, 0.0) + (ev.end - ev.start)

    def record_events(self, events: Sequence[TraceEvent]) -> None:
        """Bulk :meth:`record_event` (replay's regenerated epoch trace)."""
        self.trace.extend(events)
        cs = self._category_seconds
        for ev in events:
            cs[ev.category] = cs.get(ev.category, 0.0) + (ev.end - ev.start)

    def events_by_category(self) -> Dict[str, float]:
        """Total op time per category (summed over devices and streams).

        Maintained incrementally as ops are recorded; returns a copy.
        """
        return dict(self._category_seconds)


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
