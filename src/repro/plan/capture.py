"""Graph capture for the discrete-event engine (epoch recording).

:class:`PlanCapture` attaches to an :class:`~repro.device.engine.Engine`
for the duration of one executed epoch and records every submitted op:
the streams it occupies, its modelled duration, the dependency edges
(event deps plus the implicit in-order edge per stream), the per-stream
trace template, and the functional compute closure the kernel
registered. ``finalize()`` freezes the recording into an immutable
:class:`~repro.plan.plan.ExecutionPlan`.

The recording is kept in flat per-op columns — durations, topological
levels, a CSR-style dependency list — rather than one object per op.
Each op's full dependency set and its level are resolved when it is
recorded (its predecessors are all recorded already), so ``finalize``
is a single bucketing pass over ops and edges.

Capture is refused while a non-trivial fault plan is active: injected
faults perturb durations and can abort collectives mid-epoch, and a
replayed plan must never mask a fault (the trainer falls back to eager
scheduling instead).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.device.engine import Engine
from repro.device.stream import Event, Stream
from repro.errors import PlanError
from repro.plan.plan import ExecutionPlan, bucket_levels


class PlanCapture:
    """Records one epoch's submitted ops into an :class:`ExecutionPlan`."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.active = False
        self._streams: List[Stream] = []
        self._stream_ids: Dict[Stream, int] = {}
        #: per stream id: index of the last op recorded on it (-1: none).
        self._last_on_stream: List[int] = []
        #: maps event -> producing op index (events hash by identity).
        self._event_op: Dict[Event, int] = {}
        # -- per-op columns --------------------------------------------------
        self._durations: List[float] = []
        self._levels: List[int] = []
        #: op ``i``'s sorted, de-duplicated dependencies are
        #: ``_dep_flat[_dep_ptr[i]:_dep_ptr[i + 1]]``.
        self._dep_ptr: List[int] = [0]
        self._dep_flat: List[int] = []
        #: trace rows in op order (see :func:`~repro.plan.plan.
        #: expand_trace`): ``(op, streams, name, category, stage, nbytes,
        #: correlation, flops)`` for an op traced once per stream, or
        #: ``(first op, pre, post)`` for a stage's per-rank SpMMs; none
        #: for barriers.
        self._trace: List[tuple] = []
        #: (closure, is_loss) in program order.
        self._closures: List[tuple] = []
        #: link tier -> [seconds, bytes] over the recorded collectives.
        self._links: Dict[str, List[float]] = {}

    # -- lifecycle -----------------------------------------------------------

    def begin(self) -> None:
        """Attach to the engine; every subsequent submit is recorded."""
        if self.active:
            raise PlanError("capture already active")
        if self.engine.capture is not None:
            raise PlanError("another capture is attached to this engine")
        injector = self.engine.fault_injector
        if injector is not None and not injector.is_trivial:
            raise PlanError(
                "cannot capture an execution plan while a fault plan is "
                "active — injected faults must surface through eager "
                "scheduling"
            )
        self.active = True
        self.engine.capture = self

    def end(self) -> None:
        """Detach from the engine (idempotent)."""
        if self.engine.capture is self:
            self.engine.capture = None
        self.active = False

    # -- recording -----------------------------------------------------------

    def _sid(self, stream: Stream) -> int:
        sid = self._stream_ids.get(stream)
        if sid is None:
            sid = len(self._streams)
            self._stream_ids[stream] = sid
            self._streams.append(stream)
            self._last_on_stream.append(-1)
        return sid

    def dep_ops(self, deps: Iterable[Event]) -> List[int]:
        """Map event dependencies to producing op indices.

        Events recorded before capture began carry times at or below the
        epoch-start barrier — every captured op starts at or after that
        barrier, so dropping them preserves the timeline bit-exactly.
        """
        event_op = self._event_op
        out = []
        for dep in deps:
            op = event_op.get(dep)
            if op is not None:
                out.append(op)
        return out

    def _add_op(self, sids: Sequence[int], dep_ops: List[int],
                duration: float) -> int:
        """Append one op's columns; returns its index.

        Its dependencies are ``dep_ops`` plus the previous op on each of
        its streams; its level is one past its deepest dependency's.
        """
        i = len(self._durations)
        last = self._last_on_stream
        for sid in sids:
            prev = last[sid]
            if prev >= 0:
                dep_ops.append(prev)
            last[sid] = i
        level = 0
        if dep_ops:
            deps = sorted(set(dep_ops))
            self._dep_flat.extend(deps)
            levels = self._levels
            level = 1 + max(map(levels.__getitem__, deps))
        self._levels.append(level)
        self._dep_ptr.append(len(self._dep_flat))
        self._durations.append(duration)
        return i

    def record_kernel(
        self,
        stream: Stream,
        event: Event,
        name: str,
        category: str,
        duration: float,
        deps: Sequence[Event],
        stage: Optional[int],
        nbytes: int,
        compute: Optional[Callable[[], object]],
        correlation: Optional[str] = None,
        flops: float = 0.0,
    ) -> None:
        """Record one single-stream op submitted through the engine."""
        i = self._add_op([self._sid(stream)], self.dep_ops(deps),
                         float(duration))
        self._trace.append(
            (i, (stream,), name, category, stage, nbytes, correlation, flops)
        )
        if compute is not None:
            self._closures.append((compute, category == "loss"))
        self._event_op[event] = i

    def record_collective(
        self,
        streams: Sequence[Stream],
        events: Sequence[Event],
        name: str,
        duration: float,
        deps: Sequence[Event],
        stage: Optional[int],
        nbytes: int,
        compute: Optional[Callable[[], object]] = None,
        category: str = "comm",
        correlation: Optional[str] = None,
        flops: float = 0.0,
        links: Sequence[tuple] = (),
    ) -> None:
        """Record one rendezvous op spanning every participant's stream.

        ``streams``/``events`` are aligned, in the communicator's rank
        order — the same order the eager path records trace events in.
        ``links`` is the op's per-tier booking (``(link, fixed, bw_time,
        nbytes)`` entries, see :meth:`~repro.comm.collectives.
        Communicator.broadcast_cost`), so replay books the collective's
        traffic where the eager path books it.
        """
        sids = [self._sid(s) for s in streams]
        i = self._add_op(sids, self.dep_ops(deps), float(duration))
        self._trace.append(
            (i, streams, name, category, stage, nbytes, correlation, flops)
        )
        if compute is not None:
            self._closures.append((compute, False))
        self._book_links(links)
        event_op = self._event_op
        for event in events:
            event_op[event] = i

    def _book_links(self, links: Sequence[tuple]) -> None:
        for link, fixed, bw_time, nbytes in links:
            totals = self._links.get(link)
            if totals is None:
                totals = self._links[link] = [0.0, 0.0]
            totals[0] += fixed + bw_time
            totals[1] += nbytes

    def record_stage(
        self,
        bcast_streams: Iterable[Stream],
        bcast_name: str,
        bcast_duration: float,
        bcast_nbytes: int,
        bcast_compute: Optional[Callable[[], object]],
        links: Sequence[tuple],
        entry_ops: List[int],
        guard_op: int,
        pre: Sequence[tuple],
        post: Sequence[tuple],
        spmm_events: Sequence[Event],
        spmm_compute: Optional[Callable[[], object]],
        stage: int,
    ) -> int:
        """Record one replayed distributed-SpMM stage in one call.

        The stage is its broadcast — a collective over ``bcast_streams``
        (in rank order, kept as given for the trace template) that waits
        on the ops ``entry_ops`` (the call's entry deps, mapped once
        through :meth:`dep_ops`) and, when ``guard_op >= 0``, on the
        guard stage's SpMMs, ops ``guard_op`` to ``guard_op + P - 1`` —
        followed by one SpMM per rank that waits on the broadcast.
        ``pre``/``post`` are the stage plan's SpMM spec halves
        (``(stream, name, category, duration)`` and ``(stage, nbytes,
        compute, correlation, flops)``); ``spmm_compute`` is the group
        closure, recorded after the broadcast's copy closure, as the
        generic stage loop records them. ``links`` is the broadcast's
        per-tier booking, as for :meth:`record_collective`. Returns the
        op index of the stage's first SpMM.
        """
        # record_collective and _add_op inlined (this runs once per stage of
        # every distributed SpMM): the broadcast waits on the entry ops,
        # the guard stage's SpMMs and the previous op of each comm stream.
        # Its events never leave the stage loop, so they are not mapped.
        durations = self._durations
        bcast = len(durations)
        deps = set(entry_ops)
        if guard_op >= 0:
            deps.update(range(guard_op, guard_op + len(pre)))
        last = self._last_on_stream
        stream_ids = self._stream_ids
        for s in bcast_streams:
            sid = stream_ids.get(s)
            if sid is None:
                sid = self._sid(s)
            prev = last[sid]
            if prev >= 0:
                deps.add(prev)
            last[sid] = bcast
        levels = self._levels
        dep_flat = self._dep_flat
        dep_ptr = self._dep_ptr
        bcast_level = 0
        if deps:
            deps = sorted(deps)
            dep_flat.extend(deps)
            bcast_level = 1 + max(map(levels.__getitem__, deps))
        dep_ptr.append(len(dep_flat))
        levels.append(bcast_level)
        durations.append(bcast_duration)
        self._trace.append((bcast, bcast_streams, bcast_name, "comm", stage,
                            bcast_nbytes, None, 0.0))
        if bcast_compute is not None:
            self._closures.append((bcast_compute, False))
        self._book_links(links)
        # each SpMM depends on the broadcast and on the previous op of its
        # stream, which was recorded before the broadcast and so sorts
        # first.
        event_op = self._event_op
        i = bcast
        self._trace.append((bcast + 1, pre, post))
        for (stream, _, _, duration), event in zip(pre, spmm_events):
            i += 1
            sid = stream_ids.get(stream)
            if sid is None:
                sid = self._sid(stream)
            prev = last[sid]
            last[sid] = i
            level = bcast_level
            if prev >= 0:
                dep_flat.append(prev)
                if levels[prev] > level:
                    level = levels[prev]
            dep_flat.append(bcast)
            dep_ptr.append(len(dep_flat))
            levels.append(level + 1)
            durations.append(duration)
            event_op[event] = i
        if spmm_compute is not None:
            self._closures.append((spmm_compute, False))
        return bcast + 1

    def record_barrier(self, streams: Sequence[Stream]) -> None:
        """Record an engine barrier as a zero-duration, untraced sync op."""
        self._add_op([self._sid(s) for s in streams], [], 0.0)

    # -- finalization --------------------------------------------------------

    def finalize(self) -> ExecutionPlan:
        """Freeze the recording into an immutable :class:`ExecutionPlan`."""
        if self.active:
            raise PlanError("end() the capture before finalizing")
        return ExecutionPlan(
            streams=self._streams,
            durations=self._durations,
            levels=bucket_levels(self._levels, self._dep_ptr, self._dep_flat),
            trace_rows=self._trace,
            closures=self._closures,
            last_op_per_stream=self._last_on_stream,
            link_totals={k: tuple(v) for k, v in self._links.items()},
        )
