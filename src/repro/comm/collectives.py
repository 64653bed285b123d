"""NCCL-style collectives: broadcast, reduce, allreduce, allgather.

Functional semantics move real data between device tensors; timing uses
the machine's :class:`~repro.hardware.topology.Topology`:

* a collective is a rendezvous: it starts when the *last* participating
  stream (plus any per-rank dependencies) is ready, and all participants
  finish together — matching NCCL's synchronous kernels;
* a pipelined broadcast of ``b`` bytes proceeds at the set's collective
  bandwidth: ``t = latency + b / bw``;
* ring allreduce/reduce move ``2 (P-1)/P`` / ``(P-1)/P`` times the buffer.

Every per-rank op is recorded on that rank's chosen stream so the
timeline figures show communication per GPU (yellow bars in Figs. 6/8).

Failure awareness (``repro.resilience``): when the context carries a
:class:`~repro.resilience.FaultInjector`, every collective checks its
participants at rendezvous time —

* a permanently failed participant makes the op *hang*; the watchdog
  ``timeout`` is charged on every surviving stream and
  :class:`~repro.errors.DeviceFailedError` is raised (elastic recovery
  picks it up from there);
* a transient collective fault costs one timed-out attempt plus an
  exponential backoff (:class:`~repro.resilience.RetryPolicy`) and is
  retried; the retries appear as ``<op>/retry<k>`` trace events, so
  robustness has a measurable timeline price;
* an active link-degradation window divides the bandwidth term.

Without an injector (or with an empty plan) the timing arithmetic is
bit-identical to the fault-free implementation.

Rendezvous validation: all ranks of a collective must agree on the
operation's geometry. Mismatched or missing per-rank buffers — which on
real NCCL silently corrupt data or deadlock — raise
:class:`~repro.errors.CollectiveMismatchError` listing every rank's
view of the call.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.device.engine import Engine, SimContext, TraceEvent
from repro.device.stream import Event, Stream
from repro.device.tensor import DeviceTensor, Mode
from repro.errors import (
    CollectiveMismatchError,
    CollectiveTimeoutError,
    CommunicationError,
    DeviceFailedError,
    PlanError,
)
from repro.hardware.topology import Topology
from repro.resilience.policy import RetryPolicy

#: one collective's traffic per link tier: ``(link, fixed, bw_time,
#: nbytes)`` entries, each booking ``fixed + bw_time`` seconds and
#: ``nbytes`` on ``link``. Only ``bw_time`` stretches under a
#: link-degradation window, as in the op's own duration.
Links = Tuple[Tuple[str, float, float, int], ...]


def allgather_copy(
    ranks: Sequence[int],
    srcs: Mapping[int, DeviceTensor],
    dsts: Mapping[int, DeviceTensor],
    offsets: Mapping[int, int],
) -> Callable[[], None]:
    """An allgather's payload closure: every source's rows land at its
    offset of the first destination, which the other destinations then
    copy whole (one copy per rank instead of one per source and rank)."""
    blocks = [(srcs[s], offsets[s], offsets[s] + srcs[s].rows) for s in ranks]
    targets = [dsts[r] for r in ranks]

    def compute() -> None:
        first = None
        for dst in targets:
            data = dst.data
            if data is None:
                continue
            if first is None:
                for src, lo, hi in blocks:
                    if src.data is not None:
                        data[lo:hi] = src.data
                first = data
            else:
                np.copyto(data, first)

    return compute


class Communicator:
    """A communicator over a fixed set of ranks of one :class:`SimContext`."""

    def __init__(
        self,
        ctx: SimContext,
        ranks: Optional[Sequence[int]] = None,
        bw_derate: float = 1.0,
        collective_overhead: float = 12e-6,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.ctx = ctx
        self.engine: Engine = ctx.engine
        self.topology: Topology = ctx.topology
        self.ranks: List[int] = list(ranks) if ranks is not None else ctx.ranks
        if len(set(self.ranks)) != len(self.ranks) or not self.ranks:
            raise CommunicationError(f"invalid rank set {self.ranks!r}")
        for r in self.ranks:
            if not (0 <= r < ctx.num_gpus):
                raise CommunicationError(
                    f"rank {r} outside context with {ctx.num_gpus} GPUs"
                )
        if not (0.0 < bw_derate <= 1.0):
            raise CommunicationError(f"bw_derate must be in (0, 1], got {bw_derate}")
        #: effective-bandwidth multiplier, used to model comm slowdown
        #: while overlapped with compute (§6.3).
        self.bw_derate = bw_derate
        if collective_overhead < 0:
            raise CommunicationError("collective_overhead must be >= 0")
        #: fixed software cost of one collective call (NCCL kernel launch
        #: + rendezvous, ~10-20 us in practice). This floor is what keeps
        #: tiny graphs (Cora) from scaling — each of the P broadcast
        #: stages pays it regardless of message size.
        self.collective_overhead = collective_overhead
        if timeout is not None and timeout <= 0:
            raise CommunicationError(f"timeout must be > 0, got {timeout}")
        #: watchdog charged when an attempt fails / a peer is dead; None
        #: falls back to the attempt's own modelled duration.
        self.timeout = timeout
        #: retry budget + backoff schedule for transient faults.
        self.retry = retry if retry is not None else RetryPolicy()
        #: fault injector shared with the context (None = fault-free).
        self.fault_injector = getattr(ctx, "fault_injector", None)
        #: (root, nbytes) -> predicted broadcast duration. The topology
        #: walk behind :meth:`broadcast_duration` is time-independent
        #: (degradation windows are applied at rendezvous, not here), so
        #: the overlap scheduler's per-stage queries are memoizable.
        self._bcast_duration_cache: Dict[Tuple[int, int], float] = {}
        #: root -> (fixed, effective bandwidth) for broadcasts: the
        #: topology walk + latency max depend only on (root, ranks),
        #: both frozen for a communicator's lifetime.
        self._bcast_timing_cache: Dict[int, Tuple[float, float]] = {}
        #: which link tier this communicator's traffic transits. A rank
        #: set confined to one node moves bytes over NVLink/PCIe only
        #: ("intra_node"); a set spanning nodes is bottlenecked by the
        #: NIC and every payload is accounted as "inter_node". The
        #: node-aware collectives (:mod:`repro.parallel.hierarchy`) run
        #: multi-node phases on sub-communicators, or book a broadcast's
        #: tiers explicitly, so each byte lands in the correct tier.
        machine = ctx.machine
        self.link_class = (
            "inter_node"
            if machine.num_nodes > 1
            and len({machine.node_of(r) for r in self.ranks}) > 1
            else "intra_node"
        )

    @property
    def size(self) -> int:
        return len(self.ranks)

    # -- shared rendezvous machinery ----------------------------------------

    def _streams(
        self, streams: Optional[Mapping[int, Stream]] = None
    ) -> Dict[int, Stream]:
        if streams is not None:
            return dict(streams)
        return {r: self.ctx.device(r).comm_stream for r in self.ranks}

    def _check_rendezvous(
        self, name: str, shapes_by_rank: Mapping[int, Optional[Tuple[int, ...]]]
    ) -> None:
        """All ranks must post matching buffers for the same op.

        ``shapes_by_rank`` maps every expected participant to the shape
        it brought to the rendezvous (None = the rank never posted a
        buffer). Any disagreement raises
        :class:`CollectiveMismatchError` with each rank's view, instead
        of the silent corruption / deadlock real NCCL exhibits.
        """
        views = {r: shapes_by_rank.get(r) for r in self.ranks}
        missing = [r for r, s in views.items() if s is None]
        shapes = {s for s in views.values() if s is not None}
        if missing or len(shapes) > 1:
            detail = ", ".join(
                f"rank {r}: {'<absent>' if s is None else s}"
                for r, s in sorted(views.items())
            )
            raise CollectiveMismatchError(
                f"{name}: rendezvous mismatch — all ranks must agree on "
                f"op and shape ({detail})"
            )

    def _record(
        self,
        streams: Mapping[int, Stream],
        start: float,
        end: float,
        name: str,
        stage: Optional[int],
        nbytes: int,
        flops: float = 0.0,
        event_names: Optional[Mapping[int, str]] = None,
        links: Optional[Links] = None,
    ) -> Dict[int, Event]:
        """Advance every rank's stream to ``end`` and record the op.

        ``flops`` is the per-rank reduction arithmetic of reducing
        collectives (allreduce/reduce); pure data movement passes 0.
        ``event_names`` optionally supplies precomputed per-rank event
        names (the planned-broadcast path caches them across epochs).
        ``links`` books the op's traffic per link tier (see
        :meth:`broadcast_cost`); None books the whole op on
        :attr:`link_class`.
        """
        events: Dict[int, Event] = {}
        record_trace = self.engine.record_trace
        telemetry = getattr(self.engine, "telemetry", None)
        build_events = record_trace or (
            telemetry is not None and getattr(telemetry, "trace_ops", False)
        )
        duration = end - start
        for rank in self.ranks:
            stream = streams[rank]
            stream.ready_time = end
            ev = Event(
                name=event_names[rank] if event_names is not None
                else f"{name}@{rank}"
            )
            ev.time = end
            events[rank] = ev
            if build_events:
                trace_ev = TraceEvent(
                    device=stream.device.name,
                    stream=stream.name,
                    name=name,
                    category="comm",
                    start=start,
                    end=end,
                    stage=stage,
                    nbytes=nbytes,
                    flops=flops,
                )
                if record_trace:
                    self.engine.record_event(trace_ev)
                if telemetry is not None:
                    telemetry.on_op(trace_ev)
            elif telemetry is not None:
                # metrics-only fast path: no event object needed
                telemetry.on_op_values(
                    "comm", stream.device.name, duration, nbytes, flops
                )
        if telemetry is not None:
            # link-tier accounting: one entry per collective (the payload
            # crossing the wire), not per rank — getattr keeps the engine
            # compatible with duck-typed telemetry stand-ins.
            on_comm = getattr(telemetry, "on_comm", None)
            if on_comm is not None:
                if links is None:
                    on_comm(self.link_class, duration, nbytes)
                else:
                    for link, fixed, bw_time, link_bytes in links:
                        on_comm(link, fixed + bw_time, link_bytes)
        return events

    def _rendezvous(
        self,
        streams: Mapping[int, Stream],
        fixed: float,
        bw_time: float,
        name: str,
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]] = None,
        stage: Optional[int] = None,
        nbytes: int = 0,
        compute: Optional[Callable[[], object]] = None,
        flops: float = 0.0,
        links: Optional[Links] = None,
    ) -> Dict[int, Event]:
        """Start all ranks together; finish all ranks together.

        ``fixed`` is the bandwidth-independent part of the duration
        (launch overhead + latency), ``bw_time`` the bandwidth term —
        kept separate so an active link-degradation window can rescale
        only the bytes-on-the-wire portion.

        ``compute`` is the collective's functional data-movement closure
        (already executed by the caller); recorded only when an epoch
        capture is attached to the engine. ``links`` is the op's per-tier
        booking (None: all of it on :attr:`link_class`).
        """
        deps_by_rank = deps_by_rank or {}
        start = 0.0
        for rank in self.ranks:
            stream = streams[rank]
            start = max(start, stream.consume_waits())
            for dep in deps_by_rank.get(rank, ()):
                start = max(start, dep.require_time())

        injector = self.fault_injector
        if injector is None or injector.is_trivial:
            duration = fixed + bw_time
            events = self._record(
                streams, start, start + duration, name, stage, nbytes,
                flops=flops, links=links,
            )
            capture = self.engine.capture
            if capture is not None:
                # the *captured duration* (not end - start) is what replay
                # adds back, keeping the timeline bit-exact.
                flat_deps: List[Event] = []
                for rank in self.ranks:
                    flat_deps.extend(deps_by_rank.get(rank, ()))
                capture.record_collective(
                    streams=[streams[r] for r in self.ranks],
                    events=[events[r] for r in self.ranks],
                    name=name,
                    duration=duration,
                    deps=flat_deps,
                    stage=stage,
                    nbytes=nbytes,
                    compute=compute,
                    flops=flops,
                    links=(
                        ((self.link_class, fixed, bw_time, nbytes),)
                        if links is None else links
                    ),
                )
            return events
        return self._faulty_rendezvous(
            injector, streams, start, fixed, bw_time, name, stage, nbytes,
            flops=flops, links=links,
        )

    def _faulty_rendezvous(
        self,
        injector,
        streams: Mapping[int, Stream],
        start: float,
        fixed: float,
        bw_time: float,
        name: str,
        stage: Optional[int],
        nbytes: int,
        flops: float = 0.0,
        links: Optional[Links] = None,
    ) -> Dict[int, Event]:
        """Rendezvous under an active fault plan: degrade, retry, or die."""
        if self.engine.capture is not None:
            raise PlanError(
                f"{name}: cannot capture a collective under an active fault "
                "plan — replay would mask retries, degradation, or failures"
            )
        telemetry = getattr(self.engine, "telemetry", None)
        attempts = 0
        t = start
        while True:
            factor = self.topology.bandwidth_factor(t, self.ranks)
            duration = fixed + (bw_time / factor if factor != 1.0 else bw_time)
            watchdog = self.timeout if self.timeout is not None else duration

            dead = injector.first_failure_among(self.ranks, t + duration)
            if dead is not None:
                # a participant dies before the op can complete: the
                # collective hangs until the watchdog fires on the
                # survivors, then the failure surfaces.
                detect = max(t, dead.time) + watchdog
                self._record(streams, t, detect, f"{name}/timeout", stage, 0)
                if telemetry is not None:
                    telemetry.inc("repro_comm_timeouts_total", op=name)
                raise DeviceFailedError(
                    device=f"gpu{dead.rank}",
                    rank=dead.rank,
                    failed_at=dead.time,
                    detected_at=detect,
                )

            if injector.take_collective_fault(t):
                if attempts >= self.retry.max_retries:
                    self._record(
                        streams, t, t + watchdog, f"{name}/timeout", stage, 0
                    )
                    if telemetry is not None:
                        telemetry.inc("repro_comm_timeouts_total", op=name)
                    raise CollectiveTimeoutError(
                        name, attempts + 1, (t + watchdog) - start
                    )
                delay = watchdog + self.retry.backoff(attempts)
                self._record(
                    streams, t, t + delay, f"{name}/retry{attempts}", stage, 0
                )
                if telemetry is not None:
                    telemetry.inc("repro_comm_retries_total", op=name)
                t += delay
                attempts += 1
                continue

            if links is not None and factor != 1.0:
                links = tuple(
                    (link, f, b / factor, n) for link, f, b, n in links
                )
            return self._record(
                streams, t, t + duration, name, stage, nbytes, flops=flops,
                links=links,
            )

    # -- collectives -----------------------------------------------------------

    def broadcast_duration(self, root: int, nbytes: int) -> float:
        """Predicted duration of a broadcast of ``nbytes`` from ``root``.

        Used by the overlap scheduler to size the bandwidth-sharing
        window of the SpMM that runs concurrently with the broadcast.
        """
        if self.size <= 1:
            return 0.0
        key = (root, nbytes)
        cached = self._bcast_duration_cache.get(key)
        if cached is not None:
            return cached
        fixed, bw_time, _ = self.broadcast_cost(root, nbytes)
        duration = fixed + bw_time
        self._bcast_duration_cache[key] = duration
        return duration

    def broadcast_cost(
        self, root: int, nbytes: int
    ) -> Tuple[float, float, Links]:
        """``(fixed, bw_time, links)`` of a broadcast of ``nbytes``.

        The one timing source of :meth:`broadcast`,
        :meth:`plan_broadcast` and :meth:`broadcast_duration`: each takes
        the duration as ``fixed + bw_time``, so the generic and the
        planned paths stay bitwise equal. ``links`` is the per-tier
        booking: the flat ring books the whole op on :attr:`link_class`.
        Node-aware communicators override this.
        """
        fixed, bw = self.broadcast_timing(root)
        bw_time = nbytes / bw
        links = ((self.link_class, fixed, bw_time, nbytes),)
        return fixed, bw_time, links

    def broadcast_timing(self, root: int) -> Tuple[float, float]:
        """``(fixed, effective_bandwidth)`` of a broadcast from ``root``.

        ``fixed`` is the bandwidth-independent part (launch overhead +
        worst-path latency); a payload of ``n`` bytes then takes
        ``fixed + n / effective_bandwidth``. Cached per root — the
        topology is frozen, so both terms are invariants of
        ``(root, ranks)``.
        """
        cached = self._bcast_timing_cache.get(root)
        if cached is not None:
            return cached
        bw = self.topology.broadcast_bandwidth(root, self.ranks) * self.bw_derate
        latency = max(
            self.topology.p2p_latency(root, r) for r in self.ranks if r != root
        )
        timing = (self.collective_overhead + latency, bw)
        self._bcast_timing_cache[root] = timing
        return timing

    def allreduce_duration(self, nbytes: int) -> float:
        """Predicted duration of an allreduce of ``nbytes`` per rank.

        Same arithmetic as :meth:`allreduce`'s timing path; used by the
        parallelism planner (:mod:`repro.parallel.planner`) so its
        predictions share the simulator's communication model.
        """
        if self.size <= 1:
            return 0.0
        bw = self.topology.allreduce_bandwidth(self.ranks) * self.bw_derate
        volume = 2.0 * (self.size - 1) / self.size * nbytes
        latency = 2.0 * (self.size - 1) * self.topology.p2p_latency(
            self.ranks[0], self.ranks[1]
        )
        return self.collective_overhead + latency + volume / bw

    def allgather_duration(self, total_nbytes: int) -> float:
        """Predicted duration of an allgather moving ``total_nbytes``.

        ``total_nbytes`` is the sum of all ranks' source buffers (the
        gathered payload size). Mirrors :meth:`allgather`'s timing path.
        """
        if self.size <= 1:
            return 0.0
        bw = self.topology.collective_bandwidth(self.ranks) * self.bw_derate
        volume = (self.size - 1) / self.size * total_nbytes
        latency = (self.size - 1) * self.topology.p2p_latency(
            self.ranks[0], self.ranks[1]
        )
        return latency + volume / bw

    def broadcast(
        self,
        root: int,
        src: DeviceTensor,
        dsts: Mapping[int, DeviceTensor],
        streams: Optional[Mapping[int, Stream]] = None,
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]] = None,
        stage: Optional[int] = None,
        name: str = "broadcast",
        payload_nbytes: Optional[int] = None,
        copy_fn: Optional[Callable[[], None]] = None,
    ) -> Dict[int, Event]:
        """Broadcast ``src`` (on ``root``) into each non-root rank's ``dsts``.

        ``dsts`` maps rank -> destination tensor (the root may be omitted
        or map to its own tile; it is not copied to itself).

        Partial (sub-row) broadcasts — the training-time embedding cache
        serving part of a tile locally — pass ``payload_nbytes`` (the
        bytes actually on the wire; timing, trace ``nbytes`` and the
        telemetry link accounting all use it instead of the full tile
        size) and ``copy_fn``, the data movement replacing the full
        copy. Destination *shapes* still rendezvous on the full tile:
        every rank posts the same buffer, only the payload shrinks.
        """
        if root not in self.ranks:
            raise CommunicationError(f"broadcast root {root} not in {self.ranks}")
        shapes: Dict[int, Optional[Tuple[int, ...]]] = {root: src.shape}
        for rank in self.ranks:
            if rank == root:
                continue
            dst = dsts.get(rank)
            shapes[rank] = dst.shape if dst is not None else None
        self._check_rendezvous(name, shapes)

        def full_copy() -> None:
            src_data = src.data
            if src_data is None:
                return
            for rank, dst in dsts.items():
                if rank != root and dst.data is not None:
                    np.copyto(dst.data, src_data)

        compute = copy_fn if copy_fn is not None else full_copy
        compute()
        nbytes = src.nbytes if payload_nbytes is None else int(payload_nbytes)
        fixed = 0.0
        bw_time = 0.0
        links = None
        if self.size > 1:
            fixed, bw_time, links = self.broadcast_cost(root, nbytes)
        return self._rendezvous(
            self._streams(streams), fixed, bw_time, name, deps_by_rank, stage,
            nbytes=nbytes, compute=compute, links=links,
        )

    def plan_broadcast(
        self,
        root: int,
        src: DeviceTensor,
        dsts: Mapping[int, DeviceTensor],
        name: str = "broadcast",
        payload_nbytes: Optional[int] = None,
        copy_fn: Optional[Callable[[], None]] = None,
    ) -> tuple:
        """Precompute the epoch-invariant half of a pipelined broadcast.

        Shapes, streams, the duration (root/nbytes/bandwidth are all
        frozen for the communicator's lifetime, like the caches
        :meth:`broadcast_timing` relies on), and the per-rank event-name
        strings never change across epochs — only the start floor does.
        The returned plan is a tuple ``(streams, duration, name,
        event_names, nbytes, copy, links)`` for :meth:`broadcast_replay`;
        ``copy`` is the data-movement closure (None for a symbolic
        source with no ``copy_fn``: there is nothing to move) and
        ``links`` the per-tier booking of :meth:`broadcast_cost`.

        ``payload_nbytes``/``copy_fn`` mirror :meth:`broadcast`: a
        partial (cached) broadcast freezes its wire bytes and custom
        data movement into the plan. The caller must invalidate the
        plan when the cache state changes (the stage-plan cache in
        :mod:`repro.core.spmm_mg` keys on the cache's plan token).
        """
        nbytes = src.nbytes if payload_nbytes is None else int(payload_nbytes)
        fixed, bw_time, links = self.broadcast_cost(root, nbytes)
        # same float grouping as _rendezvous: duration built first, then
        # added to the start at replay time.
        duration = fixed + bw_time
        ctx = self.ctx
        streams = {r: ctx.device(r).comm_stream for r in self.ranks}
        copy = copy_fn
        if copy is None and src.mode is Mode.FUNCTIONAL:
            copy_dsts = tuple(
                dst for rank, dst in dsts.items() if rank != root
            )

            def copy() -> None:
                src_data = src.data
                if src_data is None:
                    return
                for dst in copy_dsts:
                    if dst.data is not None:
                        np.copyto(dst.data, src_data)

        event_names = {r: f"{name}@{r}" for r in self.ranks}
        return (streams, duration, name, event_names, nbytes, copy, links)

    def broadcast_replay(
        self,
        plan: tuple,
        start_floor: float,
        stage: Optional[int] = None,
    ) -> Dict[int, Event]:
        """Run one planned broadcast: copy payloads, advance streams.

        Identical timing, trace, and data movement to :meth:`broadcast`,
        minus the per-call validation and dependency plumbing: the caller
        (``distributed_spmm``'s planned stage loop) has already validated
        shapes by construction and folds all dependency times into
        ``start_floor``. Must only be used with a trivial fault injector
        (the caller checks), and leaves recording into an active epoch
        capture to the caller, which knows the stage's dependencies.
        """
        streams, duration, name, event_names, nbytes, copy, links = plan
        if copy is not None:
            copy()
        start = start_floor
        for stream in streams.values():
            t = stream.consume_waits()
            if t > start:
                start = t
        return self._record(
            streams, start, start + duration, name, stage, nbytes,
            event_names=event_names, links=links,
        )

    def allreduce(
        self,
        tensors: Mapping[int, DeviceTensor],
        op: str = "sum",
        streams: Optional[Mapping[int, Stream]] = None,
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]] = None,
        name: str = "allreduce",
    ) -> Dict[int, Event]:
        """In-place allreduce across ranks (``sum`` or ``mean``)."""
        if op not in ("sum", "mean"):
            raise CommunicationError(f"unsupported allreduce op {op!r}")
        self._check_uniform(tensors, name)

        def compute() -> None:
            arrays = [
                tensors[r].data for r in self.ranks if tensors[r].data is not None
            ]
            if not arrays:
                return
            total = arrays[0].copy()
            for a in arrays[1:]:
                total += a
            if op == "mean":
                total /= self.size
            for r in self.ranks:
                if tensors[r].data is not None:
                    np.copyto(tensors[r].data, total)

        compute()
        ref = tensors[self.ranks[0]]
        nbytes = ref.nbytes
        fixed = 0.0
        bw_time = 0.0
        flops = 0.0
        if self.size > 1:
            bw = self.topology.allreduce_bandwidth(self.ranks) * self.bw_derate
            volume = 2.0 * (self.size - 1) / self.size * nbytes
            latency = 2.0 * (self.size - 1) * self.topology.p2p_latency(
                self.ranks[0], self.ranks[1]
            )
            fixed = self.collective_overhead + latency
            bw_time = volume / bw
            # ring reduce-scatter: each rank adds (P-1)/P of the buffer;
            # a mean also divides its 1/P shard.
            flops = (self.size - 1) / self.size * ref.size
            if op == "mean":
                flops += ref.size / self.size
        return self._rendezvous(
            self._streams(streams), fixed, bw_time, name, deps_by_rank,
            nbytes=nbytes, compute=compute, flops=flops,
        )

    def allgather(
        self,
        srcs: Mapping[int, DeviceTensor],
        dsts: Mapping[int, DeviceTensor],
        row_offsets: Optional[Mapping[int, int]] = None,
        streams: Optional[Mapping[int, Stream]] = None,
        deps_by_rank: Optional[Mapping[int, Sequence[Event]]] = None,
        name: str = "allgather",
    ) -> Dict[int, Event]:
        """Gather every rank's ``srcs`` rows into every rank's ``dsts``.

        ``dsts[r]`` must have ``sum_r srcs[r].rows`` rows; ``row_offsets``
        gives each source's starting row in the gathered layout (defaults
        to rank-order concatenation).
        """
        # each rank may gather a different row count, so the rendezvous
        # agreement is on presence (src AND dst posted) and column width.
        self._check_rendezvous(
            name,
            {
                r: ((srcs[r].cols,) if r in srcs and r in dsts else None)
                for r in self.ranks
            },
        )
        total_rows = sum(srcs[r].rows for r in self.ranks)
        offsets: Dict[int, int] = {}
        if row_offsets is None:
            cursor = 0
            for r in self.ranks:
                offsets[r] = cursor
                cursor += srcs[r].rows
        else:
            offsets = dict(row_offsets)
        for r in self.ranks:
            dst = dsts[r]
            if dst.rows != total_rows:
                raise CommunicationError(
                    f"allgather: rank {r} dst has {dst.rows} rows, need {total_rows}"
                )

        compute = allgather_copy(self.ranks, srcs, dsts, offsets)
        compute()
        nbytes = sum(srcs[r].nbytes for r in self.ranks)
        fixed = 0.0
        bw_time = 0.0
        if self.size > 1:
            bw = self.topology.collective_bandwidth(self.ranks) * self.bw_derate
            volume = (self.size - 1) / self.size * nbytes
            latency = (self.size - 1) * self.topology.p2p_latency(
                self.ranks[0], self.ranks[1]
            )
            fixed = latency
            bw_time = volume / bw
        return self._rendezvous(
            self._streams(streams), fixed, bw_time, name, deps_by_rank,
            nbytes=nbytes, compute=compute,
        )

    # -- helpers ------------------------------------------------------------------

    def _check_uniform(
        self, tensors: Mapping[int, DeviceTensor], name: str = "collective"
    ) -> None:
        self._check_rendezvous(
            name,
            {r: (tensors[r].shape if r in tensors else None) for r in self.ranks},
        )
