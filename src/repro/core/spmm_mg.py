"""The multi-stage broadcast SpMM (Sections 4.1 and 4.3).

For ``P`` GPUs the product ``C^i = sum_j A^{ij} S^j`` runs in ``P``
stages. At stage ``j``, rank ``j`` broadcasts its operand tile ``S^j``;
every rank multiplies its local ``A^{ij}`` tile with the received tile
and accumulates into its local output rows.

Two schedules:

* **serialised** (one broadcast buffer): broadcast ``j+1`` must wait for
  every rank's stage-``j`` SpMM (the buffer is still being read);
* **overlapped** (double buffering, two streams): broadcast ``j`` lands
  in buffer ``j % 2``; SpMM ``j`` (compute stream) waits only for
  broadcast ``j``; broadcast ``j+1`` (comm stream) waits for SpMM
  ``j-1`` — the exact event chain of §4.3. While a broadcast is in
  flight the concurrent SpMM runs with reduced memory bandwidth
  (``bw_fraction``), modelling §6.3's shared-HBM effect.

Each rank reads its *own* tile directly from its source tensor (no
self-copy), as the root of a broadcast keeps its data in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.cache.training import SERVE
from repro.comm.collectives import Communicator
from repro.device.engine import SimContext
from repro.device.stream import Event
from repro.device.tensor import DeviceTensor
from repro.errors import ConfigurationError
from repro.kernels.cost import CostModel
from repro.kernels.ops import (
    build_spmm_group,
    specialize_spmm_group,
    spmm,
    spmm_many,
)
from repro.nn.buffers import SharedBufferManager

if TYPE_CHECKING:
    from repro.cache.training import TrainingTileCache


def distributed_spmm(
    ctx: SimContext,
    comm: Communicator,
    cost_models: Sequence[CostModel],
    tiles: Sequence[Sequence[object]],
    sources: Sequence[DeviceTensor],
    outputs: Sequence[DeviceTensor],
    buffer_managers: Sequence[SharedBufferManager],
    overlap: bool = True,
    overlap_bw_fraction: float = 1.0,
    deps_by_rank: Optional[Dict[int, Sequence[Event]]] = None,
    label: str = "spmm",
    cache: Optional["TrainingTileCache"] = None,
) -> Dict[int, List[Event]]:
    """Run one distributed SpMM; returns per-rank per-stage SpMM events.

    ``tiles[i][j]`` is rank ``i``'s stage-``j`` tile; ``sources[j]`` is
    the tile rank ``j`` broadcasts; ``outputs[i]`` accumulates rank
    ``i``'s result rows (zero-initialised here via the first stage's
    ``accumulate=False``). Each stage's per-rank SpMMs go out as one
    group: one group closure per stage.

    Fault-free calls replay an epoch-invariant :class:`_StagePlan` kept
    per call site on the context, and report each stage to an active
    epoch capture in one call. A non-trivial fault injector, or a
    communicator over a subset of the ranks, takes the generic stage
    loop, which validates every broadcast and submits each stage through
    :func:`~repro.kernels.ops.spmm_many`; its engine and collective
    hooks record it op by op. Both are bit-identical.

    ``cache`` intercepts each stage's broadcast with the training-time
    remote-tile cache: on serve epochs only the uncached rows travel
    (the broadcast's payload bytes shrink, its copy closure scatters the
    resident replica), on refresh epochs the full tile travels and the
    replica is rewritten through it.
    """
    P = ctx.num_gpus
    if not (len(tiles) == len(sources) == len(outputs) == P):
        raise ConfigurationError(
            f"distributed_spmm: expected {P} rank entries, got "
            f"{len(tiles)}/{len(sources)}/{len(outputs)}"
        )
    deps_by_rank = deps_by_rank or {}
    engine = ctx.engine

    if P == 1:
        ev = spmm(
            engine,
            cost_models[0],
            ctx.device(0).compute_stream,
            tiles[0][0],
            sources[0],
            outputs[0],
            accumulate=False,
            deps=tuple(deps_by_rank.get(0, ())),
            stage=0,
            name=f"{label}[0]",
        )
        return {0: [ev]}

    compute_bw = overlap_bw_fraction if overlap else 1.0
    # per-rank entry deps, hoisted out of the stage loop (they are the
    # same tuple at every stage).
    extra_deps = {r: tuple(deps_by_rank.get(r, ())) for r in range(P)}

    if (
        list(comm.ranks) == list(range(P))
        and (comm.fault_injector is None or comm.fault_injector.is_trivial)
    ):
        # Dependency times are folded into per-stage floors and each
        # broadcast goes through the lean rendezvous. The stage schedule
        # is epoch-invariant, so each call site keeps a validated plan on
        # the context and replays it. Plans are keyed per cache phase so
        # refresh and serve schedules coexist; the cache token pins a
        # plan to the resident contents it was built against
        # (admission/evict/fill bumps it).
        plan_cache = getattr(ctx, "spmm_plan_cache", None)
        if plan_cache is None:
            plan_cache = ctx.spmm_plan_cache = {}
        key = (label, None if cache is None else cache.phase)
        plan = plan_cache.get(key)
        if (
            plan is None
            or not plan.matches(
                comm, tiles, sources, outputs, buffer_managers, overlap,
                compute_bw,
            )
            or plan.cache_token != (
                None if cache is None else cache.plan_token()
            )
        ):
            plan = _build_stage_plan(
                ctx, comm, cost_models, tiles, sources, outputs,
                buffer_managers, overlap, compute_bw, label, cache,
            )
            plan_cache[key] = plan
        return _replay_stage_plan(engine, comm, plan, extra_deps)

    spmm_events: Dict[int, List[Event]] = {r: [] for r in range(P)}

    for j in range(P):
        src = sources[j]
        dsts = {
            r: buffer_managers[r].bc_view(j if overlap else 0, src.rows, src.cols)
            for r in range(P)
            if r != j
        }
        # dependency: the buffer this broadcast writes must no longer be
        # read. Overlapped: buffer j%2 was last read by stage j-2's SpMM;
        # but §4.3 states bcast i+1 waits SpMM i-1, which (given in-order
        # compute streams) also protects stage j-2's reads. Serialised:
        # the single buffer was read by stage j-1's SpMM.
        bcast_deps: Dict[int, List[Event]] = {r: [] for r in range(P)}
        guard_stage = j - 2 if overlap else j - 1
        if guard_stage >= 0:
            for r in range(P):
                bcast_deps[r].append(spmm_events[r][guard_stage])
        for r in range(P):
            bcast_deps[r].extend(extra_deps[r])
        payload = None
        copy_fn = None
        bcast_name = f"{label}/bcast[{j}]"
        if cache is not None:
            entry = cache.stage_entry(label, j, src)
            if entry is not None:
                payload = cache.payload_nbytes(label, j, src)
                copy_fn = cache.stage_copy(entry, src, tuple(dsts.values()))
                bcast_name = f"{label}/cache_bcast[{j}]"
        events = comm.broadcast(
            root=j,
            src=src,
            dsts=dsts,
            deps_by_rank=bcast_deps,
            stage=j,
            name=bcast_name,
            payload_nbytes=payload,
            copy_fn=copy_fn,
        )

        # §6.3 bandwidth sharing: the SpMM of stage j overlaps the
        # broadcast of stage j+1. It loses link-share bandwidth only for
        # the duration of that broadcast (when compute dominates, the
        # penalty is proportionally small).
        next_bcast_time = _next_broadcast_time(
            comm, sources, j, overlap, label, cache
        )
        stage_bw = compute_bw if (overlap and j < P - 1) else 1.0
        stage_events = spmm_many(
            engine,
            [
                (ctx.device(r).compute_stream, cost_models[r], tiles[r][j],
                 src if r == j else dsts[r], outputs[r],
                 (events[r],) + extra_deps[r])
                for r in range(P)
            ],
            accumulate=(j > 0),
            stage=j,
            name=f"{label}[{j}]",
            bw_fraction=stage_bw,
            overlap_comm_time=next_bcast_time,
        )
        for r, ev in enumerate(stage_events):
            spmm_events[r].append(ev)

    return spmm_events


def _next_broadcast_time(
    comm: Communicator,
    sources: Sequence[DeviceTensor],
    j: int,
    overlap: bool,
    label: str,
    cache: Optional["TrainingTileCache"],
) -> float:
    """Duration of stage ``j+1``'s broadcast, which stage ``j``'s SpMM
    overlaps (0 when serialised or at the last stage)."""
    if not overlap or j == len(sources) - 1:
        return 0.0
    nbytes = sources[j + 1].nbytes
    if cache is not None:
        nbytes = cache.payload_nbytes(label, j + 1, sources[j + 1])
    return comm.broadcast_duration(j + 1, nbytes)


class _StagePlan:
    """Epoch-invariant schedule for one pipelined SpMM call site.

    Everything about the stage loop except dependency *times* is fixed
    across epochs: operands and broadcast views (the buffer managers
    cache them), each broadcast's duration and event names (communicator
    bandwidth and ranks are frozen for its lifetime), each rank's SpMM
    duration and flops (frozen cost models and shapes), and the group
    compute closure (it derefs ``.data`` at call time). Build once per
    call site, then replay each epoch with only the per-stage start
    floors recomputed. Cached per label on the :class:`SimContext` and
    revalidated by communicator and operand identity on every call — a
    changed operand set simply rebuilds the plan.
    """

    __slots__ = (
        "comm", "tiles", "sources", "outputs", "managers", "overlap",
        "compute_bw", "stages", "cache_token",
    )

    def __init__(self, comm, tiles, sources, outputs, managers, overlap,
                 compute_bw, stages, cache_token=None):
        self.comm = comm
        self.tiles = tuple(tiles)
        self.sources = tuple(sources)
        self.outputs = tuple(outputs)
        self.managers = tuple(managers)
        self.overlap = overlap
        self.compute_bw = compute_bw
        #: ``cache.plan_token()`` at build time (None when uncached); a
        #: mismatch at call time means the payloads or copy closures no
        #: longer describe the epoch and the plan rebuilds.
        self.cache_token = cache_token
        #: per stage: (broadcast plan, guard stage index, per-rank spec
        #: prefixes ``(stream, name, category, duration)``, per-rank spec
        #: suffixes ``(stage, nbytes, compute, correlation, flops)``, and
        #: the group compute closure (None in symbolic mode).
        self.stages = stages

    def matches(self, comm, tiles, sources, outputs, managers, overlap,
                compute_bw) -> bool:
        """Is this plan still valid for the operands of this call?"""
        if (self.comm is not comm or self.overlap != overlap
                or self.compute_bw != compute_bw):
            return False
        if len(tiles) != len(self.tiles):
            return False
        for mine, theirs in (
            (self.tiles, tiles), (self.sources, sources),
            (self.outputs, outputs), (self.managers, managers),
        ):
            for a, b in zip(mine, theirs):
                if a is not b:
                    return False
        return True


def _build_stage_plan(
    ctx: SimContext,
    comm: Communicator,
    cost_models: Sequence[CostModel],
    tiles: Sequence[Sequence[object]],
    sources: Sequence[DeviceTensor],
    outputs: Sequence[DeviceTensor],
    buffer_managers: Sequence[SharedBufferManager],
    overlap: bool,
    compute_bw: float,
    label: str,
    cache: Optional["TrainingTileCache"] = None,
) -> _StagePlan:
    """Validate every stage once and snapshot its schedule."""
    P = ctx.num_gpus
    engine = ctx.engine
    compute_streams = [ctx.device(r).compute_stream for r in range(P)]
    stages = []
    for j in range(P):
        src = sources[j]
        dsts = {
            r: buffer_managers[r].bc_view(j if overlap else 0, src.rows, src.cols)
            for r in range(P)
            if r != j
        }
        payload = None
        copy_fn = None
        # every rank's dense operand holds the stage root's tile (rank j
        # reads src itself, the others their broadcast copy) — except on
        # a cache serve epoch, whose copies take the cached rows from the
        # possibly stale replica instead.
        shared_dense = src
        bcast_name = f"{label}/bcast[{j}]"
        if cache is not None:
            entry = cache.stage_entry(label, j, src)
            if entry is not None:
                payload = cache.payload_nbytes(label, j, src)
                copy_fn = cache.stage_copy(entry, src, tuple(dsts.values()))
                bcast_name = f"{label}/cache_bcast[{j}]"
                if cache.phase == SERVE:
                    shared_dense = None
        bcast_plan = comm.plan_broadcast(
            j, src, dsts, name=bcast_name,
            payload_nbytes=payload, copy_fn=copy_fn,
        )
        next_bcast_time = _next_broadcast_time(
            comm, sources, j, overlap, label, cache
        )
        stage_bw = compute_bw if (overlap and j < P - 1) else 1.0
        items = [
            (compute_streams[r], cost_models[r], tiles[r][j],
             src if r == j else dsts[r], outputs[r], ())
            for r in range(P)
        ]
        specs, compute = build_spmm_group(
            items,
            accumulate=(j > 0),
            stage=j,
            name=f"{label}[{j}]",
            bw_fraction=stage_bw,
            overlap_comm_time=next_bcast_time,
        )
        if compute is not None:
            fast_compute = specialize_spmm_group(
                items, accumulate=(j > 0), shared_dense=shared_dense,
            )
            if fast_compute is not None:
                compute = fast_compute
        guard_stage = j - 2 if overlap else j - 1
        pre = [s[:4] for s in specs]
        post = [s[5:] for s in specs]
        stages.append((bcast_plan, guard_stage, pre, post, compute))
    # token taken *after* the stage walk: stage_entry may admit entries
    # (or mark them filled), and the plan must pin the resulting state.
    token = None if cache is None else cache.plan_token()
    return _StagePlan(comm, tiles, sources, outputs, buffer_managers,
                      overlap, compute_bw, stages, token)


def _replay_stage_plan(
    engine,
    comm: Communicator,
    plan: _StagePlan,
    extra_deps: Dict[int, tuple],
) -> Dict[int, List[Event]]:
    """The stage loop with dependency times tracked as floats.

    Timing-equivalent to the general loop in :func:`distributed_spmm`:
    the broadcast of stage ``j`` starts no earlier than the guard stage's
    slowest SpMM (§4.3's event chain) and the per-rank entry deps, both
    of which are plain time floors here instead of per-rank `Event`
    dependency lists (every extra dep's time is dominated by the
    broadcast end the SpMM already waits on, so dropping them from the
    SpMM dep lists cannot change any start time). Only valid fault-free
    (the caller checks), where event objects carry nothing but their
    times. Under an epoch capture each stage is recorded as its
    broadcast (waiting on the guard stage's SpMMs and the entry deps)
    and its per-rank SpMMs (each waiting on that broadcast).
    """
    all_extra = 0.0
    for deps in extra_deps.values():
        for dep in deps:
            t = dep.require_time()
            if t > all_extra:
                all_extra = t
    capture = engine.capture
    if capture is not None:
        entry_ops = capture.dep_ops(
            dep for deps in extra_deps.values() for dep in deps
        )
        first_ops: List[int] = []  # per stage: op index of its first SpMM
    P = len(plan.sources)
    spmm_events: Dict[int, List[Event]] = {r: [] for r in range(P)}
    stage_end_max: List[float] = []  # slowest rank's SpMM end, per stage

    for j, (bcast_plan, guard_stage, pre, post, compute) in enumerate(
        plan.stages
    ):
        floor = all_extra
        if guard_stage >= 0 and stage_end_max[guard_stage] > floor:
            floor = stage_end_max[guard_stage]
        events = comm.broadcast_replay(bcast_plan, floor, stage=j)
        if compute is not None:
            compute()
        # every rank's broadcast event carries the same completion time,
        # so the whole stage submits against one shared floor.
        stage_events = engine.submit_after(pre, post, events[0].time)
        end_max = 0.0
        for r, ev in enumerate(stage_events):
            spmm_events[r].append(ev)
            if ev.time > end_max:
                end_max = ev.time
        stage_end_max.append(end_max)
        if capture is not None:
            # broadcast streams are keyed in rank order
            streams, duration, name, _, nbytes, copy, links = bcast_plan
            first_ops.append(capture.record_stage(
                streams.values(), name, duration, nbytes,
                copy, links, entry_ops,
                first_ops[guard_stage] if guard_stage >= 0 else -1,
                pre, post, stage_events, compute, j,
            ))

    return spmm_events
