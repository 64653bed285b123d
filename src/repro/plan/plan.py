"""Execution plans: the sim-graph analogue of CUDA Graphs.

Full-batch GCN training repeats a bit-identical op DAG every epoch (the
same premise behind the paper's L+3 buffer reuse, §4.2). An
:class:`ExecutionPlan` freezes one eagerly-scheduled epoch — every op's
streams, duration, dependency edges, trace template and functional
compute closure — so subsequent epochs replay it without re-walking the
Python scheduling path: no cost-model evaluation, no per-op dependency
resolution, no rendezvous validation.

Replay is bit-identical to eager execution because it performs the very
same floating-point operations the engine would:

* an op's start is ``max`` over its predecessors' end times (``max`` is
  exact under any grouping),
* its end is ``start + duration`` with the *captured* duration — the
  same two doubles the eager path adds.

The timeline is advanced with vectorized arithmetic: ops are grouped
into topological *levels* at finalization; within a level every start is
computed with one ``np.maximum.reduceat`` over the flattened dependency
ends, and every end with one vector add. Trace events are regenerated in
bulk from a pre-built template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.device.engine import Engine, TraceEvent
from repro.device.stream import Stream
from repro.errors import PlanError


@dataclass
class PlanStats:
    """Capture/replay counters of one trainer (observability + tests)."""

    captures: int = 0
    replays: int = 0
    eager_epochs: int = 0
    invalidations: int = 0


@dataclass(frozen=True)
class ReplayResult:
    """What one replayed epoch produced."""

    #: sum of the per-rank local losses (closures of category "loss"),
    #: accumulated in captured program order — divide by the global
    #: training-vertex count for the epoch loss.
    loss_sum: float
    #: latest op completion time (== the epoch-end barrier time).
    end_time: float
    #: trace events appended to the engine (0 when tracing is off).
    events_emitted: int


class ExecutionPlan:
    """An immutable captured epoch: ops, dependencies, closures, trace.

    Built by :class:`~repro.plan.capture.PlanCapture`; replayed against
    the engine it was captured from. All schedule state is normalised to
    the epoch-start barrier time, so a plan captured at ``t0`` replays
    correctly at any later ``t0'``.
    """

    def __init__(
        self,
        streams: Sequence[Stream],
        durations: Sequence[float],
        levels: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        trace_rows: Sequence[tuple],
        closures: Sequence[Tuple[Callable[[], object], bool]],
        last_op_per_stream: Sequence[int],
        link_totals: Optional[Dict[str, Tuple[float, float]]] = None,
    ):
        self._streams: Tuple[Stream, ...] = tuple(streams)
        self._durations = np.asarray(durations, dtype=np.float64)
        #: per level: (op indices, flattened dep op indices, reduceat offsets)
        self._levels = tuple(levels)
        #: the levels as :meth:`compute_timeline` walks them: ``(ops,
        #: durations, deps, offsets)``, gathered once; a one-op level with
        #: dependencies keeps scalars and ``offsets`` None.
        self._schedule = tuple(
            (int(idx[0]), float(self._durations[idx[0]]), deps, None)
            if idx.size == 1 and deps.size
            else (idx, self._durations[idx], deps, offsets)
            for idx, deps, offsets in self._levels
        )
        self._trace_rows = tuple(trace_rows)
        #: per trace event: (op, device, stream, name, category, stage,
        #: nbytes, correlation, flops); expanded on first use.
        self._trace_template: Optional[List[tuple]] = None
        self._closures = tuple(closures)
        self._last_op_per_stream = tuple(last_op_per_stream)
        #: link tier -> (seconds, bytes) of one epoch's collectives.
        self._link_totals = dict(link_totals or {})
        self._num_gpus = len({s.device.name for s in self._streams})
        # (category, device) -> [trace events, seconds]; built on first use.
        self._op_totals: Optional[Dict[Tuple[str, str], list]] = None
        self._nbytes = 0.0
        self._flops = 0.0

    # -- introspection -------------------------------------------------------

    @property
    def num_ops(self) -> int:
        return int(self._durations.shape[0])

    @property
    def num_streams(self) -> int:
        return len(self._streams)

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    @property
    def num_closures(self) -> int:
        return len(self._closures)

    def trace_template(self) -> List[tuple]:
        """One ``(op, device, stream, name, category, stage, nbytes,
        correlation, flops)`` entry per trace event, in eager trace order."""
        if self._trace_template is None:
            self._trace_template = expand_trace(self._trace_rows)
        return self._trace_template

    def _accounting(self) -> Dict[Tuple[str, str], list]:
        """Per-(category, device) event counts and seconds, once per plan.

        One pass over the trace template, taken on first use rather than
        at capture so plans nobody accounts cost their capture nothing.
        """
        if self._op_totals is None:
            totals: Dict[Tuple[str, str], list] = {}
            durations = self._durations.tolist()
            nbytes = flops = 0.0
            for (op, device, _stream, _name, category, _stage, op_bytes,
                 _correlation, op_flops) in self.trace_template():
                entry = totals.get((category, device))
                if entry is None:
                    entry = totals[(category, device)] = [0, 0.0]
                entry[0] += 1
                entry[1] += durations[op]
                nbytes += op_bytes
                flops += op_flops
            self._nbytes, self._flops = nbytes, flops
            self._op_totals = totals
        return self._op_totals

    def category_totals(self) -> dict:
        """Total captured op duration per category (one epoch's worth)."""
        out: Dict[str, float] = {}
        for (category, _), (_, seconds) in self._accounting().items():
            out[category] = out.get(category, 0.0) + seconds
        return out

    def op_dependencies(self) -> List[Tuple[int, ...]]:
        """Per-op dependency edges, rebuilt from the level encoding.

        ``result[i]`` lists every op index ``i`` waits for (explicit
        event deps plus the implicit previous-op-per-stream edge) — the
        exact ground-truth DAG the critical-path analyzer walks.
        """
        deps: List[Tuple[int, ...]] = [()] * self.num_ops
        for idx, flat_deps, offsets in self._levels:
            if flat_deps.size == 0:
                continue
            bounds = offsets.tolist() + [int(flat_deps.size)]
            flat = flat_deps.tolist()
            for pos, op in enumerate(idx.tolist()):
                deps[op] = tuple(flat[bounds[pos]:bounds[pos + 1]])
        return deps

    def op_meta(self) -> List[Tuple[str, str, str, str]]:
        """Per-op ``(name, category, device, stream)`` labels.

        Taken from each op's first trace-template entry; ops without
        template entries (barriers) get a positional placeholder.
        """
        meta: List[Tuple[str, str, str, str]] = [
            (f"op{i}", "op", "-", "-") for i in range(self.num_ops)
        ]
        seen = [False] * self.num_ops
        for (op, device, stream_name, name, category, _stage, _nbytes,
             _correlation, _flops) in self.trace_template():
            if not seen[op]:
                seen[op] = True
                meta[op] = (name, category, device, stream_name)
        return meta

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ExecutionPlan(ops={self.num_ops}, streams={self.num_streams}, "
            f"levels={self.num_levels})"
        )

    # -- replay --------------------------------------------------------------

    def compute_timeline(self, t0: float) -> Tuple[np.ndarray, np.ndarray]:
        """Start/end times of every op for an epoch starting at ``t0``.

        Pure timeline arithmetic (no compute, no trace): level 0 ops
        start at the epoch barrier; each later level's starts are the
        segment-maxima of their dependencies' ends.
        """
        n = self.num_ops
        starts = np.empty(n, dtype=np.float64)
        ends = np.empty(n, dtype=np.float64)
        for idx, durations, flat_deps, offsets in self._schedule:
            if flat_deps.size == 0:
                level_starts = t0
            elif offsets is None:
                level_starts = ends[flat_deps].max()
            else:
                level_starts = np.maximum.reduceat(ends[flat_deps], offsets)
            starts[idx] = level_starts
            ends[idx] = level_starts + durations
        return starts, ends

    def replay(self, engine: Engine, t0: float) -> ReplayResult:
        """Re-execute the captured epoch starting at barrier time ``t0``.

        Runs the functional closures in captured program order, advances
        the captured streams' clocks, regenerates the trace events when
        the engine records a trace or its telemetry hub wants op spans,
        and books the epoch into the hub's eager-path series.
        """
        # 1. functional compute, in the captured sequential order.
        loss_sum = 0.0
        for fn, is_loss in self._closures:
            value = fn()
            if is_loss:
                loss_sum += value

        # 2. timeline arithmetic.
        if self.num_ops == 0:
            return ReplayResult(loss_sum=loss_sum, end_time=t0, events_emitted=0)
        starts, ends = self.compute_timeline(t0)

        # 3. stream clocks.
        for stream, last in zip(self._streams, self._last_op_per_stream):
            if last >= 0:
                stream.ready_time = float(ends[last])

        # 4. trace regeneration, in bulk.
        telemetry = getattr(engine, "telemetry", None)
        spans = telemetry is not None and getattr(telemetry, "trace_ops", False)
        emitted = 0
        if engine.record_trace or spans:
            starts_l = starts.tolist()
            ends_l = ends.tolist()
            events = [
                TraceEvent(
                    device=device,
                    stream=stream_name,
                    name=name,
                    category=category,
                    start=starts_l[op],
                    end=ends_l[op],
                    stage=stage,
                    nbytes=nbytes,
                    correlation=correlation,
                    flops=flops,
                )
                for op, device, stream_name, name, category, stage, nbytes,
                correlation, flops in self.trace_template()
            ]
            if engine.record_trace:
                engine.record_events(events)
                emitted = len(events)
            if spans:
                # per-op spans and accounting, exactly as eager ops do.
                for ev in events:
                    telemetry.on_op(ev)
        end_time = float(ends.max())
        if telemetry is not None:
            op_totals = self._accounting()
            telemetry.on_replay(
                start=t0,
                end=end_time,
                op_totals=op_totals,
                link_totals=self._link_totals,
                nbytes=self._nbytes,
                flops=self._flops,
                num_gpus=self._num_gpus,
                ops_booked=spans,
            )
        return ReplayResult(
            loss_sum=loss_sum,
            end_time=end_time,
            events_emitted=emitted,
        )


def expand_trace(rows: Sequence[tuple]) -> List[tuple]:
    """Expand captured trace rows into one template entry per event.

    A row is ``(op, streams, name, category, stage, nbytes, correlation,
    flops)`` — one event per stream, all spanning op ``op`` — or ``(first
    op, pre, post)``, a distributed-SpMM stage's per-rank SpMMs: ops
    ``first op + r`` from the stage plan's spec halves ``pre[r] =
    (stream, name, category, duration)`` and ``post[r] = (stage, nbytes,
    compute, correlation, flops)``.
    """
    out: List[tuple] = []
    append = out.append
    for row in rows:
        if len(row) == 3:
            op, pre, post = row
            for (stream, name, category, _), tail in zip(pre, post):
                append((op, stream.device.name, stream.name, name, category,
                        tail[0], tail[1], tail[3], tail[4]))
                op += 1
        else:
            (op, streams, name, category, stage, nbytes, correlation,
             flops) = row
            for s in streams:
                append((op, s.device.name, s.name, name, category, stage,
                        nbytes, correlation, flops))
    return out


def bucket_levels(
    level: Sequence[int],
    dep_ptr: Sequence[int],
    dep_flat: Sequence[int],
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Group ops into topological levels for vectorized replay.

    ``level[i]`` is op ``i``'s topological level and its dependencies
    are ``dep_flat[dep_ptr[i]:dep_ptr[i + 1]]``. Returns per level
    ``(op indices, flattened deps, reduceat offsets)``, ops in index
    order within a level — one stable sort by level and one gather of
    the dependency lists, O(ops + edges) array work plus one slice per
    level. Level 0 holds the dependency-free ops (they start at the
    epoch barrier); within any later level every op has at least one
    dependency, so ``np.maximum.reduceat`` segments are all non-empty.
    """
    level = np.asarray(level, dtype=np.int64)
    if level.size == 0:
        return []
    ptr = np.asarray(dep_ptr, dtype=np.int64)
    flat = np.asarray(dep_flat, dtype=np.int64)
    counts = np.bincount(level)
    if not counts.all():
        raise PlanError("empty topological level")
    order = np.argsort(level, kind="stable")
    lengths = (ptr[1:] - ptr[:-1])[order]
    ends = np.cumsum(lengths)
    begins = ends - lengths
    # position of each dependency, with the ops taken in level order
    gather = np.repeat(ptr[:-1][order] - begins, lengths) + np.arange(
        ends[-1], dtype=np.int64
    )
    flat = flat[gather]
    op_bounds = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=op_bounds[1:])
    # each level's deps start where its first op's do
    dep_bounds = np.append(begins[op_bounds[:-1]], ends[-1])
    offsets = begins - np.repeat(dep_bounds[:-1], counts)
    ob = op_bounds.tolist()
    db = dep_bounds.tolist()
    return [
        (order[ob[lv]:ob[lv + 1]], flat[db[lv]:db[lv + 1]],
         offsets[ob[lv]:ob[lv + 1]])
        for lv in range(counts.size)
    ]
