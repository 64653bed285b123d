"""Critical-path attribution over the simulated event DAG.

The engine assigns every op ``start = max(stream ready, dependency end
times)`` and ``end = start + duration`` — an exact float ``max``, so the
*binding* predecessor of any op (the one that actually delayed it) ends
at bit-exactly the op's start time. :func:`critical_path` exploits that:
walking backward from the last-finishing event, at each step it follows
an event whose ``end`` equals the current ``start`` exactly. When no
event ends there the op was waiting on something outside the trace
(batch arrival, dispatch policy, the epoch barrier) and the gap is
charged to a synthetic ``"wait"`` category. The resulting step chain
tiles the window ``[floor, end]`` with no overlap, so the per-category
on-path seconds (waits included) sum to the epoch time — the invariant
the attribution report is built on.

Because replayed :class:`~repro.plan.plan.ExecutionPlan` epochs
regenerate bit-identical :class:`~repro.device.engine.TraceEvent` lists,
the same analyzer covers eager, batched, and replay paths unchanged.
:func:`critical_path_from_plan` additionally walks the plan's *explicit*
dependency edges (event deps plus implicit stream order) — the
ground-truth DAG variant the tests validate against.
"""

from __future__ import annotations

import bisect
import fnmatch
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.telemetry.derived import _rank_of

#: synthetic category charged for binding-free gaps on the path (arrival
#: waits, dispatch policy, barrier idling — time no traced op explains).
WAIT_CATEGORY = "wait"

#: op-name globs whose on-path time is attributed to cache-miss stalls:
#: serving-frontier gathers, and the stage broadcasts the training-tile
#: cache serves (``core/spmm_mg.py`` names them ``.../cache_bcast[j]``).
#: Uncached broadcasts are plain communication, not stalls.
DEFAULT_CACHE_STALL_PATTERNS: Tuple[str, ...] = (
    "serve.gather*", "*/cache_bcast[[]*",
)


@dataclass(frozen=True)
class PathStep:
    """One interval of the critical path (an op, or a wait gap)."""

    name: str
    category: str
    device: str
    stream: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_wait(self) -> bool:
        return self.category == WAIT_CATEGORY


@dataclass
class CritPathReport:
    """Ranked attribution of one window's critical path."""

    #: analysis window; ``window_end - window_start`` is the epoch time
    #: the category shares are measured against.
    window_start: float
    window_end: float
    #: the path, earliest step first, tiling the window exactly.
    steps: Tuple[PathStep, ...]
    #: on-path seconds per category (includes :data:`WAIT_CATEGORY`).
    category_seconds: Dict[str, float]
    #: off-path busy seconds per category — work that ran fully
    #: overlapped with the path (never includes "wait").
    category_slack: Dict[str, float]
    #: on-path seconds per device (waits excluded).
    device_seconds: Dict[str, float]
    #: ``(name, category, count, seconds)`` of path ops, by seconds desc.
    top_ops: List[Tuple[str, str, int, float]]
    #: on-path communication seconds — comm the schedule failed to hide
    #: behind compute (the paper's overlap loss).
    overlap_loss_seconds: float
    #: on-path seconds of cache-fill transfers (gathers/broadcasts).
    cache_stall_seconds: float
    #: device owning the most on-path seconds, and its parsed rank.
    straggler_device: Optional[str]
    straggler_rank: Optional[int]

    @property
    def epoch_time(self) -> float:
        return self.window_end - self.window_start

    @property
    def num_ops(self) -> int:
        return sum(1 for s in self.steps if not s.is_wait)

    @property
    def path_seconds(self) -> float:
        """Sum of step durations; equals :attr:`epoch_time` up to float
        summation error (the steps tile the window by construction)."""
        return sum(s.duration for s in self.steps)

    def share(self, category: str) -> float:
        if self.epoch_time <= 0.0:
            return 0.0
        return self.category_seconds.get(category, 0.0) / self.epoch_time

    def to_dict(self) -> dict:
        return {
            "window_start": self.window_start,
            "window_end": self.window_end,
            "epoch_time": self.epoch_time,
            "num_ops": self.num_ops,
            "category_seconds": dict(self.category_seconds),
            "category_slack": dict(self.category_slack),
            "device_seconds": dict(self.device_seconds),
            "top_ops": [
                {"name": n, "category": c, "count": k, "seconds": s}
                for n, c, k, s in self.top_ops
            ],
            "overlap_loss_seconds": self.overlap_loss_seconds,
            "cache_stall_seconds": self.cache_stall_seconds,
            "straggler_device": self.straggler_device,
            "straggler_rank": self.straggler_rank,
        }

    def render(self, top: int = 10, width: int = 72) -> str:
        """Terminal-friendly attribution report."""
        lines = [
            "-" * width,
            f"critical path: {self.epoch_time:.6g} s over {self.num_ops} "
            f"ops  [{self.window_start:.6g}, {self.window_end:.6g}]",
            "-" * width,
            f"  {'category':<14} {'on-path':>12} {'share':>7} {'slack':>12}",
        ]
        ordered = sorted(
            self.category_seconds, key=self.category_seconds.get, reverse=True
        )
        for cat in ordered:
            lines.append(
                f"  {cat:<14} {self.category_seconds[cat]:>12.6g} "
                f"{self.share(cat):>6.1%} "
                f"{self.category_slack.get(cat, 0.0):>12.6g}"
            )
        lines.append(
            f"  overlap loss (comm on path): {self.overlap_loss_seconds:.6g} s"
            f" ({self.share('comm'):.1%})"
        )
        lines.append(
            f"  cache-miss stalls on path:   {self.cache_stall_seconds:.6g} s"
        )
        if self.straggler_device is not None:
            rank = (
                f" (rank {self.straggler_rank})"
                if self.straggler_rank is not None
                else ""
            )
            lines.append(
                f"  straggler: {self.straggler_device}{rank}, "
                f"{self.device_seconds[self.straggler_device]:.6g} s on path"
            )
        if self.top_ops:
            lines.append("  top path ops:")
            for i, (name, cat, count, seconds) in enumerate(
                self.top_ops[:top], start=1
            ):
                lines.append(
                    f"    {i:>2}. {name:<28} [{cat}] x{count:<4} "
                    f"{seconds:.6g} s"
                )
        lines.append("-" * width)
        return "\n".join(lines)


def _pick(candidates):
    """Deterministic choice among equal-end candidates: largest duration
    first, then lexicographic (device, stream, name)."""
    return min(
        candidates,
        key=lambda e: (-(e.end - e.start), e.device, e.stream, e.name),
    )


def _step_of(ev) -> PathStep:
    return PathStep(
        name=ev.name,
        category=ev.category,
        device=ev.device,
        stream=ev.stream,
        start=ev.start,
        end=ev.end,
    )


def _assemble(
    events,
    steps_rev: List[PathStep],
    floor: float,
    window_end: float,
    cache_stall_patterns: Sequence[str],
) -> CritPathReport:
    steps = tuple(reversed(steps_rev))
    category_seconds: Dict[str, float] = {}
    device_seconds: Dict[str, float] = {}
    op_totals: Dict[Tuple[str, str], List[float]] = {}
    overlap_loss = 0.0
    cache_stall = 0.0
    for step in steps:
        d = step.duration
        category_seconds[step.category] = (
            category_seconds.get(step.category, 0.0) + d
        )
        if step.is_wait:
            continue
        device_seconds[step.device] = device_seconds.get(step.device, 0.0) + d
        entry = op_totals.setdefault((step.name, step.category), [0, 0.0])
        entry[0] += 1
        entry[1] += d
        if step.category == "comm":
            overlap_loss += d
        if any(
            fnmatch.fnmatchcase(step.name, pat)
            for pat in cache_stall_patterns
        ):
            cache_stall += d
    busy: Dict[str, float] = {}
    for ev in events:
        busy[ev.category] = busy.get(ev.category, 0.0) + (ev.end - ev.start)
    category_slack = {
        cat: max(total - category_seconds.get(cat, 0.0), 0.0)
        for cat, total in busy.items()
    }
    straggler_device = (
        max(sorted(device_seconds), key=device_seconds.get)
        if device_seconds
        else None
    )
    top_ops = sorted(
        (
            (name, cat, int(count), seconds)
            for (name, cat), (count, seconds) in op_totals.items()
        ),
        key=lambda row: (-row[3], row[0]),
    )
    return CritPathReport(
        window_start=floor,
        window_end=window_end,
        steps=steps,
        category_seconds=category_seconds,
        category_slack=category_slack,
        device_seconds=device_seconds,
        top_ops=top_ops,
        overlap_loss_seconds=overlap_loss,
        cache_stall_seconds=cache_stall,
        straggler_device=straggler_device,
        straggler_rank=(
            _rank_of(straggler_device) if straggler_device is not None else None
        ),
    )


def critical_path(
    trace: Sequence,
    floor: Optional[float] = None,
    cache_stall_patterns: Sequence[str] = DEFAULT_CACHE_STALL_PATTERNS,
) -> CritPathReport:
    """Attribute a trace window to its critical path.

    ``trace`` is any sequence of :class:`~repro.device.engine.TraceEvent`
    (an epoch slice, a serving run, a flight-recorder bundle's ops).
    ``floor`` is the window start; defaults to the earliest op start.
    The walk follows exact ``end == start`` equality (see module
    docstring); windows the ops cannot explain become ``"wait"`` steps,
    so the report's category seconds always sum to the window length.
    """
    events = [ev for ev in trace if ev.end >= ev.start]
    if not events:
        raise ConfigurationError("critical_path: empty trace")
    if floor is None:
        floor = min(ev.start for ev in events)
    window_end = max(ev.end for ev in events)
    if window_end <= floor:
        raise ConfigurationError(
            f"critical_path: empty window [{floor}, {window_end}]"
        )
    # events starting before the floor would make the tiles overlap the
    # window edge; clamp the analysis to ops inside the window.
    events = [ev for ev in events if ev.start >= floor]
    by_end: Dict[float, List] = {}
    for ev in events:
        by_end.setdefault(ev.end, []).append(ev)
    ends_sorted = sorted(by_end)

    steps_rev: List[PathStep] = []
    visited = set()
    cur = _pick(by_end[window_end])
    while True:
        steps_rev.append(_step_of(cur))
        visited.add(id(cur))
        s = cur.start
        if s <= floor:
            break
        preds = [e for e in by_end.get(s, ()) if id(e) not in visited]
        if preds:
            cur = _pick(preds)
            continue
        # no event ends exactly at s: the op waited on something outside
        # the trace. Bridge back to the latest earlier completion.
        i = bisect.bisect_left(ends_sorted, s) - 1
        prev_end = ends_sorted[i] if i >= 0 else None
        if prev_end is None or prev_end <= floor:
            steps_rev.append(
                PathStep("(wait)", WAIT_CATEGORY, "-", "-", floor, s)
            )
            break
        steps_rev.append(
            PathStep("(wait)", WAIT_CATEGORY, "-", "-", prev_end, s)
        )
        remaining = [e for e in by_end[prev_end] if id(e) not in visited]
        if not remaining:  # pragma: no cover - visited events end later
            break
        cur = _pick(remaining)
    return _assemble(events, steps_rev, floor, window_end, cache_stall_patterns)


@dataclass(frozen=True)
class _PlanOp:
    """A plan op materialised with its timeline times (pseudo-event)."""

    name: str
    category: str
    device: str
    stream: str
    start: float
    end: float


def critical_path_from_plan(
    plan,
    t0: float = 0.0,
    cache_stall_patterns: Sequence[str] = DEFAULT_CACHE_STALL_PATTERNS,
) -> CritPathReport:
    """Exact-DAG critical path of a captured :class:`ExecutionPlan`.

    Unlike :func:`critical_path`, the backward walk here follows the
    plan's *recorded* dependency edges (explicit event deps plus the
    implicit previous-op-per-stream edges), so the returned path is a
    true dependency chain, not just a time-equality chain. Level-0 ops
    start at ``t0``; the path therefore never contains wait steps.
    """
    if plan.num_ops == 0:
        raise ConfigurationError("critical_path_from_plan: empty plan")
    starts, ends = plan.compute_timeline(t0)
    deps = plan.op_dependencies()
    meta = plan.op_meta()

    def op_of(i: int) -> _PlanOp:
        name, category, device, stream = meta[i]
        return _PlanOp(name, category, device, stream,
                       float(starts[i]), float(ends[i]))

    events = [op_of(i) for i in range(plan.num_ops)]
    window_end = max(ev.end for ev in events)

    def idx_key(i: int):
        ev = events[i]
        return (-(ev.end - ev.start), ev.device, ev.stream, ev.name)

    steps_rev: List[PathStep] = []
    cur_idx = min(
        (i for i, ev in enumerate(events) if ev.end == window_end),
        key=idx_key,
    )
    while True:
        cur = events[cur_idx]
        steps_rev.append(_step_of(cur))
        pred_ids = deps[cur_idx]
        if not pred_ids:
            break
        # the binding predecessor: the dependency whose end equals the
        # op's start (exact, by the engine's max arithmetic).
        binding = [d for d in pred_ids if events[d].end == cur.start]
        if not binding:
            # start was bound by t0 (all deps ended earlier).
            break
        cur_idx = min(binding, key=idx_key)
    return _assemble(
        events, steps_rev, float(t0), window_end, cache_stall_patterns
    )


def publish_critpath(telemetry, report: CritPathReport,
                     epoch: Optional[int] = None) -> None:
    """Push a report's headline numbers into the telemetry registry.

    Gauges carry the *latest* analyzed window (the dashboard convention);
    ``repro_critpath_analyses_total`` counts how many ran.
    """
    telemetry.inc("repro_critpath_analyses_total")
    for cat, seconds in report.category_seconds.items():
        telemetry.set_gauge("repro_critpath_seconds", seconds, category=cat)
        telemetry.set_gauge("repro_critpath_share", report.share(cat),
                            category=cat)
    for cat, seconds in report.category_slack.items():
        telemetry.set_gauge("repro_critpath_slack_seconds", seconds,
                            category=cat)
    telemetry.set_gauge(
        "repro_critpath_overlap_loss_seconds", report.overlap_loss_seconds
    )
    telemetry.set_gauge(
        "repro_critpath_cache_stall_seconds", report.cache_stall_seconds
    )
    telemetry.set_gauge("repro_critpath_ops", float(report.num_ops))
    if report.straggler_rank is not None:
        telemetry.set_gauge(
            "repro_critpath_straggler_rank", float(report.straggler_rank)
        )
    if epoch is not None:
        telemetry.set_gauge("repro_critpath_epoch", float(epoch))

