"""Exporters: Prometheus text format, JSONL event log, Chrome traces.

Three views of the same registry/tracer state:

* :func:`to_prometheus` — the text exposition format scrapers and
  humans both read (``# HELP``/``# TYPE`` then one sample per line;
  histograms render as summary-style quantile series).
* :func:`to_jsonl` / :func:`write_jsonl` — one JSON object per line,
  a metric snapshot record followed by every closed span, for offline
  analysis without a trace viewer.
* :func:`chrome_trace` + :func:`write_chrome_trace` — the one Chrome /
  Perfetto emitter: engine traces per run id, the tracer's span tree and
  critical paths in one timeline, every process on its own pid.
* :func:`render_summary` — the CLI's live-style dashboard text.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Union

from repro.device.engine import TraceEvent
from repro.telemetry.registry import (
    DEFAULT_QUANTILES,
    MetricsRegistry,
    format_labels,
)
from repro.telemetry.spans import Span, Tracer

if TYPE_CHECKING:
    from repro.telemetry.critpath import CritPathReport

PathLike = Union[str, os.PathLike]

_TIME_SCALE = 1e6  # microseconds per simulated second


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        kind = "summary" if family.kind == "histogram" else family.kind
        lines.append(f"# TYPE {family.name} {kind}")
        for labels in sorted(family.series):
            instrument = family.series[labels]
            if family.kind == "histogram":
                base = dict(labels)
                for q in DEFAULT_QUANTILES:
                    if instrument.count:
                        suffix = format_labels(
                            tuple(sorted({**base, "quantile": f"{q / 100:g}"}.items()))
                        )
                        lines.append(
                            f"{family.name}{suffix} {instrument.percentile(q):g}"
                        )
                plain = format_labels(labels)
                lines.append(f"{family.name}_sum{plain} {instrument.sum:g}")
                lines.append(f"{family.name}_count{plain} {instrument.count}")
            else:
                lines.append(
                    f"{family.name}{format_labels(labels)} {instrument.value:g}"
                )
    return "\n".join(lines) + "\n"


def span_to_record(span: Span) -> dict:
    record = {
        "type": "span",
        "name": span.name,
        "category": span.category,
        "start": span.start,
        "end": span.end,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "correlation": span.correlation,
    }
    if span.attrs:
        record["attrs"] = {k: str(v) for k, v in span.attrs.items()}
    return record


def to_jsonl(
    registry: MetricsRegistry, tracer: Optional[Tracer] = None, meta: Optional[dict] = None
) -> List[str]:
    """Event-log lines: one metrics record, then one line per span."""
    header: Dict[str, object] = {"type": "metrics", "metrics": registry.flatten()}
    if meta:
        header["meta"] = meta
    lines = [json.dumps(header, sort_keys=True)]
    if tracer is not None:
        for span in tracer.spans:
            lines.append(json.dumps(span_to_record(span), sort_keys=True))
    return lines


def write_jsonl(
    path: PathLike,
    registry: MetricsRegistry,
    tracer: Optional[Tracer] = None,
    meta: Optional[dict] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in to_jsonl(registry, tracer, meta):
            fh.write(line + "\n")


def chrome_trace(
    sections: Mapping[Optional[str], Sequence[TraceEvent]],
    tracer: Optional[Tracer] = None,
    critpaths: Optional[Mapping[Optional[str], "CritPathReport"]] = None,
) -> List[dict]:
    """One Chrome/Perfetto timeline of engine traces, spans and paths.

    * ``sections`` maps a run id (``"train"``, ``"serve"``, ...) to an
      engine trace: one process per device, named ``"{run}/{device}"``,
      one thread per stream. The ``None`` run id names processes by
      device alone (a single-engine export).
    * ``tracer``'s span tree becomes the ``spans`` process, one thread
      per nesting depth.
    * ``critpaths`` maps a label to a critical-path report, each its own
      ``"{label}/critical path"`` process (``"critical path"`` for the
      ``None`` label).

    Pids and tids are allocated here, in that order, so processes from
    different engines never share an id.
    """
    # (process, thread, name, category, start, duration, args) per event
    rows: List[tuple] = []
    for run_id, trace in sections.items():
        for ev in trace:
            args: Dict[str, object] = {"stage": ev.stage, "nbytes": ev.nbytes}
            if ev.correlation is not None:
                # opaque request/batch id: lets Perfetto queries group all
                # spans of one serving request across devices and streams.
                args["correlation"] = ev.correlation
            process = ev.device
            if run_id is not None:
                args["run"] = run_id
                process = f"{run_id}/{ev.device}"
            rows.append((process, ev.stream, ev.name, ev.category,
                         ev.start, ev.duration, args))
    if tracer is not None:
        # nesting renders as rows: a child sits one depth below its parent
        depth: Dict[int, int] = {}
        for span in tracer.spans:
            d = depth[span.parent_id] + 1 if span.parent_id in depth else 0
            depth[span.span_id] = d
            args = {"span_id": span.span_id, "parent_id": span.parent_id}
            if span.correlation is not None:
                args["correlation"] = span.correlation
            args.update({k: str(v) for k, v in span.attrs.items()})
            rows.append(("spans", f"depth{d}", span.name, span.category,
                         span.start, span.duration, args))
    for label, report in (critpaths or {}).items():
        process = "critical path" if label is None else f"{label}/critical path"
        for step in report.steps:
            rows.append((process, "path", step.name, step.category,
                         step.start, step.duration,
                         {"device": step.device, "stream": step.stream}))

    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}
    events: List[dict] = []
    for process, thread, name, category, start, duration, args in rows:
        pid = pids.setdefault(process, len(pids))
        tid = tids.setdefault((process, thread), len(tids))
        events.append(
            {
                "name": name,
                "cat": category,
                "ph": "X",  # complete event
                "ts": start * _TIME_SCALE,
                "dur": duration * _TIME_SCALE,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    for process, pid in pids.items():
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": process}}
        )
    for (process, thread), tid in tids.items():
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pids[process],
             "tid": tid, "args": {"name": thread}}
        )
    return events


def write_chrome_trace(path: PathLike, events: Sequence[dict]) -> None:
    """Write :func:`chrome_trace` events as a Perfetto-loadable file."""
    payload = {"traceEvents": list(events), "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def render_summary(
    registry: MetricsRegistry, tracer: Optional[Tracer] = None, width: int = 72
) -> str:
    """A terminal dashboard of the registry (the CLI's `telemetry` view)."""
    flat = registry.flatten()
    lines = ["=" * width, "telemetry summary".center(width), "=" * width]
    for key in sorted(flat):
        value = flat[key]
        rendered = f"{value:.6g}"
        pad = max(1, width - len(key) - len(rendered))
        lines.append(f"{key}{' ' * pad}{rendered}")
    def _label_values(name: str, label: str) -> Dict[str, float]:
        # repro_x_total{label="v",...} -> {v: value}; prefix scan over
        # the flat map, so multi-label series still resolve.
        out: Dict[str, float] = {}
        prefix = name + "{"
        for key, value in flat.items():
            if key.startswith(prefix):
                for part in key[len(prefix):-1].split(","):
                    k, _, v = part.partition("=")
                    if k == label:
                        out[v.strip('"')] = out.get(v.strip('"'), 0.0) + value
        return out

    link_bytes = {
        tier: flat.get(f'repro_comm_link_bytes_total{{link="{tier}"}}', 0.0)
        for tier in ("intra_node", "inter_node")
    }
    if any(link_bytes.values()):
        lines.append("-" * width)
        lines.append("comm link split")
        total = sum(link_bytes.values())
        for tier in ("intra_node", "inter_node"):
            b = link_bytes[tier]
            secs = flat.get(f'repro_comm_link_seconds_total{{link="{tier}"}}', 0.0)
            share = 100.0 * b / total if total else 0.0
            entry = f"  {tier}: {b:.6g} B ({share:.1f}%), {secs:.6g} s"
            lines.append(entry)
    saved = flat.get("repro_cache_bytes_saved_total", 0.0)
    hit_rows = flat.get("repro_cache_rows_hit_total", 0.0)
    miss_rows = flat.get("repro_cache_rows_missed_total", 0.0)
    if saved or hit_rows or miss_rows:
        lines.append("-" * width)
        lines.append("training cache savings")
        total_rows = hit_rows + miss_rows
        rate = 100.0 * hit_rows / total_rows if total_rows else 0.0
        lines.append(
            f"  rows: {hit_rows:.6g} hit / {miss_rows:.6g} miss "
            f"({rate:.1f}% hit)"
        )
        lines.append(f"  bytes saved: {saved:.6g} B")
        for phase, n in sorted(
            _label_values("repro_cache_epochs_total", "phase").items()
        ):
            lines.append(f"  epochs[{phase}]: {n:.6g}")
    crit = _label_values("repro_critpath_seconds", "category")
    if crit:
        lines.append("-" * width)
        lines.append("critical path (last analyzed epoch)")
        total = sum(crit.values())
        for category, secs in sorted(
            crit.items(), key=lambda kv: -kv[1]
        ):
            share = 100.0 * secs / total if total else 0.0
            lines.append(f"  {category}: {secs:.6g} s ({share:.1f}%)")
        overlap = flat.get("repro_critpath_overlap_loss_seconds")
        if overlap is not None:
            lines.append(f"  overlap loss: {overlap:.6g} s")
        stall = flat.get("repro_critpath_cache_stall_seconds")
        if stall is not None:
            lines.append(f"  cache-miss stalls: {stall:.6g} s")
    breaches = _label_values("repro_slo_breaches_total", "slo")
    anomalies = flat.get("repro_epoch_anomalies_total", 0.0)
    if breaches or anomalies:
        lines.append("-" * width)
        lines.append("SLO / anomaly health")
        for slo, n in sorted(breaches.items()):
            lines.append(f"  breaches[{slo}]: {n:.6g}")
        if anomalies:
            lines.append(f"  epoch anomalies: {anomalies:.6g}")
    if tracer is not None and tracer.spans:
        lines.append("-" * width)
        lines.append(f"spans: {len(tracer.spans)}")
        roots = [s for s in tracer.spans if s.parent_id is None]
        for root in roots[:20]:
            nchildren = len(tracer.children_of(root))
            corr = f" corr={root.correlation}" if root.correlation else ""
            lines.append(
                f"  {root.name} [{root.start:.4f}, {root.end if root.end is not None else float('nan'):.4f}]"
                f" children={nchildren}{corr}"
            )
        if len(roots) > 20:
            lines.append(f"  ... {len(roots) - 20} more root spans")
    lines.append("=" * width)
    return "\n".join(lines)
