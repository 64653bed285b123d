"""repro.telemetry — unified metrics, spans, and perf-regression gating.

One :class:`MetricsRegistry` + :class:`Tracer` pair (bundled by the
:class:`Telemetry` hub) that training, plan replay, resilience, and
serving all report through; the per-device span analysis
(:func:`~repro.telemetry.derived.device_utilization`); exporters for
Prometheus text, JSONL event logs, and Chrome traces (the one emitter,
:func:`~repro.telemetry.export.chrome_trace`); a regression gate that
diffs a run's snapshot against BENCH_*.json baselines; critical-path
attribution (:mod:`~repro.telemetry.critpath`), an always-on flight
recorder (:mod:`~repro.telemetry.flightrec`), and SLO burn-rate /
epoch-anomaly monitors (:mod:`~repro.telemetry.slo`). See docs/observability.md.
"""

from repro.telemetry.core import Telemetry
from repro.telemetry.critpath import (
    CritPathReport,
    PathStep,
    critical_path,
    critical_path_from_plan,
    publish_critpath,
)
from repro.telemetry.derived import (
    DeviceUtilization,
    device_utilization,
    sample_epoch,
)
from repro.telemetry.export import (
    chrome_trace,
    render_summary,
    to_jsonl,
    to_prometheus,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.flightrec import (
    FlightRecorder,
    bundle_events,
    bundle_spans,
    load_bundle,
)
from repro.telemetry.gate import (
    DEFAULT_RTOL,
    GateResult,
    diff_metrics,
    flatten_numeric,
    gate_against_file,
    load_metrics,
    write_snapshot,
)
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    nearest_rank,
)
from repro.telemetry.slo import (
    SLO,
    EpochAnomaly,
    EpochTimeAnomalyDetector,
    SLOBreach,
    SLOMonitor,
    default_serving_slos,
)
from repro.telemetry.spans import Span, Tracer

__all__ = [
    "Counter",
    "CritPathReport",
    "DEFAULT_RTOL",
    "DeviceUtilization",
    "EpochAnomaly",
    "EpochTimeAnomalyDetector",
    "FlightRecorder",
    "Gauge",
    "GateResult",
    "Histogram",
    "MetricsRegistry",
    "PathStep",
    "SLO",
    "SLOBreach",
    "SLOMonitor",
    "Span",
    "Telemetry",
    "Tracer",
    "bundle_events",
    "bundle_spans",
    "chrome_trace",
    "critical_path",
    "critical_path_from_plan",
    "default_serving_slos",
    "device_utilization",
    "diff_metrics",
    "flatten_numeric",
    "gate_against_file",
    "load_bundle",
    "load_metrics",
    "nearest_rank",
    "publish_critpath",
    "render_summary",
    "sample_epoch",
    "to_jsonl",
    "to_prometheus",
    "write_chrome_trace",
    "write_jsonl",
    "write_snapshot",
]
