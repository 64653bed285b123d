"""Paper-figure helpers: op breakdowns, stage timelines, memory sweeps.

Per-device utilisation and Chrome-trace export live in
:mod:`repro.telemetry` (``device_utilization``, ``chrome_trace``).
"""

from repro.profiling.breakdown import runtime_breakdown, breakdown_table
from repro.profiling.timeline import (
    StageSpan,
    extract_stage_timeline,
    render_timeline,
    spmm_span,
)
from repro.profiling.memory import max_layers_that_fit, memory_for_layers

__all__ = [
    "runtime_breakdown",
    "breakdown_table",
    "StageSpan",
    "extract_stage_timeline",
    "render_timeline",
    "spmm_span",
    "max_layers_that_fit",
    "memory_for_layers",
]
