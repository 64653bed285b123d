"""Epoch-graph capture & replay — the sim-graph analogue of CUDA Graphs.

Full-batch training repeats a bit-identical op DAG every epoch; this
package captures one eagerly-scheduled epoch into an immutable
:class:`ExecutionPlan` and replays later epochs with near-zero
scheduling overhead (closures in captured order + vectorized timeline
arithmetic + bulk trace regeneration). See ``docs/performance.md`` for
the lifecycle and invalidation rules.
"""

from repro.plan.capture import PlanCapture
from repro.plan.plan import (
    ExecutionPlan,
    PlanStats,
    ReplayResult,
    bucket_levels,
)

__all__ = [
    "ExecutionPlan",
    "PlanCapture",
    "PlanStats",
    "ReplayResult",
    "bucket_levels",
]
