"""Dynamic graphs: mutation streams, incremental CSR, and live serving.

The static pipeline froze the graph at load time; this package makes it
a moving target. A seeded :class:`MutationStream` (Poisson or bursty
arrivals, Zipf-skewed endpoints — the write-side mirror of
:mod:`repro.serve.workload`) feeds a :class:`DynamicGraph`, which
buffers deltas and merges them into the CSR pair at *generation*
boundaries, renormalising only the touched rows yet staying
bit-identical to a from-scratch rebuild. Around each boundary:

* :func:`l_hop_affected` computes the exact per-layer stale vertex
  sets so caches evict deltas instead of flushing;
* :class:`DynamicServingEngine` drives a live
  :class:`~repro.serve.server.ServingEngine` through the boundary —
  mixed query/mutation traffic on one telemetry timeline.
"""

from repro.dynamic.engine import (
    DynamicServingEngine,
    DynamicServingResult,
    GenerationStats,
)
from repro.dynamic.graph import CommitResult, DynamicGraph
from repro.dynamic.invalidate import l_hop_affected
from repro.dynamic.mutation import (
    MutationBatch,
    MutationStream,
    bursty_mutations,
    poisson_mutations,
)

__all__ = [
    "CommitResult",
    "DynamicGraph",
    "DynamicServingEngine",
    "DynamicServingResult",
    "GenerationStats",
    "MutationBatch",
    "MutationStream",
    "bursty_mutations",
    "l_hop_affected",
    "poisson_mutations",
]
