"""Vectorised interval arithmetic over [start, end) span sets.

Backs :func:`repro.telemetry.derived.device_utilization`, which
reduces an execution trace to per-device busy time and exposed
(un-overlapped) communication: questions about unions and intersections
of time intervals. The NumPy formulation keeps per-epoch telemetry
sampling cheap enough to run every epoch (the O(n) Python-loop versions
showed up in the instrumentation-overhead budget).

Touching intervals merge (``start <= previous end``), matching the
historical list-based helpers, and zero-duration spans are legal inputs
contributing zero measure.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def merge_spans(
    starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Union of possibly-overlapping intervals as sorted disjoint spans.

    Returns ``(ms, me)`` with ``ms`` strictly increasing and
    ``me[i] < ms[i+1]`` (touching inputs are coalesced).
    """
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    if starts.size == 0:
        return starts.reshape(0), ends.reshape(0)
    order = np.argsort(starts, kind="stable")
    s = starts[order]
    e = ends[order]
    cummax_end = np.maximum.accumulate(e)
    first = np.empty(s.size, dtype=bool)
    first[0] = True
    # a new merged group begins where the next start lies strictly past
    # everything seen so far (touching spans coalesce, as <= merges).
    first[1:] = s[1:] > cummax_end[:-1]
    head = np.flatnonzero(first)
    tail = np.append(head[1:], s.size) - 1
    return s[head], cummax_end[tail]


def union_measure(starts: np.ndarray, ends: np.ndarray) -> float:
    """Total measure of the union of the given intervals."""
    ms, me = merge_spans(starts, ends)
    return float((me - ms).sum())


def _measure_before(ms: np.ndarray, me: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Measure of the merged span set intersected with ``(-inf, x)``.

    ``(ms, me)`` must come from :func:`merge_spans`. Vectorised over
    ``x``: at most the last started interval can be cut by ``x``.
    """
    prefix = np.concatenate(([0.0], np.cumsum(me - ms)))
    j = np.searchsorted(ms, x, side="right")
    overhang = np.where(
        j > 0, np.clip(me[np.maximum(j - 1, 0)] - x, 0.0, None), 0.0
    )
    return prefix[j] - overhang


def intersection_measure(
    a_starts: np.ndarray,
    a_ends: np.ndarray,
    b_starts: np.ndarray,
    b_ends: np.ndarray,
) -> float:
    """Measure of ``union(a) ∩ union(b)``."""
    ams, ame = merge_spans(a_starts, a_ends)
    bms, bme = merge_spans(b_starts, b_ends)
    if ams.size == 0 or bms.size == 0:
        return 0.0
    return float(
        (_measure_before(bms, bme, ame) - _measure_before(bms, bme, ams)).sum()
    )

