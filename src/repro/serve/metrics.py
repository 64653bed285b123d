"""SLO metrics for the serving engine: latency tails, throughput, queues.

Latency percentiles use the *nearest-rank* method (``ceil(q/100 * n)``-th
order statistic) — deterministic, interpolation-free, and the convention
SLO dashboards use (a p99 is an actual observed request, not a blend of
two). The implementation lives in :mod:`repro.telemetry.registry` (one
nearest-rank in the codebase); this module keeps its public names as
thin delegates. All times are simulated seconds; the numbers are exactly
reproducible for a given workload seed.

Pass a :class:`~repro.telemetry.MetricsRegistry` to
:class:`ServingMetrics` and the same observations also land in the
shared telemetry namespace (``repro_serving_*``), so serving shows up in
Prometheus snapshots and the regression gate alongside training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.telemetry.registry import Histogram, MetricsRegistry, nearest_rank


def latency_percentile(latencies: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``latencies``."""
    if not latencies:
        raise ConfigurationError("percentile of an empty latency set")
    return nearest_rank(sorted(latencies), q)


@dataclass(frozen=True)
class RequestRecord:
    """The lifecycle timestamps of one served request."""

    request_id: int
    arrival: float
    dispatch: float
    completion: float
    batch_id: int
    batch_size: int

    @property
    def latency(self) -> float:
        """End-to-end: arrival -> logits ready (queue wait + service)."""
        return self.completion - self.arrival

    @property
    def queue_wait(self) -> float:
        return self.dispatch - self.arrival

    @property
    def service_time(self) -> float:
        return self.completion - self.dispatch


@dataclass(frozen=True)
class DegradeEvent:
    """One degraded-mode transition (a device shard was lost)."""

    rank: int
    time: float
    rerouted_vertices: int
    invalidated_entries: int


class ServingMetrics:
    """Accumulates per-request records and batch-level queue samples.

    ``registry`` (optional) is a shared
    :class:`~repro.telemetry.MetricsRegistry`: when given, the latency
    histogram is registered there as ``repro_serving_latency_seconds``
    and request/batch/degrade counters accumulate under
    ``repro_serving_*`` — the same instruments every other subsystem
    reports through. Without it, a private histogram keeps the class
    self-contained.

    :meth:`summary` costs O(1) in the number of requests served:
    ``observe_batch`` keeps running aggregates in record order, and the
    histogram's sorted view only merges in the latencies observed since
    the previous read. A caller may take a summary after every window
    of a long stream without the cost growing with the stream.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.records: List[RequestRecord] = []
        self.degrade_events: List[DegradeEvent] = []
        # running aggregates behind summary(); sums add in record order,
        # the sequence a from-records recomputation would use.
        self._num_batches = 0
        self._first_arrival = math.inf
        self._last_completion = -math.inf
        self._queue_wait_sum = 0.0
        self._batch_size_sum = 0
        self._queue_depth_sum = 0
        self._max_queue_depth = -math.inf
        self.registry = registry
        # summary() math always runs on this instance's own histogram (a
        # registry may be shared by several ServingMetrics); the shared
        # registry instruments mirror the observations when present.
        self._latency_hist = Histogram()
        if registry is not None:
            self._shared_hist = registry.histogram(
                "repro_serving_latency_seconds",
                "End-to-end request latency (arrival to logits ready)",
            )
            self._requests_total = registry.counter(
                "repro_serving_requests_total", "Requests served"
            )
            self._batches_total = registry.counter(
                "repro_serving_batches_total", "Micro-batches executed"
            )
            self._degrades_total = registry.counter(
                "repro_serving_degrades_total", "Degraded-mode transitions"
            )
        else:
            self._shared_hist = None
            self._requests_total = None
            self._batches_total = None
            self._degrades_total = None

    def observe_batch(
        self,
        batch,
        completion: float,
    ) -> None:
        """Record one executed :class:`~repro.serve.batcher.MicroBatch`."""
        if completion < batch.dispatch_time:
            raise ConfigurationError(
                f"batch {batch.batch_id}: completion {completion} before "
                f"dispatch {batch.dispatch_time}"
            )
        self._num_batches += 1
        self._batch_size_sum += batch.size
        self._queue_depth_sum += batch.queue_depth
        if batch.queue_depth > self._max_queue_depth:
            self._max_queue_depth = batch.queue_depth
        if self._batches_total is not None:
            self._batches_total.inc()
        for request in batch.requests:
            record = RequestRecord(
                request_id=request.request_id,
                arrival=request.arrival,
                dispatch=batch.dispatch_time,
                completion=completion,
                batch_id=batch.batch_id,
                batch_size=batch.size,
            )
            self.records.append(record)
            if record.arrival < self._first_arrival:
                self._first_arrival = record.arrival
            if record.completion > self._last_completion:
                self._last_completion = record.completion
            self._queue_wait_sum += record.queue_wait
            self._latency_hist.observe(record.latency)
            if self._shared_hist is not None:
                self._shared_hist.observe(record.latency)
            if self._requests_total is not None:
                self._requests_total.inc()
        if self.registry is not None:
            self.registry.gauge(
                "repro_serving_queue_depth", "Queue depth at last dispatch"
            ).set(batch.queue_depth)

    def observe_degrade(self, event: DegradeEvent) -> None:
        self.degrade_events.append(event)
        if self._degrades_total is not None:
            self._degrades_total.inc()

    # -- aggregation ----------------------------------------------------------

    @property
    def num_requests(self) -> int:
        return len(self.records)

    def latencies(self) -> List[float]:
        return [r.latency for r in self.records]

    def summary(self, cache_stats=None) -> Dict[str, float]:
        """The SLO scoreboard: tails, throughput, queues, cache efficacy.

        ``cache_stats`` is an optional
        :class:`~repro.cache.lru.CacheStats` whose hit rate is folded
        into the report (the engine passes its cache's).
        """
        if not self.records:
            raise ConfigurationError("summary() before any request was served")
        hist = self._latency_hist
        n = len(self.records)
        makespan = self._last_completion - self._first_arrival
        out: Dict[str, float] = {
            "num_requests": float(n),
            "num_batches": float(self._num_batches),
            "makespan": makespan,
            "throughput_rps": n / makespan if makespan > 0 else math.inf,
            "latency_mean": hist.sum / n,
            "latency_p50": hist.percentile(50),
            "latency_p95": hist.percentile(95),
            "latency_p99": hist.percentile(99),
            "latency_max": hist.max,
            "queue_wait_mean": self._queue_wait_sum / n,
            "mean_batch_size": self._batch_size_sum / self._num_batches,
            "mean_queue_depth": self._queue_depth_sum / self._num_batches,
            "max_queue_depth": float(self._max_queue_depth),
            "degrade_events": float(len(self.degrade_events)),
        }
        if cache_stats is not None:
            out["cache_hit_rate"] = cache_stats.hit_rate
            out["cache_evictions"] = float(cache_stats.evictions)
        return out
