"""Property tests: the incremental serving summary against a from-records oracle.

:func:`summary_from_records` is the straightforward summary — it walks
every :class:`~repro.serve.metrics.RequestRecord` with ``min``/``max``
and sequential sums and sorts the histogram's held values afresh on
every call. :meth:`ServingMetrics.summary` keeps running aggregates and
a merge-on-read sorted view instead; every field must be bitwise equal
to the oracle's after any interleaving of batches, degrade events and
summary reads, including once the latency histogram has degraded to its
reservoir.
"""

import math
import random
from types import SimpleNamespace
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import CacheStats
from repro.serve.metrics import DegradeEvent, RequestRecord, ServingMetrics
from repro.telemetry.registry import Histogram, MetricsRegistry, nearest_rank

pytestmark = pytest.mark.serving

QUANTILES = (1, 25, 50, 95, 99, 100)


def sequential_sum(values) -> float:
    """``0 + v0 + v1 + ...`` left to right (builtin ``sum`` of floats is
    compensated from Python 3.12 on, so it cannot stand in for this)."""
    total = 0
    for v in values:
        total = total + v
    return total


def summary_from_records(
    records: List[RequestRecord],
    batch_sizes: List[int],
    queue_depths: List[int],
    degrade_events: List[DegradeEvent],
    hist: Histogram,
    cache_stats=None,
) -> Dict[str, float]:
    """The from-records summary the incremental one replaced."""
    ordered = sorted(hist.values())
    first_arrival = min(r.arrival for r in records)
    last_completion = max(r.completion for r in records)
    makespan = last_completion - first_arrival
    out = {
        "num_requests": float(len(records)),
        "num_batches": float(len(batch_sizes)),
        "makespan": makespan,
        "throughput_rps": (
            len(records) / makespan if makespan > 0 else math.inf
        ),
        "latency_mean": hist.sum / len(records),
        "latency_p50": nearest_rank(ordered, 50),
        "latency_p95": nearest_rank(ordered, 95),
        "latency_p99": nearest_rank(ordered, 99),
        "latency_max": hist.max,
        "queue_wait_mean": (
            sequential_sum(r.queue_wait for r in records) / len(records)
        ),
        "mean_batch_size": sequential_sum(batch_sizes) / len(batch_sizes),
        "mean_queue_depth": sequential_sum(queue_depths) / len(queue_depths),
        "max_queue_depth": float(max(queue_depths)),
        "degrade_events": float(len(degrade_events)),
    }
    if cache_stats is not None:
        out["cache_hit_rate"] = cache_stats.hit_rate
        out["cache_evictions"] = float(cache_stats.evictions)
    return out


def assert_bitwise(got: Dict[str, float], want: Dict[str, float]) -> None:
    assert got.keys() == want.keys()
    for key in want:
        assert float(got[key]).hex() == float(want[key]).hex(), key


def assert_percentiles_exact(hist: Histogram) -> None:
    if hist.count:
        ordered = sorted(hist.values())
        for q in QUANTILES:
            assert hist.percentile(q) == nearest_rank(ordered, q)


class Driver:
    """Feeds one :class:`ServingMetrics` and the oracle's inputs alike."""

    def __init__(self, hist: Histogram, registry=None):
        self.metrics = ServingMetrics(registry=registry)
        self.metrics._latency_hist = hist
        self.hist = hist
        self.batch_sizes: List[int] = []
        self.queue_depths: List[int] = []
        self.next_id = 0
        self.stats = CacheStats(hits=7, misses=3, evictions=2)

    def batch(self, arrivals, wait, service, queue_depth) -> None:
        dispatch = max(arrivals) + wait
        requests = []
        for arrival in arrivals:
            requests.append(
                SimpleNamespace(request_id=self.next_id, arrival=arrival)
            )
            self.next_id += 1
        batch = SimpleNamespace(
            batch_id=len(self.batch_sizes), dispatch_time=dispatch,
            queue_depth=queue_depth, size=len(requests), requests=requests,
        )
        self.metrics.observe_batch(batch, dispatch + service)
        self.batch_sizes.append(batch.size)
        self.queue_depths.append(queue_depth)

    def degrade(self, time: float) -> None:
        self.metrics.observe_degrade(DegradeEvent(
            rank=0, time=time, rerouted_vertices=1, invalidated_entries=0))

    def check(self, with_stats: bool) -> None:
        assert_percentiles_exact(self.hist)
        if not self.metrics.records:
            return
        stats = self.stats if with_stats else None
        assert_bitwise(
            self.metrics.summary(cache_stats=stats),
            summary_from_records(
                self.metrics.records, self.batch_sizes, self.queue_depths,
                self.metrics.degrade_events, self.hist, stats,
            ),
        )
        assert_percentiles_exact(self.hist)


# few distinct times, so ties (equal latencies, arrivals, completions)
# are common; plus arbitrary ones.
times = st.one_of(
    st.sampled_from([0.0, 1e-3, 0.1, 0.25, 3.0]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)

batch_op = st.tuples(
    st.just("batch"),
    st.lists(times, min_size=1, max_size=8),
    times,
    times,
    st.integers(min_value=0, max_value=40),
)
degrade_op = st.tuples(st.just("degrade"), times)
summary_op = st.tuples(st.just("summary"), st.booleans())
ops = st.lists(st.one_of(batch_op, batch_op, degrade_op, summary_op),
               max_size=60)


def run_ops(driver: Driver, operations) -> None:
    for op in operations:
        if op[0] == "batch":
            driver.batch(*op[1:])
        elif op[0] == "degrade":
            driver.degrade(op[1])
        else:
            driver.check(with_stats=op[1])
    driver.check(with_stats=True)


@settings(max_examples=200, deadline=None)
@given(operations=ops, shared=st.booleans())
def test_summary_matches_oracle_exact_histogram(operations, shared):
    registry = MetricsRegistry() if shared else None
    run_ops(Driver(Histogram(), registry), operations)


@settings(max_examples=200, deadline=None)
@given(operations=ops)
def test_summary_matches_oracle_through_reservoir(operations):
    # max_exact small enough that most runs degrade to the reservoir and
    # then keep replacing sampled values.
    run_ops(Driver(Histogram(max_exact=12, reservoir_size=5)), operations)


@pytest.mark.parametrize("seed", range(2))
def test_long_seeded_runs(seed):
    rng = random.Random(seed)
    for max_exact, reservoir in ((65536, 4096), (300, 40)):
        driver = Driver(Histogram(max_exact=max_exact,
                                  reservoir_size=reservoir))
        clock = 0.0
        for _ in range(1200):
            clock += rng.expovariate(2000.0)
            kind = rng.random()
            if kind < 0.8:
                arrivals = [clock - rng.random() * 1e-3
                            for _ in range(rng.randint(1, 8))]
                driver.batch(arrivals, rng.choice([0.0, rng.random() * 1e-3]),
                             rng.random() * 2e-3, rng.randint(0, 30))
            elif kind < 0.82:
                driver.degrade(clock)
            else:
                driver.check(with_stats=kind < 0.9)
        driver.check(with_stats=True)
        assert driver.hist.exact == (max_exact == 65536)


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(
        st.one_of(times.map(lambda v: ("observe", v)),
                  st.sampled_from(QUANTILES).map(lambda q: ("read", q))),
        max_size=120,
    ),
    bounds=st.sampled_from([(65536, 4096), (16, 4), (8, 8), (30, 1)]),
)
def test_histogram_percentile_merge_on_read(steps, bounds):
    """After every observe or read, each percentile equals the
    nearest rank of a fresh sort of the held values."""
    hist = Histogram(max_exact=bounds[0], reservoir_size=bounds[1])
    for kind, value in steps:
        if kind == "observe":
            hist.observe(value)
        elif hist.count:
            hist.percentile(value)
        assert_percentiles_exact(hist)
