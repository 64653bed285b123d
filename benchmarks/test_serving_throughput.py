"""Online serving: throughput / tail-latency / cache-efficacy benchmark.

Drives the serving engine (:mod:`repro.serve`) with seeded Poisson
request streams at several arrival rates, cold-cache vs warm-cache, and
emits ``BENCH_serving.json`` with per-rate throughput, p50/p99 latency,
and cache hit-rate. "Cold" means the embedding cache is enabled but
empty at time zero (it fills while serving); "warm" means
:meth:`ServingEngine.warm_cache` replayed a captured full-batch forward
first. The headline assertion is the one the issue demands: at every
arrival rate the warm-cache p99 is *strictly* below the cold-cache p99
— the layered cache must buy tail latency, not just average latency.

The default run covers three rates; the ``serving_sweep``-marked test
extends the sweep past saturation (deselected by default, run with
``-m serving_sweep``) and gates that the batcher answers load: p99 rises
with the arrival rate, and batches coalesce at the top rate.
"""

import json
from pathlib import Path

import pytest

from repro.datasets import load_dataset
from repro.hardware import dgx_a100
from repro.nn import GCNModelSpec
from repro.nn.init import init_weights
from repro.serve import ServingConfig, ServingEngine, poisson_workload

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"
NUM_GPUS = 4
NUM_REQUESTS = 240
SKEW = 1.2  # Zipf-over-degree-rank: the hot-vertex regime caches target
RATES = (1000.0, 3000.0, 9000.0)
#: up to 2M rps: the cold engine saturates near 0.5M rps and the warm
#: one runs full batches of ``max_batch_size`` at the top rate.
SWEEP_RATES = (
    500.0, 1000.0, 2000.0, 3000.0, 6000.0, 9000.0, 18000.0,
    50_000.0, 200_000.0, 1_000_000.0, 2_000_000.0,
)
#: p99 at the top sweep rate over p99 at the lowest, at least. Measured
#: 15.5x warm (0.0040 -> 0.0622 ms) and 16.3x cold (0.0228 -> 0.372 ms).
MIN_P99_RISE = 10.0


@pytest.fixture(scope="module")
def setup():
    ds = load_dataset("reddit", scale=0.002, learnable=True, seed=11)
    spec = GCNModelSpec.build(ds.d0, 32, ds.num_classes, 3)
    weights = init_weights(spec.layer_dims, seed=0)
    return ds, spec, weights


def _engine(ds, spec, weights):
    return ServingEngine(
        ds,
        weights,
        spec,
        config=ServingConfig(
            machine=dgx_a100(),
            num_gpus=NUM_GPUS,
            cache_entries=4 * ds.n,
            num_pinned=max(ds.n // 50, 8),
            max_batch_size=8,
            record_trace=False,
        ),
    )


def _serve_at(ds, spec, weights, rate, warm):
    engine = _engine(ds, spec, weights)
    if warm:
        engine.warm_cache()
    requests = poisson_workload(
        ds, NUM_REQUESTS, rate, skew=SKEW, seed=int(rate)
    )
    summary = engine.serve(requests).summary
    return {
        "throughput_rps": summary["throughput_rps"],
        "latency_p50_ms": summary["latency_p50"] * 1e3,
        "latency_p99_ms": summary["latency_p99"] * 1e3,
        "cache_hit_rate": summary["cache_hit_rate"],
        "mean_batch_size": summary["mean_batch_size"],
    }


def _sweep(ds, spec, weights, rates):
    rows = []
    for rate in rates:
        cold = _serve_at(ds, spec, weights, rate, warm=False)
        warm = _serve_at(ds, spec, weights, rate, warm=True)
        rows.append({"arrival_rate_rps": rate, "cold": cold, "warm": warm})
    return rows


def _merge_results(update: dict) -> None:
    data = {}
    if RESULT_PATH.exists():
        data = json.loads(RESULT_PATH.read_text())
    data.update(update)
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _print_rows(rows):
    print()
    for row in rows:
        cold, warm = row["cold"], row["warm"]
        print(
            f"rate {row['arrival_rate_rps']:>7.0f} rps: "
            f"p99 cold {cold['latency_p99_ms']:.3f} ms -> warm "
            f"{warm['latency_p99_ms']:.3f} ms, "
            f"throughput {warm['throughput_rps']:.0f} rps, "
            f"hit rate {cold['cache_hit_rate']:.2f} -> "
            f"{warm['cache_hit_rate']:.2f}"
        )


def _assert_warm_beats_cold(rows):
    for row in rows:
        assert (
            row["warm"]["latency_p99_ms"] < row["cold"]["latency_p99_ms"]
        ), (
            f"warm-cache p99 not below cold at "
            f"{row['arrival_rate_rps']:.0f} rps"
        )
        assert row["warm"]["cache_hit_rate"] > row["cold"]["cache_hit_rate"]


def test_serving_throughput(once, setup):
    """Warm-cache p99 strictly beats cold-cache p99 at every rate."""
    ds, spec, weights = setup
    rows = once(_sweep, ds, spec, weights, RATES)
    _merge_results(
        {
            "config": {
                "dataset": f"{ds.name}(scale=0.002, seed=11)",
                "num_gpus": NUM_GPUS,
                "layers": 3,
                "hidden": 32,
                "num_requests": NUM_REQUESTS,
                "skew": SKEW,
            },
            "rates": rows,
        }
    )
    _print_rows(rows)
    _assert_warm_beats_cold(rows)


def _assert_load_shows(rows):
    """Tail latency tracks load, and the batcher coalesces under it."""
    low, top = rows[0], rows[-1]
    for mode in ("cold", "warm"):
        rise = top[mode]["latency_p99_ms"] / low[mode]["latency_p99_ms"]
        assert rise >= MIN_P99_RISE, (
            f"{mode} p99 rose only {rise:.1f}x from "
            f"{low['arrival_rate_rps']:.0f} to {top['arrival_rate_rps']:.0f}"
            f" rps; gate is >= {MIN_P99_RISE}x"
        )
        assert top[mode]["mean_batch_size"] > 1.0, (
            f"{mode} batches did not coalesce at "
            f"{top['arrival_rate_rps']:.0f} rps"
        )
    # warm batches are all hits, so their service time is flat and p99
    # moves only with queueing: it must never fall as the rate rises.
    warm_p99 = [row["warm"]["latency_p99_ms"] for row in rows]
    assert warm_p99 == sorted(warm_p99), (
        f"warm p99 fell as the rate rose: {warm_p99}"
    )


@pytest.mark.serving_sweep
def test_serving_rate_sweep(once, setup):
    """Arrival-rate sweep past saturation (deselected by default)."""
    ds, spec, weights = setup
    rows = once(_sweep, ds, spec, weights, SWEEP_RATES)
    _merge_results({"sweep_rates": rows})
    _print_rows(rows)
    _assert_warm_beats_cold(rows)
    _assert_load_shows(rows)
