"""Training-time remote-embedding cache: bytes and simulated epoch time.

The CaPGNN-style training cache admits high-degree remote tile rows
under a byte budget and serves them locally during serve epochs, so a
rank broadcasting its activation tile only moves the *miss* rows. Every
cached run here uses the trainer's auto budget (half of one epoch's
forward broadcast bytes per rank), which cannot hold every remote row.

* Bytes: forward broadcast bytes per epoch, straight off the engine
  trace (the same events ``repro telemetry`` renders), on scaled arxiv
  and reddit at P=8, staleness 2; gated at >= 30% fewer.
* Time: full-size symbolic reddit on 2 DGX-1 nodes (16 GPUs, the
  ``train-reddit-2node`` bench trainer), where comm is the epoch; a
  serve epoch must take <= 0.7x the uncached epoch in simulated time.
* Accuracy: serving stale embeddings stays within a couple of boundary
  test vertices of the exact run.

Results land in ``BENCH_cache_partition.json``, wired into the
``repro telemetry diff`` regression gate (self-diff asserted here).

Accuracy note: test accuracy is a discrete metric — on these scaled
graphs a single boundary vertex is ~0.1%. Exact rtol=1e-5 parity under
staleness is asserted on a convergent task in
``tests/integration/test_cache_training.py``; here the tolerance is
``ACC_SLACK_VERTICES`` flips of one test vertex.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import MGGCNTrainer, TrainerConfig
from repro.core.partitioner import partition_quality
from repro.datasets import load_dataset
from repro.hardware import dgx1, multi_node_cluster
from repro.nn import GCNModelSpec

pytestmark = pytest.mark.cachebench

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_cache_partition.json"

P = 8
STALENESS = 2
MIN_REDUCTION = 0.30
#: serve-epoch simulated time over the uncached epoch, reddit 2-node.
MAX_SERVE_EPOCH_RATIO = 0.7
TIME_EPOCHS = 6
BYTE_EPOCHS = 6  # two full refresh/serve cycles at cadence 3
ACC_EPOCHS = 180  # converged on both datasets
ACC_SLACK_VERTICES = 2

DATASETS = (("arxiv", 0.02), ("reddit", 0.005))

#: the baseline pins the paper's staged broadcast, the schedule the
#: cache serves (the planner's default may run an allgather instead).
VARIANTS = {
    "baseline": dict(schedule="1d"),
    "cached": dict(cache_staleness_epochs=STALENESS),  # auto budget
}


@pytest.fixture(scope="module")
def setup():
    out = {}
    for name, scale in DATASETS:
        ds = load_dataset(name, scale=scale, learnable=True, seed=7)
        model = GCNModelSpec.build(ds.d0, 16, ds.num_classes, 2)
        out[name] = (ds, model)
    return out


def _trainer(ds, model, record_trace, **flags):
    cfg = TrainerConfig(
        first_layer_skip=False, seed=7, record_trace=record_trace, **flags
    )
    return MGGCNTrainer(ds, model, num_gpus=P, config=cfg)


def _fwd_broadcast_bytes(stats):
    return sum(
        ev.nbytes
        for ev in stats.trace
        if "bcast[" in ev.name and "fwd" in ev.name
    )


def _merge_results(update: dict) -> None:
    data = {}
    if RESULT_PATH.exists():
        data = json.loads(RESULT_PATH.read_text())
    data.update(update)
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_cache_cuts_broadcast_bytes(once, setup):
    """>= 30% fewer forward broadcast bytes/epoch on arxiv AND reddit."""

    def run():
        results = {}
        for ds_name, _scale in DATASETS:
            ds, model = setup[ds_name]
            row = {}
            for name, flags in VARIANTS.items():
                tr = _trainer(ds, model, record_trace=True, **flags)
                per_epoch = [
                    _fwd_broadcast_bytes(tr.train_epoch())
                    for _ in range(BYTE_EPOCHS)
                ]
                row[name] = {
                    "fwd_broadcast_bytes_per_epoch": sum(per_epoch)
                    / BYTE_EPOCHS,
                    "sim_epoch_time_last": tr.train_epoch().epoch_time,
                    "partition_nnz_imbalance": partition_quality(tr.graph)[
                        "nnz_imbalance"
                    ],
                }
                if tr.training_cache is not None:
                    total = tr.training_cache.total
                    row[name]["cache_hit_rate"] = total.hit_rate
                    row[name]["budget_bytes_per_rank"] = (
                        tr.training_cache.policy.budget_bytes
                    )
            base = row["baseline"]["fwd_broadcast_bytes_per_epoch"]
            row["cached"]["byte_reduction"] = (
                1.0 - row["cached"]["fwd_broadcast_bytes_per_epoch"] / base
            )
            results[f"{ds_name}_P{P}"] = row
        return results

    results = once(run)
    _merge_results(
        {
            "config": {
                "datasets": [f"{n}(scale={s:g}, seed=7)" for n, s in DATASETS],
                "gpus": P,
                "staleness_epochs": STALENESS,
                "budget": "auto",
                "byte_epochs": BYTE_EPOCHS,
                "min_reduction": MIN_REDUCTION,
            },
            "broadcast_bytes": results,
        }
    )
    print()
    for point, row in results.items():
        print(
            f"{point:>10}: baseline "
            f"{row['baseline']['fwd_broadcast_bytes_per_epoch'] / 1e6:.2f} MB"
            f" -> cached "
            f"{row['cached']['fwd_broadcast_bytes_per_epoch'] / 1e6:.2f} MB"
            f" (-{row['cached']['byte_reduction'] * 100:.1f}%)"
        )
    for point, row in results.items():
        assert row["cached"]["byte_reduction"] >= MIN_REDUCTION, (
            f"{point}: reduction "
            f"{row['cached']['byte_reduction']:.3f} < {MIN_REDUCTION}"
        )


def test_cache_cuts_serve_epoch_time():
    """Serve epochs <= 0.7x the uncached epoch on symbolic reddit, 2 nodes."""
    ds = load_dataset("reddit", symbolic=True)
    model = GCNModelSpec.paper_model(1, ds.d0, ds.num_classes)
    machine = multi_node_cluster(2, dgx1())

    def epochs(staleness):
        tr = MGGCNTrainer(
            ds, model, machine=machine, num_gpus=16,
            config=TrainerConfig(seed=7, record_trace=False,
                                 cache_staleness_epochs=staleness),
        )
        times = [tr.train_epoch().epoch_time for _ in range(TIME_EPOCHS)]
        budget = tr.training_cache.policy.budget_bytes if staleness else None
        return times, budget

    uncached, _ = epochs(None)
    row = {"uncached_epoch_s": uncached[0]}
    for staleness in (1, 2):
        times, budget = epochs(staleness)
        cadence = staleness + 1
        row[f"staleness{staleness}"] = {
            "budget_bytes_per_rank": budget,
            "refresh_epoch_s": times[0],
            "serve_epoch_s": times[1],
            "mean_epoch_s": sum(times) / TIME_EPOCHS,
            "mean_epoch_ratio": sum(times) / TIME_EPOCHS / uncached[0],
            "serve_epoch_ratio": times[1] / uncached[0],
        }
        # refresh epochs move every byte and cost what an uncached one
        # does (epoch times are clock differences: equal to ~1e-15).
        for i, t in enumerate(times):
            expected = uncached[i] if i % cadence == 0 else times[1]
            assert t == pytest.approx(expected, rel=1e-12)
        assert times[1] <= MAX_SERVE_EPOCH_RATIO * uncached[0], (
            f"staleness {staleness}: serve epoch {times[1]:.4g} s > "
            f"{MAX_SERVE_EPOCH_RATIO} x uncached {uncached[0]:.4g} s"
        )
    _merge_results({
        "epoch_time": {
            "config": {
                "dataset": "reddit (full size, symbolic)",
                "machine": "2 x DGX-1, 16 GPUs",
                "model": "paper model 1",
                "seed": 7,
                "epochs": TIME_EPOCHS,
                "budget": "auto",
                "max_serve_epoch_ratio": MAX_SERVE_EPOCH_RATIO,
            },
            "reddit_2xDGX1_P16": row,
        },
    })
    print()
    for staleness in (1, 2):
        s = row[f"staleness{staleness}"]
        print(
            f"reddit 2-node staleness {staleness}: uncached "
            f"{uncached[0]:.4f} s, serve {s['serve_epoch_s']:.4f} s "
            f"({s['serve_epoch_ratio']:.2f}x), {TIME_EPOCHS}-epoch mean "
            f"{s['mean_epoch_ratio']:.2f}x"
        )


def test_cache_keeps_accuracy(once, setup):
    """Converged accuracy within ACC_SLACK_VERTICES boundary flips, and
    bitwise weight equality at staleness=0."""

    def run():
        results = {}
        for ds_name, _scale in DATASETS:
            ds, model = setup[ds_name]
            num_test = int(ds.test_mask.sum())
            base = _trainer(ds, model, record_trace=False)
            for _ in range(ACC_EPOCHS):
                base.train_epoch()
            cached = _trainer(ds, model, record_trace=False, **VARIANTS["cached"])
            for _ in range(ACC_EPOCHS):
                cached.train_epoch()
            acc_base = base.evaluate("test")
            acc_cached = cached.evaluate("test")
            assert abs(acc_cached - acc_base) <= (
                ACC_SLACK_VERTICES + 0.5
            ) / num_test, (
                f"{ds_name}: stale accuracy {acc_cached:.4f} strayed from "
                f"{acc_base:.4f} by more than {ACC_SLACK_VERTICES} vertices"
            )
            # staleness=0 is write-through: bitwise identical weights.
            exact = _trainer(
                ds, model, record_trace=False, cache_staleness_epochs=0
            )
            plain = _trainer(ds, model, record_trace=False)
            for _ in range(BYTE_EPOCHS):
                exact.train_epoch()
                plain.train_epoch()
            for a, b in zip(plain.get_weights(), exact.get_weights()):
                assert np.array_equal(a, b)
            results[f"{ds_name}_P{P}"] = {
                "accuracy_baseline": acc_base,
                "accuracy_cached": acc_cached,
                "accuracy_abs_delta": abs(acc_cached - acc_base),
                "test_vertices": num_test,
            }
        return results

    results = once(run)
    _merge_results({"accuracy": results})
    print()
    for point, row in results.items():
        print(
            f"{point:>10}: accuracy {row['accuracy_baseline']:.4f} -> "
            f"{row['accuracy_cached']:.4f} with stale serving "
            f"(|delta| {row['accuracy_abs_delta']:.4f})"
        )


def test_bench_passes_regression_gate(once, setup):
    """The emitted BENCH file self-diffs clean through the gate."""
    del setup

    def run():
        from repro.telemetry import diff_metrics, load_metrics

        assert RESULT_PATH.exists(), "cache bench must run first"
        metrics = load_metrics(RESULT_PATH)
        assert any("byte_reduction" in name for name in metrics)
        return diff_metrics(metrics, metrics)

    result = once(run)
    assert result.passed
    assert result.compared > 0
