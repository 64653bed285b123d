"""Epoch capture & replay: driver wall-clock speedup and capture cost.

The sim-graph plan (:mod:`repro.plan`) is the simulator's analogue of
CUDA Graphs: every trainer captures its first epoch, later epochs replay
the recorded plan — same numerics, same simulated clock, but without
re-running the Python scheduling layer (cost model, shape checks,
rendezvous validation, closure construction). This file measures the
*host* wall-clock of the driver, not simulated seconds, against epochs
run through ``MGGCNTrainer._train_epoch_eager`` — the batched,
stage-planned eager path every non-replayed epoch takes. The
configuration is where the eager epoch is dominated by scheduling:
full-size symbolic reddit (no numerics) on 2 DGX-1 nodes, 16 GPUs,
as in ``bench/run.py``'s train-reddit-2node. It emits
``BENCH_epoch_replay.json`` with:

* eager vs replayed per-epoch wall-clock (median) on the serialised and
  overlapped schedules, with a >= 2x speedup gate;
* the capture epoch against an eager first epoch (each pair on fresh
  trainers, alternating which runs first), with a <= 1.3x gate on the
  overlapped schedule — the default, which train-reddit-2node runs —
  and the epoch count at which the capture's extra cost is repaid. The
  serialised schedule's ratio is recorded, not gated: its eager epoch
  is cheaper while its capture records the same ops;
* proof that fault-plan and elastic-recovery runs fall back to eager
  scheduling (replay must never mask a fault).
"""

import json
import math
import statistics
import time
from pathlib import Path

import pytest

from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.hardware import dgx1, multi_node_cluster
from repro.nn import GCNModelSpec
from repro.resilience import (
    DeviceFailure,
    FaultInjector,
    FaultPlan,
    StragglerSlowdown,
)
from repro.resilience.recovery import ElasticTrainer

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_epoch_replay.json"
NUM_GPUS = 16
EPOCHS = 15
#: (capture, eager) pairs of fresh trainers for the first-epoch ratio.
FIRST_EPOCHS = 31
MIN_SPEEDUP = 2.0
MAX_CAPTURE_RATIO = 1.3


@pytest.fixture(scope="module")
def setup():
    ds = load_dataset("reddit", symbolic=True)
    model = GCNModelSpec.paper_model(1, ds.d0, ds.num_classes)
    return ds, model, multi_node_cluster(2, dgx1())


def _trainer(setup, overlap: bool, eager: bool) -> MGGCNTrainer:
    ds, model, machine = setup
    trainer = MGGCNTrainer(
        ds, model, machine=machine, num_gpus=NUM_GPUS,
        config=TrainerConfig(overlap=overlap, record_trace=False, seed=7,
                             schedule="1d"),
    )
    if eager:
        # every epoch through _train_epoch_eager, never captured
        trainer._capture_allowed = lambda: False
    return trainer


def _epoch_walltimes(trainer, epochs: int):
    times = []
    for _ in range(epochs):
        t0 = time.perf_counter()
        trainer.train_epoch()
        times.append(time.perf_counter() - t0)
    return times


def _first_epochs(setup, overlap: bool):
    """Host seconds of capture epochs and of eager first epochs, in
    pairs on fresh trainers, alternating which of a pair goes first."""
    times = {True: [], False: []}
    for i in range(FIRST_EPOCHS):
        for eager in ((True, False) if i % 2 else (False, True)):
            trainer = _trainer(setup, overlap, eager)
            times[eager].extend(_epoch_walltimes(trainer, 1))
    return times[False], times[True]


def _merge_results(update: dict) -> None:
    data = {}
    if RESULT_PATH.exists():
        data = json.loads(RESULT_PATH.read_text())
    data.update(update)
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def test_replay_speedup(once, setup):
    """Replayed epochs beat eager epochs >= 2x; capture costs <= 1.3x an
    eager first epoch."""

    def run():
        _trainer(setup, True, False).train_epoch()  # warm lazy imports
        results = {}
        for overlap in (False, True):
            key = "overlapped" if overlap else "serialised"
            capture_times, first_times = _first_epochs(setup, overlap)
            eager = _trainer(setup, overlap, eager=True)
            replay = _trainer(setup, overlap, eager=False)
            eager.train_epoch()
            replay.train_epoch()  # capture
            eager_times = _epoch_walltimes(eager, EPOCHS)
            replay_times = _epoch_walltimes(replay, EPOCHS)

            assert replay.plan_stats.captures == 1
            assert replay.plan_stats.replays == EPOCHS
            assert eager.plan_stats.eager_epochs == EPOCHS + 1
            # replay is a pure driver optimisation: simulated results
            # are bit-identical to eager
            assert eager.ctx.elapsed() == replay.ctx.elapsed()

            eager_med = statistics.median(eager_times)
            replay_med = statistics.median(replay_times)
            capture_med = statistics.median(capture_times)
            first_med = statistics.median(first_times)
            # per-pair ratios cancel host-speed drift across the run
            capture_ratio = statistics.median(
                c / e for c, e in zip(capture_times, first_times)
            )
            saving = eager_med - replay_med
            extra = max(capture_med - first_med, 0.0)
            results[key] = {
                "eager_epoch_ms": eager_med * 1e3,
                "replay_epoch_ms": replay_med * 1e3,
                "speedup": eager_med / replay_med,
                "eager_first_epoch_ms": first_med * 1e3,
                "capture_epoch_ms": capture_med * 1e3,
                "capture_ratio": capture_ratio,
                "amortization_epochs": (
                    math.ceil(extra / saving) if saving > 0 else None
                ),
                "epochs_measured": EPOCHS,
                "first_epochs_measured": FIRST_EPOCHS,
            }
        return results

    results = once(run)
    _merge_results(
        {
            "config": {
                "dataset": "reddit (symbolic, paper model 1)",
                "machine": "2x DGX-1 over a 25 GB/s NIC",
                "num_gpus": NUM_GPUS,
                "eager_path": "MGGCNTrainer._train_epoch_eager",
                "min_speedup": MIN_SPEEDUP,
                "max_capture_ratio": MAX_CAPTURE_RATIO,
                "capture_ratio_gated_on": "overlapped",
            },
            "schedules": results,
        }
    )
    print()
    for key, row in results.items():
        print(
            f"{key:>10}: eager {row['eager_epoch_ms']:.2f} ms -> replay "
            f"{row['replay_epoch_ms']:.3f} ms ({row['speedup']:.1f}x); "
            f"capture {row['capture_epoch_ms']:.2f} ms vs eager first "
            f"{row['eager_first_epoch_ms']:.2f} ms "
            f"(median pair ratio {row['capture_ratio']:.2f}x, repaid after "
            f"{row['amortization_epochs']} epochs)"
        )
    for key, row in results.items():
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{key} replay speedup {row['speedup']:.2f}x < {MIN_SPEEDUP}x"
        )
    ratio = results["overlapped"]["capture_ratio"]
    assert ratio <= MAX_CAPTURE_RATIO, (
        f"capture epoch {ratio:.2f}x an eager first epoch > "
        f"{MAX_CAPTURE_RATIO}x"
    )


def test_fault_and_elastic_runs_fall_back_to_eager(once):
    """Capture never hides a fault: faulty runs schedule eagerly."""
    ds = load_dataset("cora", scale=0.1, learnable=True, seed=7)
    model = GCNModelSpec.build(ds.d0, 8, ds.num_classes, 4)
    num_gpus = 8

    def run():
        # an active fault plan disables capture outright
        straggler = MGGCNTrainer(
            ds,
            model,
            num_gpus=num_gpus,
            config=TrainerConfig(
                record_trace=False,
                fault_injector=FaultInjector(
                    FaultPlan(
                        stragglers=(
                            StragglerSlowdown(rank=0, factor=2.0, start=0.0),
                        )
                    )
                ),
            ),
        )
        straggler.fit(4)

        # elastic recovery: eager until the failure, recapture after
        probe = ElasticTrainer(
            ds, model, num_gpus=num_gpus, plan=FaultPlan()
        )
        fail_at = 0.5 * sum(s.epoch_time for s in probe.fit(2))
        elastic = ElasticTrainer(
            ds,
            model,
            num_gpus=num_gpus,
            plan=FaultPlan(
                device_failures=(DeviceFailure(rank=1, time=fail_at),)
            ),
        )
        elastic.fit(6)
        return straggler, elastic

    straggler, elastic = once(run)
    assert straggler.plan_stats.captures == 0
    assert straggler.plan_stats.replays == 0
    assert straggler.plan_stats.eager_epochs == 4
    assert len(elastic.recovery_log) == 1
    assert elastic.num_gpus == num_gpus - 1
    assert elastic.plan_stats.captures == 1  # recaptured post-recovery
    assert elastic.plan_stats.replays >= 1
    _merge_results(
        {
            "fallback": {
                "fault_plan": {
                    "captures": straggler.plan_stats.captures,
                    "replays": straggler.plan_stats.replays,
                    "eager_epochs": straggler.plan_stats.eager_epochs,
                },
                "elastic": {
                    "recoveries": len(elastic.recovery_log),
                    "post_recovery_captures": elastic.plan_stats.captures,
                    "post_recovery_replays": elastic.plan_stats.replays,
                },
            }
        }
    )
    print(
        "\nfault-plan run: 4/4 epochs eager (no capture); elastic run: "
        "recovered once, recaptured on "
        f"{elastic.num_gpus} GPUs, {elastic.plan_stats.replays} replays"
    )
