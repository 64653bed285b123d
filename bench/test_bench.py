"""Self-tests of the benchmark: every check fails on a perturbed input.

    PYTHONPATH=src python3 -m pytest bench/
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import compare  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, calibrate  # noqa: E402

from repro.core import MGGCNTrainer, TrainerConfig  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.dynamic import (  # noqa: E402
    DynamicGraph, DynamicServingEngine, poisson_mutations)
from repro.hardware import dgx1  # noqa: E402
from repro.nn import GCNModelSpec, ReferenceGCN  # noqa: E402
from repro.serve import (  # noqa: E402
    ServingConfig, ServingEngine, poisson_workload)
from repro.nn.init import init_weights  # noqa: E402
from repro.telemetry import critical_path  # noqa: E402


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("cora", scale=0.1, learnable=True, seed=1)


@pytest.fixture(scope="module")
def trained(dataset):
    """A 4-GPU trainer and ReferenceGCN after the checks' epoch count."""
    model = GCNModelSpec.build(dataset.d0, 16, dataset.num_classes, 2)
    trainer = MGGCNTrainer(dataset, model, machine=dgx1(), num_gpus=4,
                           config=TrainerConfig(seed=3))
    ref = ReferenceGCN(dataset, model, seed=3,
                       first_layer_skip=trainer.config.first_layer_skip)
    epochs = []
    for _ in range(workloads.REFERENCE_EPOCHS):
        epochs.append(trainer.train_epoch())
        ref.train_epoch()
    return trainer, ref, epochs


def test_weights_check_fails_on_perturbed_weights(trained):
    trainer, ref, _ = trained
    weights = trainer.get_weights()
    assert checks.check_weights_match(weights, ref.weights) == []
    weights[1][0, 0] += 1e-2
    assert checks.check_weights_match(weights, ref.weights)


def test_loss_check_fails_on_a_nan_loss(trained):
    losses = [s.loss for s in trained[2]]
    assert checks.check_finite_losses(losses) == []
    assert len(checks.check_finite_losses(losses + [float("nan"), None])) == 2


def test_constant_epoch_check_fails_on_a_perturbed_epoch(trained):
    times = [s.epoch_time for s in trained[2]]
    assert checks.check_constant_epochs(times) == []
    assert checks.check_constant_epochs(times + [times[0] * (1 + 1e-6)])


def test_tiling_check_fails_on_a_truncated_trace(trained):
    last = trained[2][-1]
    report = critical_path(last.trace)
    assert checks.check_path_tiles_epoch(report.path_seconds,
                                         last.epoch_time) == []
    ordered = sorted(last.trace, key=lambda ev: ev.end)
    truncated = critical_path(ordered[: len(ordered) // 2])
    assert checks.check_path_tiles_epoch(truncated.path_seconds,
                                         last.epoch_time)


def test_logits_check_fails_on_perturbed_logits():
    logits = {0: np.zeros((1, 3), np.float32), 1: np.ones((1, 3), np.float32)}
    assert checks.check_logits(logits, [0, 1], 3) == []
    bad = dict(logits)
    bad[1] = np.array([[0.0, np.inf, 1.0]], np.float32)
    assert checks.check_logits(bad, [0, 1], 3)
    assert checks.check_logits({0: np.zeros((2, 3))}, [0, 1], 3)


def test_bitwise_check_fails_one_ulp_away(dataset):
    spec = GCNModelSpec.build(dataset.d0, 16, dataset.num_classes, 2)
    weights = init_weights(spec.layer_dims, seed=3)
    config = ServingConfig(cache_entries=2 * dataset.n)
    probe = np.arange(0, dataset.n, 7)
    served = ServingEngine(dataset, weights, spec, config=config).query(probe)
    cold = ServingEngine(dataset, weights, spec, config=config).query(probe)
    assert checks.check_bitwise(served, cold) == []
    served[3, 1] = np.nextafter(served[3, 1], np.inf)
    assert checks.check_bitwise(served, cold)


def test_tracer_self_times_add_up_and_restore():
    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.002), "inner", "inner")

    def outer_body():
        inner()
        time.sleep(0.002)

    outer = tracer.wrap(outer_body, "outer", "outer")
    with tracer.span("root"):
        outer()
        inner()
    assert tracer.calls == {"inner": 2, "outer": 1, "bench": 1}
    spans = {s[1]: s for s in tracer.spans}
    root = spans["root"]
    # self times tile the root span: nothing counted twice or lost
    assert sum(tracer.self_seconds.values()) == pytest.approx(root[3] - root[2])
    assert tracer.self_seconds["inner"] >= 0.004
    assert tracer.self_seconds["outer"] < spans["outer"][3] - spans["outer"][2]
    assert spans["outer"][4] == root[0]

    from repro.device.engine import Engine
    original = Engine.submit
    with tracer.installed():
        assert Engine.submit is not original
    assert Engine.submit is original


def test_tracer_moves_wrapper_cost_out_of_the_layers():
    caller, callee = calibrate(calls=2000, repeats=3)
    assert caller > 0
    tracer = Tracer(costs=(caller, callee))
    empty = tracer.wrap(lambda: None, "inner", "inner")
    with tracer.span("root", "outer"):
        for _ in range(5000):
            empty()
    seconds = tracer.layer_seconds()
    assert tracer.nested_calls["outer"] == 5000
    assert seconds["tracer"] > 0
    assert seconds["outer"] < tracer.self_seconds["outer"]
    assert sum(seconds.values()) == pytest.approx(
        sum(tracer.self_seconds.values()))


def test_untimed_blocks_are_charged_to_no_layer():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.untimed():
            time.sleep(0.01)
    assert tracer.untimed_seconds >= 0.01
    assert tracer.self_seconds["bench"] < 0.005


def test_serving_hook_runs_after_every_commit_of_run(dataset):
    spec = GCNModelSpec.build(dataset.d0, 16, dataset.num_classes, 2)
    requests = poisson_workload(dataset, 200, rate=2000.0, seed=2)
    mutations = poisson_mutations(dataset, 5, rate=100.0, edges_per_batch=4,
                                  seed=3)

    def engine():
        return DynamicServingEngine(
            DynamicGraph(dataset), init_weights(spec.layer_dims, seed=3),
            spec, config=ServingConfig(cache_entries=2 * dataset.n))

    hooked, plain = engine(), engine()
    generations = []
    workloads._after_commits(
        hooked, lambda: generations.append(hooked.graph.generation))
    result = hooked.run(requests, mutations)
    assert generations == [1, 2, 3, 4, 5]
    expected = plain.run(requests, mutations)
    assert all(np.array_equal(result.logits[k], expected.logits[k])
               for k in expected.logits)


def test_compare_verdicts():
    base = {"w.e2e.m.value": 10.0, "w.e2e.m.iqr": 0.1}
    for new_value, expected in ((10.5, "same"), (8.0, "better"),
                                (12.0, "worse")):
        new = {"w.e2e.m.value": new_value}
        assert compare.verdict(base, new, "w.e2e.m", 0.1, "lower") == expected
    noisy = {"w.e2e.m.value": 12.0, "w.e2e.m.iqr": 5.0}
    assert compare.verdict(base, noisy, "w.e2e.m", 0.1, "lower") == "unresolved"
    assert compare.verdict(base, {}, "w.e2e.m", 0.1, "lower") == "missing"


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(workloads.PER_LAYER)


def test_short_run_reports_every_metric(tmp_path):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload",
           "train-arxiv-p8", "--seed", "3", "--seconds", "0.2",
           "--out", str(tmp_path / "r.json")]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, listed in (("0", "end_to_end"), ("1", "per_layer")):
        done = subprocess.run(cmd + ["--trace", trace], capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec[listed]}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-arxiv-p8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
