"""Integration: one telemetry hub across training, replay, recovery, serving.

The acceptance bar for the observability subsystem: a single
:class:`~repro.telemetry.Telemetry` threaded through captured training,
an elastic run under a fault plan, and the serving engine must yield

* ONE merged Chrome trace holding all engine timelines (disjoint pids)
  plus the span tree, with nesting (parent ids) and correlation ids
  linking spans to the engine ops they cover;
* one Prometheus exposition with counters, gauges, and histograms from
  each subsystem; and
* a snapshot that ``repro telemetry diff`` passes against itself and
  fails against a perturbed copy.
"""

import json

import pytest

from repro.__main__ import main
from repro.core.trainer import MGGCNTrainer, TrainerConfig
from repro.resilience import DeviceFailure, FaultPlan
from repro.resilience.recovery import ElasticTrainer
from repro.serve import ServingConfig, ServingEngine, poisson_workload
from repro.telemetry import (
    Telemetry,
    chrome_trace,
    to_prometheus,
    write_snapshot,
)
from repro.training.loop import TrainingLoop

EPOCHS = 3


@pytest.fixture(scope="module")
def pipeline(small_dataset, small_model):
    """Train (capture+replay), recover from a failure, then serve —
    all reporting into one telemetry hub."""
    telemetry = Telemetry(run_id="e2e", trace_ops=True)

    # 1. captured training: epoch 1 captures the plan, 2..N replay it.
    captured = MGGCNTrainer(small_dataset, small_model, num_gpus=2)
    TrainingLoop(
        captured, max_epochs=EPOCHS, eval_every=EPOCHS,
        telemetry=telemetry,
    ).run()
    train_trace = list(captured.ctx.engine.trace)

    # 2. elastic training under a seeded fault plan (fails mid-epoch 2).
    ref = MGGCNTrainer(small_dataset, small_model, num_gpus=4)
    ref_stats = ref.fit(2)
    fail_time = ref_stats[0].epoch_time + 0.6 * ref_stats[1].epoch_time
    elastic = ElasticTrainer(
        small_dataset, small_model, num_gpus=4,
        plan=FaultPlan(device_failures=(
            DeviceFailure(rank=1, time=fail_time),
        )),
    )
    TrainingLoop(elastic, max_epochs=EPOCHS, eval_every=0,
                 telemetry=telemetry).run()
    elastic_trace = list(elastic.ctx.engine.trace)

    # 3. serving the captured model under its own fault plan.
    serving = ServingEngine(
        small_dataset, captured.get_weights(), small_model,
        config=ServingConfig(
            num_gpus=4,
            cache_entries=2 * small_dataset.n,
            num_pinned=max(small_dataset.n // 100, 1),
            fault_plan=FaultPlan(device_failures=(
                DeviceFailure(rank=1, time=2e-3),
            )),
        ),
        telemetry=telemetry,
    )
    serving.warm_cache()
    result = serving.serve(
        poisson_workload(small_dataset, 60, rate=5000.0, skew=1.0, seed=7)
    )
    serve_trace = list(serving.ctx.engine.trace)

    return {
        "telemetry": telemetry,
        "captured": captured,
        "elastic": elastic,
        "serving_result": result,
        "sections": {
            "train": train_trace,
            "elastic": elastic_trace,
            "serve": serve_trace,
        },
    }


class TestUnifiedTrace:
    def test_merged_trace_has_all_sections_on_disjoint_pids(self, pipeline):
        merged = chrome_trace(
            pipeline["sections"], pipeline["telemetry"].tracer
        )
        process_pids = {
            ev["args"]["name"]: ev["pid"]
            for ev in merged
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        for section in ("train", "elastic", "serve"):
            assert any(name.startswith(f"{section}/") for name in process_pids)
        assert "spans" in process_pids
        # every process its own pid: merging must not collide timelines
        assert len(set(process_pids.values())) == len(process_pids)
        # engine events from every section made it in
        runs = {
            ev["args"].get("run")
            for ev in merged
            if ev["ph"] == "X" and ev["pid"] != process_pids["spans"]
        }
        assert runs >= {"train", "elastic", "serve"}

    def test_spans_nest_and_carry_correlations(self, pipeline):
        tracer = pipeline["telemetry"].tracer
        # training epochs appear twice (captured + elastic runs)
        epochs = [s for s in tracer.spans
                  if s.category == "training" and s.name == "epoch-1"]
        assert len(epochs) == 2
        # trace_ops=True: engine ops nested under the epoch span,
        # inheriting its correlation id.
        kernels = tracer.children_of(epochs[0])
        assert kernels, "op spans must nest under the epoch span"
        assert all(k.parent_id == epochs[0].span_id for k in kernels)
        assert {k.correlation for k in kernels} == {"epoch-1"}
        # replayed epochs show up as plan spans: the captured run's
        # epochs 2..N, and the elastic run's epochs after its recovery
        # (eager until then, under the active fault plan).
        replays = [s for s in tracer.spans if s.name == "plan.replay"]
        assert len(replays) == (pipeline["captured"].plan_stats.replays
                                + pipeline["elastic"].plan_stats.replays)
        assert pipeline["elastic"].plan_stats.replays >= 1
        assert {r.correlation for r in replays} == {"epoch-2", "epoch-3"}
        # replayed op spans nest under their epoch like eager ones.
        replay_epoch = next(s for s in tracer.spans
                            if s.category == "training" and s.name == "epoch-2")
        assert {k.correlation for k in tracer.children_of(replay_epoch)} == {
            "epoch-2"
        }
        # the recovery protocol has its own correlated span, with the
        # re-broadcast/re-shard engine ops nested underneath it
        recoveries = [s for s in tracer.spans if s.name == "recovery"]
        assert len(recoveries) == 1
        assert recoveries[0].correlation == "recovery-0"
        assert recoveries[0].closed
        protocol_ops = tracer.children_of(recoveries[0])
        assert protocol_ops
        assert {s.correlation for s in protocol_ops} == {"recovery-0"}
        # serving batches are correlated spans too
        batches = [s for s in tracer.spans if s.name.startswith("serve.batch-")]
        assert batches
        assert batches[0].correlation == "batch-0"
        # every span is closed: no wedged stacks across subsystems
        assert all(s.closed for s in tracer.spans)
        assert tracer.depth == 0

    def test_span_correlations_link_to_engine_ops(self, pipeline):
        """A serving batch's span correlation matches its engine events."""
        serve_corrs = {
            ev.correlation
            for ev in pipeline["sections"]["serve"]
            if ev.correlation is not None
        }
        assert "batch-0" in serve_corrs


class TestUnifiedMetrics:
    def test_prometheus_covers_all_subsystems(self, pipeline):
        text = to_prometheus(pipeline["telemetry"].registry)
        # counters from each subsystem
        assert "# TYPE repro_train_epochs_total counter" in text
        assert "# TYPE repro_plan_replays_total counter" in text
        assert 'repro_recoveries_total{outcome="recovered"} 1' in text
        assert "# TYPE repro_serving_requests_total counter" in text
        assert "repro_serving_degrades_total 1" in text
        # gauges
        assert "# TYPE repro_train_loss gauge" in text
        assert "# TYPE repro_overlap_efficiency gauge" in text
        # histograms render as quantile summaries
        assert 'repro_train_epoch_seconds{quantile="0.99"}' in text
        assert 'repro_serving_latency_seconds{quantile="0.5"}' in text
        # the failure was detected through an instrumented collective
        assert "repro_comm_timeouts_total" in text

    def test_counts_match_ground_truth(self, pipeline):
        flat = pipeline["telemetry"].registry.flatten()
        assert flat["repro_train_epochs_total"] == float(2 * EPOCHS)
        assert pipeline["captured"].plan_stats.replays == EPOCHS - 1
        assert flat["repro_plan_replays_total"] == float(
            EPOCHS - 1 + pipeline["elastic"].plan_stats.replays
        )
        assert flat['repro_recoveries_total{outcome="recovered"}'] == 1.0
        assert len(pipeline["elastic"].recovery_log) == 1
        assert flat["repro_serving_requests_total"] == 60.0
        assert (flat["repro_serving_requests_total"]
                == pipeline["serving_result"].summary["num_requests"])
        assert flat["repro_flops_total"] > 0.0
        assert flat["repro_comm_bytes_total"] > 0.0
        assert 0.0 <= flat["repro_overlap_efficiency"] <= 1.0
        assert flat["repro_straggler_skew"] >= 1.0


class TestRegressionGateCli:
    def test_diff_passes_against_itself_and_fails_perturbed(
        self, pipeline, tmp_path, capsys
    ):
        snap = tmp_path / "snapshot.json"
        write_snapshot(
            snap, pipeline["telemetry"].registry.flatten(), {"run": "e2e"}
        )

        assert main(["telemetry", "diff", str(snap), str(snap)]) == 0
        assert "PASS" in capsys.readouterr().out

        bad = tmp_path / "perturbed.json"
        payload = json.loads(snap.read_text())
        payload["metrics"]["repro_train_epochs_total"] *= 1.25
        bad.write_text(json.dumps(payload))
        assert main(["telemetry", "diff", str(snap), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "repro_train_epochs_total" in out
        # a tolerance wide enough turns the same diff green again
        assert main([
            "telemetry", "diff", str(snap), str(bad),
            "--tolerance", "repro_train_epochs_total=0.5",
        ]) == 0

    def test_missing_metric_fails_the_gate(self, pipeline, tmp_path, capsys):
        snap = tmp_path / "snapshot.json"
        write_snapshot(
            snap, pipeline["telemetry"].registry.flatten(), {"run": "e2e"}
        )
        pruned = tmp_path / "pruned.json"
        payload = json.loads(snap.read_text())
        del payload["metrics"]["repro_serving_requests_total"]
        pruned.write_text(json.dumps(payload))
        assert main(["telemetry", "diff", str(snap), str(pruned)]) == 1
        assert "missing from current run" in capsys.readouterr().out
