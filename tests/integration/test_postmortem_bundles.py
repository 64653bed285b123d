"""Integration: incidents auto-produce replayable postmortem bundles.

The acceptance bar for the flight recorder: an injected device death
during elastic training and an SLO-breaching serving run must each dump
a postmortem bundle *on their own* (no test-side dump calls), and each
bundle must replay into a merged Chrome trace — engine rows on disjoint
pids, the span tree on per-depth thread rows, and correlation ids that
survive the engine replacement the incident caused.
"""

import os

import pytest

from repro.core.trainer import MGGCNTrainer
from repro.resilience import DeviceFailure, FaultPlan
from repro.resilience.recovery import ElasticTrainer
from repro.serve import ServingConfig, ServingEngine, poisson_workload
from repro.telemetry import (
    FlightRecorder,
    SLOMonitor,
    Telemetry,
    bundle_events,
    bundle_spans,
    chrome_trace,
    default_serving_slos,
    load_bundle,
)
from repro.training.loop import TrainingLoop

EPOCHS = 3


def _replay(bundle):
    return chrome_trace(bundle_events(bundle), bundle_spans(bundle))


def _process_pids(events):
    return {
        ev["args"]["name"]: ev["pid"]
        for ev in events
        if ev.get("ph") == "M" and ev["name"] == "process_name"
    }


@pytest.fixture(scope="module")
def device_death(small_dataset, small_model, tmp_path_factory):
    """Elastic training that loses rank 1 mid-epoch 2, black box armed."""
    dump_dir = tmp_path_factory.mktemp("flight-elastic")
    recorder = FlightRecorder(auto_dump_dir=dump_dir)
    telemetry = Telemetry(run_id="elastic", trace_ops=True, flight=recorder)
    ref = MGGCNTrainer(small_dataset, small_model, num_gpus=4)
    ref_stats = ref.fit(2)
    fail_time = ref_stats[0].epoch_time + 0.6 * ref_stats[1].epoch_time
    elastic = ElasticTrainer(
        small_dataset, small_model, num_gpus=4,
        plan=FaultPlan(device_failures=(
            DeviceFailure(rank=1, time=fail_time),
        )),
    )
    TrainingLoop(
        elastic, max_epochs=EPOCHS, eval_every=0, telemetry=telemetry
    ).run()
    return recorder, dump_dir, elastic


@pytest.fixture(scope="module")
def slo_breach(small_dataset, small_model, tmp_path_factory):
    """A serving run whose latency SLO cannot survive, black box armed."""
    dump_dir = tmp_path_factory.mktemp("flight-serve")
    recorder = FlightRecorder(auto_dump_dir=dump_dir)
    telemetry = Telemetry(run_id="serving", trace_ops=True, flight=recorder)
    trainer = MGGCNTrainer(small_dataset, small_model, num_gpus=2)
    trainer.fit(1)
    monitor = SLOMonitor(
        # an impossible latency objective: every request burns budget.
        default_serving_slos(1e-12, hit_rate_target=0.9)
    )
    serving = ServingEngine(
        small_dataset, trainer.get_weights(), small_model,
        config=ServingConfig(
            num_gpus=4,
            cache_entries=2 * small_dataset.n,
            num_pinned=max(small_dataset.n // 100, 1),
            fault_plan=FaultPlan(device_failures=(
                DeviceFailure(rank=1, time=2e-3),
            )),
        ),
        telemetry=telemetry,
        slo=monitor,
    )
    serving.warm_cache()
    serving.serve(
        poisson_workload(small_dataset, 60, rate=5000.0, skew=1.0, seed=7)
    )
    return recorder, dump_dir, serving, monitor


class TestDeviceDeathBundle:
    def test_recovery_auto_dumps_a_bundle(self, device_death):
        recorder, dump_dir, elastic = device_death
        assert elastic.num_gpus == 3  # the injected death really happened
        assert recorder.dumps_total == 1
        path = os.path.join(dump_dir, "postmortem-000-recovery.json")
        bundle = load_bundle(path)
        meta = bundle["meta"]
        assert meta["trigger"] == "recovery"
        assert meta["outcome"] == "recovered"
        assert meta["failed_rank"] == 1
        assert meta["run_id"] == "elastic"
        assert meta["time"] == pytest.approx(
            elastic.recovery_log[0].recovered_at
        )
        kinds = {r["kind"] for r in bundle["records"]}
        assert {"op", "fault"} <= kinds
        fault = next(r for r in bundle["records"] if r["kind"] == "fault")
        assert fault["rank"] == 1
        assert fault["survivors"] == 3
        assert bundle["metrics"]  # registry snapshot rode along

    def test_correlations_survive_the_replacement_engine(self, device_death):
        recorder, _dump_dir, elastic = device_death
        tracer = bundle_spans(recorder.bundles[0])
        recoveries = [s for s in tracer.spans if s.name == "recovery"]
        assert len(recoveries) == 1
        assert recoveries[0].correlation == "recovery-0"
        # the protocol's engine ops ran on the *replacement* engine (the
        # hub is carried across the swap); their op spans still inherit
        # the recovery span's correlation id.
        protocol = [
            s for s in tracer.spans if s.name.startswith("recovery/")
        ]
        assert protocol, "recovery protocol ops must reach the bundle"
        assert {s.correlation for s in protocol} == {"recovery-0"}
        assert any(s.name.startswith("recovery/bcast_w") for s in protocol)
        # pre-failure work keeps its own epoch correlation next to them.
        assert any(s.correlation == "epoch-1" for s in tracer.spans)

    def test_bundle_replays_into_a_merged_chrome_trace(self, device_death):
        recorder, _dump_dir, _elastic = device_death
        events = _replay(recorder.bundles[0])
        pids = _process_pids(events)
        assert "spans" in pids
        assert any(name.startswith("elastic/") for name in pids)
        assert len(set(pids.values())) == len(pids)  # disjoint pid blocks
        # the span tree renders one thread row per nesting depth.
        depth_rows = {
            ev["args"]["name"]
            for ev in events
            if ev.get("ph") == "M" and ev["name"] == "thread_name"
            and ev["pid"] == pids["spans"]
        }
        assert {"depth0", "depth1"} <= depth_rows
        # the recovery correlation is queryable straight off the trace.
        correlated = [
            ev for ev in events
            if ev.get("ph") == "X"
            and ev.get("args", {}).get("correlation") == "recovery-0"
        ]
        assert correlated


class TestSLOBreachBundle:
    def test_breach_auto_dumps_a_bundle(self, slo_breach):
        recorder, dump_dir, _serving, monitor = slo_breach
        assert monitor.breaches, "the impossible SLO must breach"
        first = monitor.breaches[0]
        assert recorder.dumps_total == len(monitor.breaches)
        path = os.path.join(dump_dir, "postmortem-000-slo_breach.json")
        bundle = load_bundle(path)
        meta = bundle["meta"]
        assert meta["trigger"] == "slo_breach"
        assert meta["slo"] == first.slo
        assert meta["time"] == pytest.approx(first.time)
        assert len(meta["burn_rates"]) == 2
        assert all(rate >= 1.0 for rate in meta["burn_rates"])

    def test_sections_split_warm_from_serve(self, slo_breach):
        recorder, _dump_dir, _serving, _monitor = slo_breach
        sections = bundle_events(recorder.bundles[0])
        # cache warming ran under the run id; the serve loop retags.
        assert "serve" in sections
        assert "serving" in sections
        batches = {
            ev.correlation
            for ev in sections["serve"]
            if ev.correlation and ev.correlation.startswith("batch-")
        }
        assert len(batches) > 1

    def test_correlations_survive_degraded_mode(self, slo_breach):
        recorder, _dump_dir, serving, _monitor = slo_breach
        assert serving.metrics.degrade_events
        bundle = recorder.bundles[-1]
        degrades = [
            r for r in bundle["records"] if r["kind"] == "degrade"
        ]
        assert degrades and degrades[0]["rank"] == 1
        # batches served after the death (on the shrunken engine) still
        # carry their request correlation ids into the black box.
        after = [
            r for r in bundle["records"]
            if r["kind"] == "op" and r["section"] == "serve"
            and r["start"] >= degrades[0]["time"]
            and (r["correlation"] or "").startswith("batch-")
        ]
        assert after

    def test_bundle_replays_into_a_merged_chrome_trace(self, slo_breach):
        recorder, _dump_dir, _serving, _monitor = slo_breach
        events = _replay(recorder.bundles[0])
        pids = _process_pids(events)
        assert "spans" in pids
        assert any(name.startswith("serve/") for name in pids)
        assert len(set(pids.values())) == len(pids)
        batch_rows = [
            ev for ev in events
            if ev.get("ph") == "X" and ev["pid"] == pids["spans"]
            and str(ev.get("args", {}).get("correlation", "")).startswith(
                "batch-"
            )
        ]
        assert batch_rows
