"""Unit tests for repro.telemetry.flightrec: the always-on black box."""

import json

import pytest

from repro.device.engine import TraceEvent
from repro.errors import ConfigurationError
from repro.telemetry import (
    FlightRecorder,
    Telemetry,
    bundle_events,
    bundle_spans,
    chrome_trace,
    load_bundle,
)
from repro.telemetry.flightrec import FLIGHT_BUNDLE_FORMAT


def _ev(name, start, end, device="gpu0", category="gemm"):
    return TraceEvent(
        device=device, stream="compute", name=name, category=category,
        start=start, end=end, correlation=f"corr-{name}",
    )


class TestRing:
    def test_capacity_bounds_memory(self):
        rec = FlightRecorder(capacity=3)
        for i in range(10):
            rec.record_op(_ev(f"op{i}", i, i + 1))
        assert len(rec) == 3
        assert rec.records_total == 10
        names = [r["name"] for r in rec.records()]
        assert names == ["op7", "op8", "op9"]

    def test_mixed_kinds_and_counts(self):
        rec = FlightRecorder()
        rec.record_op(_ev("a", 0.0, 1.0))
        rec.record_comm("inter_node", 0.5, 1024)
        rec.record("fault", time=2.0, rank=1)
        assert rec.counts() == {"op": 1, "comm": 1, "fault": 1}
        records = rec.records()
        assert records[1] == {
            "kind": "comm", "link": "inter_node", "seconds": 0.5,
            "nbytes": 1024,
        }
        assert records[2]["rank"] == 1

    def test_bad_capacity_raises(self):
        with pytest.raises(ConfigurationError):
            FlightRecorder(capacity=0)


class TestTelemetryIntegration:
    def test_hub_routes_ops_comm_and_notes(self):
        rec = FlightRecorder()
        telemetry = Telemetry(flight=rec, run_id="train")
        telemetry.on_op(_ev("a", 0.0, 1.0))
        telemetry.on_comm("intra_node", 0.1, 64)
        telemetry.flight_note("degrade", time=1.5, rank=2)
        assert rec.counts() == {"op": 1, "comm": 1, "degrade": 1}
        # section defaults to the run id; set_flight_section retags.
        assert rec.records()[0]["section"] == "train"
        telemetry.set_flight_section("serve")
        telemetry.on_op(_ev("b", 1.0, 2.0))
        assert rec.records()[-1]["section"] == "serve"

    def test_hub_without_recorder_is_a_noop(self):
        telemetry = Telemetry()
        telemetry.flight_note("fault", rank=0)  # must not raise
        assert telemetry.dump_postmortem("x") is None


class TestBundles:
    def _dumped(self, tmp_path):
        rec = FlightRecorder(auto_dump_dir=tmp_path)
        telemetry = Telemetry(flight=rec, run_id="run")
        span = telemetry.tracer.begin("epoch-1", 0.0, correlation="epoch-1")
        telemetry.on_op(_ev("a", 0.0, 1.0))
        telemetry.set_flight_section("serve")
        telemetry.on_op(_ev("g", 1.0, 2.0, device="gpu1",
                            category="comm"))
        telemetry.tracer.end(span, 2.0)
        telemetry.flight_note("fault", time=1.5, rank=1)
        bundle = telemetry.dump_postmortem("recovery", time=2.0,
                                           failed_rank=1)
        return rec, bundle

    def test_dump_contents_and_auto_path(self, tmp_path):
        rec, bundle = self._dumped(tmp_path)
        assert bundle["format"] == FLIGHT_BUNDLE_FORMAT
        meta = bundle["meta"]
        assert meta["trigger"] == "recovery"
        assert meta["failed_rank"] == 1
        assert meta["run_id"] == "run"
        assert bundle["metrics"]  # registry flatten rode along
        assert len(bundle["spans"]) == 1
        path = meta["path"]
        assert path.endswith("postmortem-000-recovery.json")
        assert load_bundle(path)["meta"]["trigger"] == "recovery"
        assert rec.dumps_total == 1

    def test_bundle_events_rebuild_sections(self, tmp_path):
        _, bundle = self._dumped(tmp_path)
        sections = bundle_events(bundle)
        assert set(sections) == {"run", "serve"}
        ev = sections["serve"][0]
        assert isinstance(ev, TraceEvent)
        assert ev.name == "g" and ev.correlation == "corr-g"

    def test_bundle_spans_rebuild_tree(self, tmp_path):
        _, bundle = self._dumped(tmp_path)
        tracer = bundle_spans(bundle)
        assert [s.name for s in tracer.spans] == ["epoch-1"]
        assert tracer.spans[0].correlation == "epoch-1"

    def test_bundle_to_chrome_trace_disjoint_pids(self, tmp_path):
        _, bundle = self._dumped(tmp_path)
        events = chrome_trace(bundle_events(bundle), bundle_spans(bundle))
        section_pids = {
            e["args"]["name"]: e["pid"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        # one process per section/device plus the span tree, no pid reuse.
        assert "spans" in section_pids
        assert any(n.startswith("run/") for n in section_pids)
        assert any(n.startswith("serve/") for n in section_pids)
        assert len(set(section_pids.values())) == len(section_pids)

    def test_why_trace_gives_each_section_its_critical_path(self, tmp_path):
        from repro.__main__ import main

        _, bundle = self._dumped(tmp_path)
        out = tmp_path / "why.json"
        assert main(["telemetry", "why", bundle["meta"]["path"],
                     "--trace", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        names = [e["args"]["name"] for e in events
                 if e.get("ph") == "M" and e["name"] == "process_name"]
        assert len(set(names)) == len(names)
        path_pids = {
            e["args"]["name"]: e["pid"] for e in events
            if e.get("ph") == "M" and e["name"] == "process_name"
            and e["args"]["name"].endswith("critical path")
        }
        assert set(path_pids) == {"run/critical path", "serve/critical path"}
        # each section's path steps sit on that section's own process
        steps = {
            pid: {e["args"]["device"] for e in events
                  if e.get("ph") == "X" and e["pid"] == pid}
            for pid in path_pids.values()
        }
        assert steps[path_pids["run/critical path"]] == {"gpu0"}
        assert steps[path_pids["serve/critical path"]] == {"gpu1"}

    def test_load_bundle_failures(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_bundle(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigurationError, match="malformed"):
            load_bundle(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ConfigurationError, match="not a flight bundle"):
            load_bundle(wrong)
