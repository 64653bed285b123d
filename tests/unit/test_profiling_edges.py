"""Edge cases in trace analysis: empty traces, single events, zero durations."""

import pytest

from repro.device.engine import TraceEvent
from repro.profiling import extract_stage_timeline, render_timeline, spmm_span
from repro.telemetry import chrome_trace, device_utilization
from repro.utils.intervals import (
    intersection_measure,
    merge_spans,
    union_measure,
)


def _ev(name="fwd0/spmm/stage0/comp", category="spmm", device="gpu0",
        stream="compute", start=0.0, end=1.0, stage=0, nbytes=0):
    return TraceEvent(device, stream, name, category, start, end, stage, nbytes)


# -- stage timelines ----------------------------------------------------------


class TestTimelineEdges:
    def test_empty_trace(self):
        assert extract_stage_timeline([], "fwd0/spmm") == []
        assert spmm_span([]) == 0.0
        assert render_timeline([]) == "(empty timeline)"

    def test_single_event_timeline(self):
        spans = extract_stage_timeline([_ev()], "fwd0/spmm")
        assert len(spans) == 1
        assert spans[0].kind == "comp"
        assert spans[0].duration == 1.0
        assert spmm_span(spans) == 1.0
        assert "gpu0" in render_timeline(spans)

    def test_zero_duration_span(self):
        spans = extract_stage_timeline(
            [_ev(start=2.0, end=2.0)], "fwd0/spmm"
        )
        assert spans[0].duration == 0.0
        assert spmm_span(spans) == 0.0
        # degenerate window must not divide by zero
        assert isinstance(render_timeline(spans), str)

    def test_events_without_stage_are_skipped(self):
        trace = [_ev(stage=None), _ev(name="other/op")]
        assert extract_stage_timeline(trace, "fwd0/spmm") == []


# -- utilisation --------------------------------------------------------------


class TestUtilizationEdges:
    def test_empty_trace(self):
        assert device_utilization([]) == {}

    def test_single_event(self):
        util = device_utilization([_ev()])
        assert set(util) == {"gpu0"}
        u = util["gpu0"]
        assert u.busy == 1.0
        assert u.comm == 0.0
        assert u.exposed == 0.0

    def test_zero_duration_events(self):
        trace = [
            _ev(start=1.0, end=1.0),
            _ev(name="ar", category="comm", stream="comm",
                start=1.0, end=1.0, nbytes=64),
        ]
        u = device_utilization(trace)["gpu0"]
        assert u.busy == 0.0
        assert u.comm == 0.0
        assert u.exposed == 0.0
        assert u.bytes == 64.0

    def test_comm_only_device(self):
        trace = [_ev(name="ar", category="comm", device="gpu1",
                     stream="comm", start=0.0, end=2.0, nbytes=32)]
        u = device_utilization(trace)["gpu1"]
        assert u.busy == 0.0
        assert u.comm == 2.0
        assert u.exposed == 2.0  # nothing to hide behind


# -- interval primitives ------------------------------------------------------


class TestIntervals:
    def test_empty(self):
        import numpy as np

        empty = np.empty(0)
        ms, me = merge_spans(empty, empty)
        assert len(ms) == 0
        assert union_measure(empty, empty) == 0.0
        assert intersection_measure(empty, empty, empty, empty) == 0.0

    def test_touching_spans_coalesce(self):
        import numpy as np

        s = np.array([0.0, 1.0])
        e = np.array([1.0, 2.0])
        ms, me = merge_spans(s, e)
        assert ms.tolist() == [0.0]
        assert me.tolist() == [2.0]
        assert union_measure(s, e) == 2.0

    def test_zero_duration_spans(self):
        import numpy as np

        s = np.array([1.0, 1.0])
        e = np.array([1.0, 1.0])
        assert union_measure(s, e) == 0.0


# -- chrome export edges ------------------------------------------------------


class TestChromeExportEdges:
    def test_empty_trace_still_emits_nothing(self):
        assert chrome_trace({None: []}) == []
        assert chrome_trace({}) == []

    def test_run_id_namespaces_process_names(self):
        events = chrome_trace({"r1": [_ev()]})
        names = [e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert names == ["r1/gpu0"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete[0]["args"]["run"] == "r1"

    def test_merge_zero_duration_event(self):
        merged = chrome_trace({"a": [_ev(start=1.0, end=1.0)]})
        complete = [e for e in merged if e["ph"] == "X"]
        assert complete[0]["dur"] == 0.0
