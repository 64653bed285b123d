"""Property tests: the one Chrome-trace emitter's pid/tid layout.

``chrome_trace`` lays engine sections, the span tree and any number of
critical paths out on pids and tids it allocates itself. Whatever the
mix, the file must stay loadable as distinct rows: every pid and every
(pid, tid) is declared exactly once, every complete event lands on a
declared row, and no two processes share a name.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.device.engine import TraceEvent
from repro.telemetry import Tracer, chrome_trace, critical_path

LABELS = (None, "train", "serve", "elastic")

events = st.lists(
    st.builds(
        lambda device, stream, start, dur: TraceEvent(
            f"gpu{device}", stream, f"op-{stream}", stream, start, start + dur
        ),
        st.integers(0, 3),
        st.sampled_from(["compute", "comm"]),
        st.floats(0.0, 10.0),
        st.floats(0.01, 2.0),
    ),
    min_size=1,
    max_size=12,
)


def _tracer(moves):
    """A span tree from begin (True) / end (False) moves."""
    tracer = Tracer()
    open_spans = []
    for t, begin in enumerate(moves):
        if begin:
            open_spans.append(tracer.begin(f"s{t}", float(t)))
        elif open_spans:
            tracer.end(open_spans.pop(), float(t))
    while open_spans:
        tracer.end(open_spans.pop(), float(len(moves)))
    return tracer


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True),
    st.lists(events, min_size=3, max_size=3),
    st.none() | st.lists(st.booleans(), max_size=12),
    st.lists(st.sampled_from(LABELS), max_size=3, unique=True),
)
def test_every_row_is_declared_once(section_ids, traces, moves, path_labels):
    sections = dict(zip(section_ids, traces))
    tracer = None if moves is None else _tracer(moves)
    critpaths = {
        label: critical_path(trace) for label, trace in zip(path_labels, traces)
    }
    out = chrome_trace(sections, tracer, critpaths=critpaths)

    process_names = [
        (e["pid"], e["args"]["name"]) for e in out
        if e["ph"] == "M" and e["name"] == "process_name"
    ]
    thread_rows = [
        (e["pid"], e["tid"]) for e in out
        if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    pid_counts = Counter(pid for pid, _ in process_names)
    assert all(n == 1 for n in pid_counts.values())
    assert all(n == 1 for n in Counter(thread_rows).values())
    names = [name for _, name in process_names]
    assert len(set(names)) == len(names)

    complete = [e for e in out if e["ph"] == "X"]
    for e in complete:
        assert e["pid"] in pid_counts
        assert (e["pid"], e["tid"]) in thread_rows
    expected = sum(len(t) for t in sections.values())
    expected += len(tracer.spans) if tracer is not None else 0
    expected += sum(len(r.steps) for r in critpaths.values())
    assert len(complete) == expected
