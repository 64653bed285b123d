"""Oracle: flat-column capture + one-pass finalize vs per-op records.

:class:`OracleCapture` is the capture recorder as it was before ops
were kept in flat columns: one ``_OpRecord`` per op, with the full
dependency sets, the trace template, the closures and the per-category
totals derived at finalize, and topological levels from
:func:`oracle_build_levels`, which scans once per level. A tee attached
to the engine feeds every recorded call to both the oracle and
:class:`~repro.plan.PlanCapture`; their plans must agree exactly — level
by level, dependency by dependency, duration by duration, template entry
by template entry, closure by closure, link tier by link tier — on
captured training epochs (single-node and node-aware multi-node) and on
hypothesis-generated DAGs and node-aware broadcasts.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trainer import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.device.engine import SimContext
from repro.device.stream import Event
from repro.device.tensor import Mode
from repro.hardware import dgx1, multi_node_cluster, uniform_machine
from repro.nn import GCNModelSpec
from repro.parallel import HierarchicalCommunicator
from repro.plan import PlanCapture
from repro.telemetry import Telemetry


@dataclass
class _OpRecord:
    """One captured op (kernel, collective, or barrier)."""

    stream_ids: Tuple[int, ...]
    deps: Tuple[int, ...]
    duration: float
    trace: Tuple[tuple, ...] = ()
    compute: Optional[Callable[[], object]] = None
    is_loss: bool = False


def oracle_build_levels(full_deps):
    """Topological levels, one ``np.nonzero`` scan per level."""
    n = len(full_deps)
    level = np.zeros(n, dtype=np.int64)
    for i, deps in enumerate(full_deps):
        if deps:
            level[i] = 1 + max(level[d] for d in deps)
    out = []
    if n == 0:
        return out
    for lv in range(int(level.max()) + 1):
        idx = np.nonzero(level == lv)[0]
        flat: List[int] = []
        offsets: List[int] = []
        for i in idx:
            offsets.append(len(flat))
            flat.extend(full_deps[i])
        out.append((idx.astype(np.int64), np.asarray(flat, dtype=np.int64),
                    np.asarray(offsets, dtype=np.int64)))
    return out


class OracleCapture:
    """The per-op-record capture recorder, with the same record API."""

    def __init__(self):
        self._streams = []
        self._stream_ids: Dict[int, int] = {}
        self._event_op: Dict[int, int] = {}
        self._events: List[Event] = []
        self._ops: List[_OpRecord] = []
        #: every booked ``(link, fixed, bw_time, nbytes)``, in call order.
        self._links: List[tuple] = []

    def _sid(self, stream):
        sid = self._stream_ids.get(id(stream))
        if sid is None:
            sid = len(self._streams)
            self._stream_ids[id(stream)] = sid
            self._streams.append(stream)
        return sid

    def dep_ops(self, deps):
        seen = set()
        out = []
        for dep in deps:
            op = self._event_op.get(id(dep))
            if op is not None and op not in seen:
                seen.add(op)
                out.append(op)
        return out

    def _map(self, events, op):
        for event in events:
            self._event_op[id(event)] = op
            self._events.append(event)

    def record_kernel(self, stream, event, name, category, duration, deps,
                      stage, nbytes, compute, correlation=None, flops=0.0):
        self._ops.append(_OpRecord(
            (self._sid(stream),), tuple(self.dep_ops(deps)), float(duration),
            ((stream.device.name, stream.name, name, category, stage, nbytes,
              correlation, flops),),
            compute, category == "loss",
        ))
        self._map([event], len(self._ops) - 1)

    def _collective(self, streams, events, dep_ops, name, duration, stage,
                    nbytes, compute, category="comm", correlation=None,
                    flops=0.0):
        streams = list(streams)
        self._ops.append(_OpRecord(
            tuple(self._sid(s) for s in streams), tuple(dep_ops),
            float(duration),
            tuple((s.device.name, s.name, name, category, stage, nbytes,
                   correlation, flops) for s in streams),
            compute,
        ))
        self._map(events, len(self._ops) - 1)

    def record_collective(self, streams, events, name, duration, deps, stage,
                          nbytes, compute=None, category="comm",
                          correlation=None, flops=0.0, links=()):
        self._collective(streams, events, self.dep_ops(deps), name, duration,
                         stage, nbytes, compute, category, correlation, flops)
        self._links.extend(links)

    def record_stage(self, bcast_streams, bcast_name, bcast_duration,
                     bcast_nbytes, bcast_compute, links, entry_ops, guard_op,
                     pre, post, spmm_events, spmm_compute, stage):
        """A stage as its broadcast collective plus P kernel records."""
        self._links.extend(links)
        deps = list(entry_ops)
        if guard_op >= 0:
            deps += range(guard_op, guard_op + len(pre))
        self._collective(bcast_streams, (), deps, bcast_name,
                         bcast_duration, stage, bcast_nbytes, bcast_compute)
        bcast = len(self._ops) - 1
        for r, ((stream, name, category, duration), tail, event) in enumerate(
            zip(pre, post, spmm_events)
        ):
            self._ops.append(_OpRecord(
                (self._sid(stream),), (bcast,), float(duration),
                ((stream.device.name, stream.name, name, category, tail[0],
                  tail[1], tail[3], tail[4]),),
                spmm_compute if r == 0 else None,
            ))
            self._map([event], len(self._ops) - 1)
        return bcast + 1

    def record_barrier(self, streams):
        self._ops.append(_OpRecord(
            tuple(self._sid(s) for s in streams), (), 0.0
        ))

    def finalize(self) -> dict:
        ops = self._ops
        last_on_stream = [-1] * len(self._streams)
        full_deps = []
        for i, op in enumerate(ops):
            deps = set(op.deps)
            for sid in op.stream_ids:
                prev = last_on_stream[sid]
                if prev >= 0:
                    deps.add(prev)
                last_on_stream[sid] = i
            full_deps.append(tuple(sorted(deps)))
        category_totals: Dict[str, float] = {}
        category_counts: Dict[str, int] = {}
        for op in ops:
            for entry in op.trace:
                category = entry[3]
                category_totals[category] = (
                    category_totals.get(category, 0.0) + op.duration
                )
                category_counts[category] = category_counts.get(category, 0) + 1
        link_totals: Dict[str, Tuple[float, float]] = {}
        for link, fixed, bw_time, nbytes in self._links:
            seconds, total = link_totals.get(link, (0.0, 0.0))
            link_totals[link] = (seconds + (fixed + bw_time), total + nbytes)
        return dict(
            streams=self._streams,
            durations=np.asarray([op.duration for op in ops], dtype=np.float64),
            levels=oracle_build_levels(full_deps),
            deps=full_deps,
            trace_template=[
                (i, *entry) for i, op in enumerate(ops) for entry in op.trace
            ],
            closures=[
                (op.compute, op.is_loss) for op in ops if op.compute is not None
            ],
            last_op_per_stream=last_on_stream,
            category_totals=category_totals,
            category_counts=category_counts,
            link_totals=link_totals,
        )


class _Tee:
    """Engine capture slot feeding both recorders the same calls."""

    def __init__(self, new: PlanCapture, old: OracleCapture):
        self.new = new
        self.old = old

    def dep_ops(self, deps):
        deps = list(deps)
        ops = self.new.dep_ops(deps)
        assert sorted(set(ops)) == sorted(self.old.dep_ops(deps))
        return ops

    def record_kernel(self, *args, **kwargs):
        self.new.record_kernel(*args, **kwargs)
        self.old.record_kernel(*args, **kwargs)

    def record_collective(self, *args, **kwargs):
        self.new.record_collective(*args, **kwargs)
        self.old.record_collective(*args, **kwargs)

    def record_stage(self, *args):
        first = self.new.record_stage(*args)
        assert self.old.record_stage(*args) == first
        return first

    def record_barrier(self, streams):
        streams = list(streams)
        self.new.record_barrier(streams)
        self.old.record_barrier(streams)


def _assert_same_plan(plan, want: dict) -> None:
    assert plan.num_ops == len(want["durations"])
    assert np.array_equal(plan._durations, want["durations"])
    assert len(plan._levels) == len(want["levels"])
    for (idx, flat, offsets), (w_idx, w_flat, w_offsets) in zip(
        plan._levels, want["levels"]
    ):
        assert idx.tolist() == w_idx.tolist()
        assert flat.tolist() == w_flat.tolist()
        assert offsets.tolist() == w_offsets.tolist()
    assert plan.op_dependencies() == want["deps"]
    assert plan.trace_template() == want["trace_template"]
    assert len(plan._closures) == len(want["closures"])
    for (fn, is_loss), (w_fn, w_is_loss) in zip(plan._closures,
                                                 want["closures"]):
        assert fn is w_fn and is_loss == w_is_loss
    assert list(plan._last_op_per_stream) == want["last_op_per_stream"]
    assert list(plan._streams) == want["streams"]
    counts: Dict[str, int] = {}
    for (category, _device), (count, _) in plan._accounting().items():
        counts[category] = counts.get(category, 0) + count
    assert counts == want["category_counts"]
    nbytes = sum(entry[6] for entry in want["trace_template"])
    assert plan._nbytes == nbytes
    got_totals = plan.category_totals()
    assert set(got_totals) == set(want["category_totals"])
    for category, total in want["category_totals"].items():
        assert got_totals[category] == pytest.approx(total, rel=1e-12)
    assert plan._link_totals == want["link_totals"]


def _tee_capture(engine):
    new = PlanCapture(engine)
    new.begin()
    old = OracleCapture()
    tee = _Tee(new, old)
    engine.capture = tee
    return new, old, tee


def _end(engine, new):
    engine.capture = new
    new.end()


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("cora", scale=0.1, learnable=True, seed=7)


@pytest.mark.parametrize("num_gpus", [1, 4, 8], ids=["P1", "P4", "P8"])
@pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "serial"])
@pytest.mark.parametrize("staleness", [None, 1], ids=["nocache", "stale"])
def test_captured_epochs_match_oracle(dataset, num_gpus, overlap, staleness):
    model = GCNModelSpec.build(dataset.d0, 8, dataset.num_classes, 3)
    trainer = MGGCNTrainer(
        dataset, model, num_gpus=num_gpus,
        config=TrainerConfig(overlap=overlap, seed=7,
                             cache_staleness_epochs=staleness),
    )
    engine = trainer.ctx.engine
    for _ in range(3):  # cache phases: refresh, serve, refresh
        if trainer.training_cache is not None:
            trainer.training_cache.begin_epoch()
            trainer._cache_active = True
        trainer.ctx.synchronize()
        new, old, _ = _tee_capture(engine)
        try:
            layer_outputs = trainer._forward()
            _, ready = trainer._loss(layer_outputs[-1])
            trainer._backward(layer_outputs, ready)
        finally:
            _end(engine, new)
            trainer._cache_active = False
        trainer.ctx.synchronize()
        plan = new.finalize()
        assert plan.num_ops > 0
        _assert_same_plan(plan, old.finalize())


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["kernel", "batch", "collective", "stage",
                         "barrier"]),
        st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
        st.lists(st.integers(0, 10**6), max_size=4),
        st.floats(0.0, 1.0, allow_nan=False),
        st.booleans(),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(_OPS)
def test_generated_dags_match_oracle(ops):
    """Random op sequences over 3 GPUs' 6 streams: kernels, kernel
    batches, collectives, SpMM stages and barriers with random
    dependencies on earlier ops."""
    ctx = SimContext(dgx1(), num_gpus=3)
    streams = ctx.all_streams()
    compute = [ctx.device(r).compute_stream for r in range(3)]
    engine = ctx.engine
    pre_capture = Event("before")
    pre_capture.time = 0.0
    new, old, tee = _tee_capture(engine)
    events: List[Event] = [pre_capture]
    first_ops: List[int] = []
    counter = [0]

    def fresh():
        counter[0] += 1
        ev = Event(f"e{counter[0]}")
        ev.time = 0.0
        return ev

    def closure():
        return None

    for kind, stream_ids, dep_picks, duration, with_closure in ops:
        deps = [events[p % len(events)] for p in dep_picks]
        fn = closure if with_closure else None
        if kind == "kernel":
            ev = fresh()
            stream = streams[stream_ids[0]]
            category = "loss" if with_closure and duration > 0.5 else "gemm"
            tee.record_kernel(stream, ev, "k", category, duration, deps,
                              None, 0, fn, flops=duration)
            events.append(ev)
        elif kind == "batch":
            for s in stream_ids:
                ev = fresh()
                tee.record_kernel(streams[s], ev, f"g{s}", "gemm", duration,
                                  deps, None, 0,
                                  fn if s == stream_ids[0] else None,
                                  flops=1.0)
                events.append(ev)
        elif kind == "collective":
            chosen = [streams[s] for s in stream_ids]
            evs = [fresh() for _ in chosen]
            tee.record_collective(
                chosen, evs, "c", duration, deps, 0, len(chosen), fn,
                links=(("intra_node", duration, 0.0, len(chosen)),),
            )
            events.extend(evs)
        elif kind == "stage":
            bcast_streams = [ctx.device(r).comm_stream for r in range(3)]
            spmm_events = [fresh() for _ in range(3)]
            pre = [(compute[r], f"s[{r}]", "spmm", duration * (r + 1))
                   for r in range(3)]
            post = [(len(first_ops), 8, None, None, float(r))
                    for r in range(3)]
            guard = first_ops[dep_picks[0] % len(first_ops)] if (
                first_ops and dep_picks) else -1
            first_ops.append(tee.record_stage(
                bcast_streams, "b", duration, 24, fn,
                (("inter_node", duration, 0.0, 24),
                 ("intra_node", 0.5 * duration, duration, 48)),
                tee.dep_ops(deps), guard, pre, post,
                spmm_events, fn, len(first_ops),
            ))
            events.extend(spmm_events)
        else:
            tee.record_barrier([streams[s] for s in stream_ids])
    _end(engine, new)
    _assert_same_plan(new.finalize(), old.finalize())


def _mini_cluster(nodes=2):
    """``nodes`` x 2 GPUs, so a 4-GPU run spans the NIC."""
    return multi_node_cluster(nodes, node=uniform_machine(2, name="mini-node"))


@pytest.mark.parametrize("staleness", [None, 1], ids=["nocache", "stale"])
def test_node_aware_epochs_match_oracle(dataset, staleness):
    """A node-aware epoch over 2 x 2 GPUs: one op per broadcast, its
    tiers booked where the oracle books them."""
    model = GCNModelSpec.build(dataset.d0, 8, dataset.num_classes, 3)
    trainer = MGGCNTrainer(
        dataset, model, machine=_mini_cluster(), num_gpus=4,
        config=TrainerConfig(seed=7, cache_staleness_epochs=staleness),
    )
    assert trainer.comm.is_hierarchical
    engine = trainer.ctx.engine
    trainer.ctx.synchronize()
    new, old, _ = _tee_capture(engine)
    try:
        layer_outputs = trainer._forward()
        _, ready = trainer._loss(layer_outputs[-1])
        trainer._backward(layer_outputs, ready)
    finally:
        _end(engine, new)
    plan = new.finalize()
    _assert_same_plan(plan, old.finalize())
    assert set(plan._link_totals) == {"inter_node", "intra_node"}
    # two 2-GPU rings per broadcast, one NIC hop: twice the bytes inside
    inter = plan._link_totals["inter_node"][1]
    assert plan._link_totals["intra_node"][1] >= 2 * inter > 0


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.integers(2, 4),
    per_node=st.integers(2, 4),
    root_pick=st.integers(0, 11),
    payload=st.integers(0, 1 << 26),
)
def test_node_aware_broadcast_matches_oracle(nodes, per_node, root_pick,
                                             payload):
    """One node-aware broadcast over any node count, root and payload is
    one captured op lasting :meth:`broadcast_duration`, and its per-tier
    booking is the same in the capture, the oracle and eager telemetry."""
    cluster = multi_node_cluster(
        nodes, node=uniform_machine(per_node, name="node")
    )
    telemetry = Telemetry(run_id="t")
    ctx = SimContext(cluster, mode=Mode.SYMBOLIC, telemetry=telemetry)
    comm = HierarchicalCommunicator(ctx)
    P = cluster.num_gpus
    root = root_pick % P
    src = ctx.device(root).symbolic((8, 8))
    dsts = {r: ctx.device(r).symbolic((8, 8)) for r in range(P) if r != root}
    new, old, _ = _tee_capture(ctx.engine)
    events = comm.broadcast(root, src, dsts, name="b", payload_nbytes=payload)
    _end(ctx.engine, new)
    plan = new.finalize()
    _assert_same_plan(plan, old.finalize())
    duration = comm.broadcast_duration(root, payload)
    assert plan.num_ops == 1 and plan._durations[0] == duration
    assert comm.plan_broadcast(root, src, dsts, payload_nbytes=payload)[1] \
        == duration
    assert {ev.time for ev in events.values()} == {duration}
    # the NIC tree carries the payload once, every node's ring once more
    want_bytes = {"inter_node": payload, "intra_node": nodes * payload}
    assert set(plan._link_totals) == set(want_bytes)
    flat = telemetry.registry.flatten()
    for link, (seconds, nbytes) in plan._link_totals.items():
        assert nbytes == want_bytes[link]
        assert flat[f'repro_comm_link_bytes_total{{link="{link}"}}'] == nbytes
        assert flat[f'repro_comm_link_seconds_total{{link="{link}"}}'] \
            == seconds
