"""Unit tests for repro.plan (capture/replay) and its satellite caches."""

import numpy as np
import pytest

from repro.device.engine import SimContext
from repro.errors import PlanError
from repro.hardware import dgx1
from repro.kernels.cost import CostModel
from repro.nn.buffers import SharedBufferManager
from repro.plan import ExecutionPlan, PlanCapture, PlanStats, bucket_levels
from repro.resilience import FaultInjector, FaultPlan, StragglerSlowdown
from repro.sparse.csr import CSRMatrix
from repro.training.loop import TrainingHistory


# -- bucket_levels ------------------------------------------------------------


def build_levels(full_deps):
    """:func:`bucket_levels` from per-op dependency tuples."""
    level, ptr, flat = [], [0], []
    for deps in full_deps:
        level.append(1 + max(level[d] for d in deps) if deps else 0)
        flat.extend(deps)
        ptr.append(len(flat))
    return bucket_levels(level, ptr, flat)


class TestBuildLevels:
    def test_diamond(self):
        # 0 -> {1, 2} -> 3
        levels = build_levels([(), (0,), (0,), (1, 2)])
        assert len(levels) == 3
        assert levels[0][0].tolist() == [0]
        assert sorted(levels[1][0].tolist()) == [1, 2]
        assert levels[2][0].tolist() == [3]
        idx, flat, offsets = levels[2]
        assert flat.tolist() == [1, 2]
        assert offsets.tolist() == [0]

    def test_level_zero_has_no_deps(self):
        levels = build_levels([(), (), (0, 1)])
        idx, flat, offsets = levels[0]
        assert sorted(idx.tolist()) == [0, 1]
        assert flat.size == 0

    def test_empty(self):
        assert build_levels([]) == []


# -- capture lifecycle --------------------------------------------------------


def _ctx(num_gpus=2, **kw):
    return SimContext(dgx1(), num_gpus=num_gpus, **kw)


class TestCaptureLifecycle:
    def test_double_begin_rejected(self):
        ctx = _ctx()
        cap = PlanCapture(ctx.engine)
        cap.begin()
        with pytest.raises(PlanError):
            cap.begin()
        cap.end()

    def test_second_capture_on_engine_rejected(self):
        ctx = _ctx()
        first = PlanCapture(ctx.engine)
        first.begin()
        with pytest.raises(PlanError):
            PlanCapture(ctx.engine).begin()
        first.end()

    def test_finalize_requires_end(self):
        ctx = _ctx()
        cap = PlanCapture(ctx.engine)
        cap.begin()
        with pytest.raises(PlanError):
            cap.finalize()
        cap.end()
        assert cap.finalize().num_ops == 0

    def test_refused_under_active_fault_plan(self):
        plan = FaultPlan(
            stragglers=(StragglerSlowdown(rank=0, factor=2.0, start=0.0),)
        )
        ctx = _ctx(fault_injector=FaultInjector(plan))
        with pytest.raises(PlanError):
            PlanCapture(ctx.engine).begin()

    def test_trivial_injector_allowed(self):
        ctx = _ctx(fault_injector=FaultInjector(FaultPlan()))
        cap = PlanCapture(ctx.engine)
        cap.begin()
        cap.end()


# -- capture + replay at engine level ----------------------------------------


def _submit_sequence(ctx, closures_hit=None):
    """A small cross-stream DAG with a barrier and a loss op."""
    engine = ctx.engine
    s0 = ctx.device(0).compute_stream
    s1 = ctx.device(1).compute_stream
    c1 = ctx.device(1).comm_stream

    def bump():
        if closures_hit is not None:
            closures_hit.append("k")

    def loss():
        if closures_hit is not None:
            closures_hit.append("loss")
        return 2.5

    # kernel contract: the caller executes the closure eagerly and hands
    # it to submit() for recording.
    bump()
    a = engine.submit(s0, "a", "gemm", 1.0, compute=bump)
    bump()
    b = engine.submit(s1, "b", "spmm", 2.0, stage=1, compute=bump)
    c = engine.submit(c1, "c", "comm", 0.5, deps=[a, b], nbytes=64)
    engine.barrier([s0, s1])
    loss()
    d = engine.submit(s0, "d", "loss", 0.25, deps=[c], compute=loss)
    return d


class TestEngineCaptureReplay:
    def test_replay_times_match_eager(self):
        # reference: two eager "epochs" back to back.
        ref = _ctx()
        _submit_sequence(ref)
        ref.synchronize()
        _submit_sequence(ref)
        ref.synchronize()

        # capture epoch 1, replay epoch 2.
        ctx = _ctx()
        cap = PlanCapture(ctx.engine)
        cap.begin()
        _submit_sequence(ctx)
        cap.end()
        plan = cap.finalize()
        t0 = ctx.synchronize()
        result = plan.replay(ctx.engine, t0)
        ctx.synchronize()

        want = [
            (e.device, e.stream, e.name, e.category, e.start, e.end, e.stage,
             e.nbytes)
            for e in ref.engine.trace
        ]
        got = [
            (e.device, e.stream, e.name, e.category, e.start, e.end, e.stage,
             e.nbytes)
            for e in ctx.engine.trace
        ]
        assert got == want  # bitwise
        assert result.loss_sum == 2.5
        assert result.events_emitted == 4
        assert result.end_time == ref.elapsed()

    def test_closures_rerun_in_captured_order(self):
        hits = []
        ctx = _ctx()
        cap = PlanCapture(ctx.engine)
        cap.begin()
        _submit_sequence(ctx, closures_hit=hits)
        cap.end()
        assert hits == ["k", "k", "loss"]
        plan = cap.finalize()
        plan.replay(ctx.engine, ctx.synchronize())
        assert hits == ["k", "k", "loss"] * 2
        assert plan.num_closures == 3

    def test_pre_capture_deps_dropped(self):
        ctx = _ctx()
        s0 = ctx.device(0).compute_stream
        before = ctx.engine.submit(s0, "warmup", "gemm", 1.0)
        ctx.synchronize()
        cap = PlanCapture(ctx.engine)
        cap.begin()
        ctx.engine.submit(s0, "x", "gemm", 1.0, deps=[before])
        cap.end()
        plan = cap.finalize()
        # the op is dependency-free inside the plan (the pre-capture event
        # is at/below the epoch barrier), so it sits in level 0.
        assert plan.num_levels == 1

    def test_category_totals(self):
        ctx = _ctx()
        cap = PlanCapture(ctx.engine)
        cap.begin()
        _submit_sequence(ctx)
        cap.end()
        totals = cap.finalize().category_totals()
        assert totals["gemm"] == 1.0
        assert totals["spmm"] == 2.0
        assert totals["comm"] == 0.5
        assert totals["loss"] == 0.25

    def test_replay_skips_trace_when_disabled(self):
        ctx = _ctx(record_trace=False)
        cap = PlanCapture(ctx.engine)
        cap.begin()
        _submit_sequence(ctx)
        cap.end()
        plan = cap.finalize()
        result = plan.replay(ctx.engine, ctx.synchronize())
        assert result.events_emitted == 0
        assert ctx.engine.trace == []

    def test_plan_stats_defaults(self):
        stats = PlanStats()
        assert (stats.captures, stats.replays, stats.eager_epochs,
                stats.invalidations) == (0, 0, 0, 0)


# -- CostModel memoization ----------------------------------------------------


class TestCostModelMemo:
    def test_cached_value_is_identical(self):
        cm = CostModel(dgx1().gpu)
        t1 = cm.gemm_time(128, 64, 32)
        assert ("gemm", 128, 64, 32, 4, 1.0) in cm._memo
        assert cm.gemm_time(128, 64, 32) == t1
        fresh = CostModel(dgx1().gpu)
        assert fresh.gemm_time(128, 64, 32) == t1

    def test_all_kernel_classes_memoized(self):
        cm = CostModel(dgx1().gpu)
        cm.spmm_time(100, 500, 16, 100)
        cm.elementwise_time(1000)
        cm.reduction_time(1000)
        cm.memset_time(4096)
        kinds = {k[0] for k in cm._memo}
        assert kinds == {"spmm", "elementwise", "reduction", "memset"}

    def test_bound_clears_instead_of_growing(self):
        cm = CostModel(dgx1().gpu)
        cm._MEMO_LIMIT = 8
        for n in range(20):
            cm.memset_time(n + 1)
        assert len(cm._memo) <= 8


# -- CSR segment cache --------------------------------------------------------


class TestCSRSegmentCache:
    def _matrix(self):
        rng = np.random.default_rng(7)
        dense = (rng.random((40, 30)) < 0.15) * rng.random((40, 30))
        return CSRMatrix.from_dense(dense), dense

    def test_spmm_into_matches_spmm_and_dense(self):
        csr, dense = self._matrix()
        rng = np.random.default_rng(8)
        x = rng.standard_normal((30, 12)).astype(np.float32)
        want = dense.astype(np.float32) @ x
        for use_scipy in (True, False):
            out = np.zeros((40, 12), dtype=np.float32)
            csr.spmm_into(x, out, accumulate=True, use_scipy=use_scipy)
            np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-6)
            # accumulate=False refills
            csr.spmm_into(x, out, accumulate=False, use_scipy=use_scipy)
            np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-6)
            ref = csr.spmm(x, out=np.zeros_like(out), accumulate=True,
                           use_scipy=use_scipy)
            assert (out == ref).all()

    def test_segments_cached_per_width_bucket(self):
        csr, _ = self._matrix()
        seg16 = csr._segments(16)
        assert csr._segments(16) is seg16  # same object, no recompute
        # both widths bucket to the same chunk size for this tiny nnz
        assert csr._segments(17) is not None
        x = np.random.default_rng(9).standard_normal((30, 16)).astype(np.float32)
        out = np.zeros((40, 16), dtype=np.float32)
        csr.spmm_into(x, out, use_scipy=False)
        assert csr._segments(16) is seg16

    def test_segment_cache_bounded(self):
        csr, _ = self._matrix()
        for d in range(1, 40):
            csr._segments(d)
        assert len(csr._segment_cache) <= CSRMatrix._SEGMENT_CACHE_LIMIT

    def test_empty_matrix(self):
        csr = CSRMatrix.empty((5, 4))
        out = np.ones((5, 3), dtype=np.float32)
        csr.spmm_into(np.ones((4, 3), dtype=np.float32), out, accumulate=False)
        assert (out == 0).all()


# -- TrainingHistory incremental total ---------------------------------------


class TestHistoryIncrementalTime:
    def test_accumulates_incrementally(self):
        h = TrainingHistory()
        assert h.total_simulated_time == 0.0
        h.epoch_times.append(1.5)
        assert h.total_simulated_time == 1.5
        h.epoch_times.append(2.0)
        h.epoch_times.append(0.25)
        assert h.total_simulated_time == 3.75
        # repeated reads don't double count
        assert h.total_simulated_time == 3.75

    def test_matches_plain_sum(self):
        h = TrainingHistory()
        times = np.random.default_rng(11).random(100).tolist()
        for i, t in enumerate(times):
            h.epoch_times.append(t)
            if i % 7 == 0:
                assert h.total_simulated_time == sum(h.epoch_times)
        assert h.total_simulated_time == sum(times)

    def test_truncation_resets(self):
        h = TrainingHistory()
        h.epoch_times.extend([1.0, 2.0, 3.0])
        assert h.total_simulated_time == 6.0
        h.epoch_times = [5.0]
        assert h.total_simulated_time == 5.0


# -- SharedBufferManager view caches ------------------------------------------


class TestBufferViewCaches:
    def test_views_are_cached_and_share_memory(self):
        ctx = _ctx(num_gpus=2)
        mgr = SharedBufferManager(
            ctx.device(0), local_rows=10, layer_dims=(8, 16, 4),
            bc_rows=12, bc_dim=16, overlap=True,
        )
        v = mgr.hw_view(4)
        assert mgr.hw_view(4) is v
        assert mgr.hw_view(16) is not v
        b = mgr.bc_view(0, 6, 8)
        assert mgr.bc_view(0, 6, 8) is b
        assert mgr.bc_view(2, 6, 8) is b  # 2 % len(bc) == 0
        assert mgr.bc_view(1, 6, 8) is not b
        if v.data is not None and mgr.hw.data is not None:
            v.data[0, 0] = 42.0
            assert mgr.hw.data[0, 0] == 42.0

    def test_oversized_views_still_rejected(self):
        from repro.errors import ConfigurationError

        ctx = _ctx(num_gpus=2)
        mgr = SharedBufferManager(
            ctx.device(0), local_rows=10, layer_dims=(8, 16, 4),
            bc_rows=12, bc_dim=16, overlap=False,
        )
        with pytest.raises(ConfigurationError):
            mgr.hw_view(32)
        with pytest.raises(ConfigurationError):
            mgr.bc_view(0, 13, 16)
