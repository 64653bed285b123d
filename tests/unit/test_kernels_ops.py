"""Timed kernels: functional math + cost submission + shape errors."""

import numpy as np
import pytest

from repro.device import Engine, Mode, VirtualGPU
from repro.errors import ShapeError
from repro.hardware.machines import V100
from repro.kernels import CostModel
from repro.kernels.ops import (
    adam_step_op,
    build_spmm_group,
    gemm,
    gemm_many,
    gemm_relu_backward_many,
    relu_backward,
    relu_many,
    softmax_cross_entropy,
    specialize_spmm_group,
    spmm,
    spmm_many,
)
from repro.sparse import CSRMatrix
from repro.sparse.csr import _csr_matvecs
from repro.sparse.symbolic import SymbolicCSR


@pytest.fixture()
def env():
    engine = Engine()
    dev = VirtualGPU(V100, rank=0)
    cost = CostModel(V100)
    return engine, dev, cost


@pytest.fixture()
def sym_env():
    engine = Engine()
    dev = VirtualGPU(V100, rank=0, mode=Mode.SYMBOLIC)
    cost = CostModel(V100)
    return engine, dev, cost


class TestGemm:
    def test_basic(self, env, rng):
        engine, dev, cost = env
        a = dev.from_numpy(rng.random((5, 4)).astype(np.float32))
        b = dev.from_numpy(rng.random((4, 3)).astype(np.float32))
        out = dev.empty((5, 3))
        ev = gemm(engine, cost, dev.compute_stream, a, b, out)
        assert ev.time > 0
        assert np.allclose(out.data, a.data @ b.data, atol=1e-5)

    def test_transposes(self, env, rng):
        engine, dev, cost = env
        a = dev.from_numpy(rng.random((4, 5)).astype(np.float32))
        b = dev.from_numpy(rng.random((3, 4)).astype(np.float32))
        out = dev.empty((5, 3))
        gemm(engine, cost, dev.compute_stream, a, b, out,
             transpose_a=True, transpose_b=True)
        assert np.allclose(out.data, a.data.T @ b.data.T, atol=1e-5)

    def test_accumulate(self, env, rng):
        engine, dev, cost = env
        a = dev.from_numpy(rng.random((3, 3)).astype(np.float32))
        b = dev.from_numpy(rng.random((3, 3)).astype(np.float32))
        out = dev.from_numpy(np.ones((3, 3), dtype=np.float32))
        gemm(engine, cost, dev.compute_stream, a, b, out, accumulate=True)
        assert np.allclose(out.data, 1.0 + a.data @ b.data, atol=1e-5)

    def test_shape_mismatch(self, env):
        engine, dev, cost = env
        a, b = dev.empty((3, 4)), dev.empty((5, 2))
        out = dev.empty((3, 2))
        with pytest.raises(ShapeError):
            gemm(engine, cost, dev.compute_stream, a, b, out)

    def test_out_shape_mismatch(self, env):
        engine, dev, cost = env
        a, b = dev.empty((3, 4)), dev.empty((4, 2))
        out = dev.empty((3, 3))
        with pytest.raises(ShapeError):
            gemm(engine, cost, dev.compute_stream, a, b, out)

    def test_symbolic_costs_without_data(self, sym_env):
        engine, dev, cost = sym_env
        a, b, out = dev.empty((3, 4)), dev.empty((4, 2)), dev.empty((3, 2))
        ev = gemm(engine, cost, dev.compute_stream, a, b, out)
        assert ev.time > 0
        assert len(engine.trace) == 1


class TestGemmReluBackward:
    def test_fused_mask(self, env, rng):
        engine, dev, cost = env
        hwg = dev.from_numpy(rng.standard_normal((6, 4)).astype(np.float32))
        w = dev.from_numpy(rng.standard_normal((5, 4)).astype(np.float32))
        stored = rng.standard_normal((6, 5)).astype(np.float32)
        out = dev.from_numpy(stored.copy())
        gemm_relu_backward_many(
            engine, [(dev.compute_stream, cost, hwg, w, out, ())])
        expected = (hwg.data @ w.data.T) * (stored > 0)
        assert np.allclose(out.data, expected, atol=1e-5)

    def test_shape_checks(self, env):
        engine, dev, cost = env
        with pytest.raises(ShapeError):
            gemm_relu_backward_many(
                engine,
                [(dev.compute_stream, cost,
                  dev.empty((6, 4)), dev.empty((5, 3)), dev.empty((6, 5)), ())],
            )


class TestSpmm:
    def test_functional(self, env, rng):
        engine, dev, cost = env
        dense_a = (rng.random((6, 8)) < 0.4).astype(np.float32)
        tile = CSRMatrix.from_dense(dense_a)
        x = dev.from_numpy(rng.random((8, 3)).astype(np.float32))
        out = dev.zeros((6, 3))
        ev = spmm(engine, cost, dev.compute_stream, tile, x, out, stage=2)
        assert np.allclose(out.data, dense_a @ x.data, atol=1e-5)
        assert engine.trace[-1].stage == 2

    def test_accumulate_flag(self, env, rng):
        engine, dev, cost = env
        dense_a = np.eye(4, dtype=np.float32)
        tile = CSRMatrix.from_dense(dense_a)
        x = dev.from_numpy(np.ones((4, 2), dtype=np.float32))
        out = dev.from_numpy(np.ones((4, 2), dtype=np.float32))
        spmm(engine, cost, dev.compute_stream, tile, x, out, accumulate=False)
        assert np.allclose(out.data, 1.0)
        spmm(engine, cost, dev.compute_stream, tile, x, out, accumulate=True)
        assert np.allclose(out.data, 2.0)

    def test_symbolic_tile(self, env):
        engine, dev, cost = env
        tile = SymbolicCSR((6, 8), nnz=12)
        x, out = dev.empty((8, 3)), dev.empty((6, 3))
        ev = spmm(engine, cost, dev.compute_stream, tile, x, out)
        assert ev.time > 0

    def test_shape_error(self, env):
        engine, dev, cost = env
        tile = SymbolicCSR((6, 8), nnz=12)
        with pytest.raises(ShapeError):
            spmm(engine, cost, dev.compute_stream, tile, dev.empty((5, 3)),
                 dev.empty((6, 3)))


class TestElementwise:
    def test_relu_forward_inplace(self, env):
        engine, dev, cost = env
        t = dev.from_numpy(np.array([[-1.0, 2.0], [0.5, -3.0]], dtype=np.float32))
        relu_many(engine, [(dev.compute_stream, cost, t, ())])
        assert np.allclose(t.data, [[0, 2], [0.5, 0]])

    def test_relu_backward_mask(self, env):
        engine, dev, cost = env
        grad = dev.from_numpy(np.ones((2, 2), dtype=np.float32))
        act = dev.from_numpy(np.array([[0.0, 1.0], [2.0, 0.0]], dtype=np.float32))
        relu_backward(engine, cost, dev.compute_stream, grad, act)
        assert np.allclose(grad.data, [[0, 1], [1, 0]])

    def test_relu_backward_shape(self, env):
        engine, dev, cost = env
        with pytest.raises(ShapeError):
            relu_backward(engine, cost, dev.compute_stream,
                          dev.empty((2, 2)), dev.empty((3, 2)))


class TestLoss:
    def test_matches_manual_computation(self, env, rng):
        engine, dev, cost = env
        logits_host = rng.standard_normal((6, 4)).astype(np.float32)
        labels = rng.integers(0, 4, size=6)
        mask = np.array([True, True, False, True, False, False])
        logits = dev.from_numpy(logits_host)
        grad = dev.empty((6, 4))
        total_train = int(mask.sum())
        loss, _ = softmax_cross_entropy(
            engine, cost, dev.compute_stream, logits, labels, mask, grad,
            total_train=total_train,
        )
        # manual
        rows = np.nonzero(mask)[0]
        z = logits_host[rows]
        z = z - z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        expected = -logp[np.arange(rows.size), labels[rows]].sum()
        assert loss == pytest.approx(expected, rel=1e-5)
        assert np.allclose(grad.data[~mask], 0.0)
        # gradient rows sum to zero (softmax minus one-hot)
        assert np.allclose(grad.data[mask].sum(axis=1), 0.0, atol=1e-6)

    def test_alias_safe(self, env, rng):
        """grad_out may be the logits tensor itself (buffer reuse)."""
        engine, dev, cost = env
        logits_host = rng.standard_normal((5, 3)).astype(np.float32)
        labels = rng.integers(0, 3, size=5)
        mask = np.ones(5, dtype=bool)
        separate_logits = dev.from_numpy(logits_host)
        separate_grad = dev.empty((5, 3))
        loss_a, _ = softmax_cross_entropy(
            engine, cost, dev.compute_stream, separate_logits, labels, mask,
            separate_grad, total_train=5,
        )
        aliased = dev.from_numpy(logits_host)
        loss_b, _ = softmax_cross_entropy(
            engine, cost, dev.compute_stream, aliased, labels, mask,
            aliased, total_train=5,
        )
        assert loss_b == pytest.approx(loss_a)
        assert np.allclose(aliased.data, separate_grad.data, atol=1e-7)

    def test_total_train_validation(self, env):
        engine, dev, cost = env
        t = dev.empty((2, 2))
        with pytest.raises(ValueError):
            softmax_cross_entropy(
                engine, cost, dev.compute_stream, t, None, None, t, total_train=0
            )


class TestAdam:
    def test_matches_optimizer_class(self, env, rng):
        from repro.nn import AdamOptimizer

        engine, dev, cost = env
        w0 = rng.standard_normal((4, 3)).astype(np.float32)
        g = rng.standard_normal((4, 3)).astype(np.float32)

        ref_w = w0.copy()
        opt = AdamOptimizer([ref_w], lr=0.01)
        opt.step([g])

        w = w0.copy()
        m = np.zeros_like(w)
        v = np.zeros_like(w)
        adam_step_op(
            engine, cost, dev.compute_stream, w, g, m, v,
            t=1, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8,
        )
        assert np.allclose(w, ref_w, atol=1e-6)


# -- per-rank groups ------------------------------------------------------------

RANKS = 3


def _normal(rng, shape):
    return rng.standard_normal(shape).astype(np.float32)


def _sparse_tile(rng, rows, cols):
    values = _normal(rng, (rows, cols))
    return CSRMatrix.from_dense(np.where(rng.random((rows, cols)) < 0.5,
                                         values, np.float32(0.0)))


def _group_env():
    """A fresh engine and three ranks, each with a comm op to depend on."""
    engine = Engine()
    devs = [VirtualGPU(V100, rank=r) for r in range(RANKS)]
    costs = [CostModel(V100) for _ in range(RANKS)]
    deps = [
        engine.submit(dev.comm_stream, f"bcast{r}", "comm", 1e-5 * (r + 1))
        for r, dev in enumerate(devs)
    ]
    return engine, devs, costs, deps


def _assert_same_run(got, want):
    """Payloads bitwise equal; event times and the whole trace equal."""
    got_outs, got_events, got_trace = got
    want_outs, want_events, want_trace = want
    assert len(got_outs) == len(want_outs) == RANKS
    for g, w in zip(got_outs, want_outs):
        assert g.tobytes() == w.tobytes()
    assert [e.time for e in got_events] == [e.time for e in want_events]
    assert got_trace == want_trace


class TestGroupsMatchSingleOps:
    """Each ``*_many`` kernel equals one one-item call per item."""

    @pytest.mark.parametrize("accumulate", [False, True])
    @pytest.mark.parametrize("transpose_b", [False, True])
    @pytest.mark.parametrize("transpose_a", [False, True])
    def test_gemm_many(self, transpose_a, transpose_b, accumulate):
        flags = dict(transpose_a=transpose_a, transpose_b=transpose_b,
                     accumulate=accumulate, name="g")

        def run(grouped):
            engine, devs, costs, deps = _group_env()
            rng = np.random.default_rng(1)
            items = []
            for r, dev in enumerate(devs):
                m, k, n = 5 + r, 4 + r, 3
                a = _normal(rng, (k, m) if transpose_a else (m, k))
                b = _normal(rng, (n, k) if transpose_b else (k, n))
                items.append((dev.compute_stream, costs[r], dev.from_numpy(a),
                              dev.from_numpy(b),
                              dev.from_numpy(_normal(rng, (m, n))), (deps[r],)))
            if grouped:
                events = gemm_many(engine, items, **flags)
            else:
                events = [gemm(engine, cost, stream, a, b, out, deps=d, **flags)
                          for stream, cost, a, b, out, d in items]
            return [item[4].data for item in items], events, engine.trace

        _assert_same_run(run(True), run(False))

    @pytest.mark.parametrize("transpose_b", [False, True])
    def test_gemm_relu_backward_many(self, transpose_b):
        def run(grouped):
            engine, devs, costs, deps = _group_env()
            rng = np.random.default_rng(2)
            items = []
            for r, dev in enumerate(devs):
                m, k, n = 5 + r, 4, 3 + r
                b = _normal(rng, (n, k) if transpose_b else (k, n))
                items.append((dev.compute_stream, costs[r],
                              dev.from_numpy(_normal(rng, (m, k))),
                              dev.from_numpy(b),
                              dev.from_numpy(_normal(rng, (m, n))), (deps[r],)))
            if grouped:
                events = gemm_relu_backward_many(
                    engine, items, transpose_b=transpose_b, name="h")
            else:
                events = [
                    gemm_relu_backward_many(engine, [item],
                                            transpose_b=transpose_b,
                                            name="h")[0]
                    for item in items
                ]
            return [item[4].data for item in items], events, engine.trace

        _assert_same_run(run(True), run(False))

    def test_relu_many(self):
        def run(grouped):
            engine, devs, costs, deps = _group_env()
            rng = np.random.default_rng(3)
            items = [
                (dev.compute_stream, costs[r],
                 dev.from_numpy(_normal(rng, (4 + r, 3))), (deps[r],))
                for r, dev in enumerate(devs)
            ]
            if grouped:
                events = relu_many(engine, items, name="r")
            else:
                events = [relu_many(engine, [item], name="r")[0]
                          for item in items]
            return [item[2].data for item in items], events, engine.trace

        _assert_same_run(run(True), run(False))

    @pytest.mark.parametrize("accumulate", [False, True])
    def test_spmm_many(self, accumulate):
        flags = dict(accumulate=accumulate, stage=1, name="s",
                     bw_fraction=0.6, overlap_comm_time=2e-6)

        def run(grouped):
            engine, devs, costs, deps = _group_env()
            rng = np.random.default_rng(4)
            items = []
            for r, dev in enumerate(devs):
                rows, k, d = 5 + r, 6, 3
                # rank 1 holds an nnz = 0 tile
                tile = (CSRMatrix.empty((rows, k)) if r == 1
                        else _sparse_tile(rng, rows, k))
                items.append((dev.compute_stream, costs[r], tile,
                              dev.from_numpy(_normal(rng, (k, d))),
                              dev.from_numpy(_normal(rng, (rows, d))),
                              (deps[r],)))
            if grouped:
                events = spmm_many(engine, items, **flags)
            else:
                events = [spmm_many(engine, [item], **flags)[0]
                          for item in items]
            return [item[4].data for item in items], events, engine.trace

        _assert_same_run(run(True), run(False))


@pytest.mark.skipif(_csr_matvecs() is None, reason="no compiled CSR kernel")
class TestSpecializeSpmmGroup:
    """The prebound stage closure equals the generic group closure."""

    CASES = ["contiguous", "strided-dense-shared", "strided-dense",
             "strided-out", "empty-tile"]

    @staticmethod
    def _stage(case):
        """Three ranks' SpMM items, the shared dense operand and the
        arrays holding every output (a strided out's whole buffer)."""
        rng = np.random.default_rng(5)
        k, d = 6, 3
        x = _normal(rng, (k, d))
        items, buffers = [], []
        for r in range(RANKS):
            dev = VirtualGPU(V100, rank=r)
            rows = 4 + r
            tile = _sparse_tile(rng, rows, k)
            if case == "empty-tile" and r == 1:
                tile = CSRMatrix.empty((rows, k))
            if case.startswith("strided-dense") and r > 0:
                dense = dev.zeros((k, d + 2)).view2d(k, d).load_(x)
                assert not dense.data.flags.c_contiguous
            else:
                dense = dev.from_numpy(x)
            if case == "strided-out":
                wide = dev.from_numpy(_normal(rng, (rows, d + 2)))
                out = wide.view2d(rows, d)
                buffers.append(wide.data)
            else:
                out = dev.from_numpy(_normal(rng, (rows, d)))
                buffers.append(out.data)
            items.append((dev.compute_stream, CostModel(V100), tile, dense,
                          out, ()))
        shared = items[0][3] if case == "strided-dense-shared" else None
        return items, shared, buffers

    @pytest.mark.parametrize("accumulate", [False, True])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_generic_closure(self, case, accumulate):
        generic_items, _, generic_outs = self._stage(case)
        fast_items, shared, fast_outs = self._stage(case)
        _, generic = build_spmm_group(generic_items, accumulate=accumulate)
        fast = specialize_spmm_group(fast_items, accumulate=accumulate,
                                     shared_dense=shared)
        assert fast is not None
        rng = np.random.default_rng(6)
        for _ in range(2):
            generic()
            fast()
            for g, f in zip(generic_outs, fast_outs):
                assert g.tobytes() == f.tobytes()
            # the next epoch's operand values land in place
            x = _normal(rng, generic_items[0][3].shape)
            for item in generic_items + fast_items:
                np.copyto(item[3].data, x)
