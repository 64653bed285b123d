"""Timed kernels: functional NumPy compute + simulated duration.

In MG-GCN every stage launches one kernel per GPU, so each kernel here
takes a per-rank group of ``items`` — one per GPU, a one-item group on
one GPU — and:

1. validates every item and prices it with that rank's cost model,
2. builds one group *closure* that performs the real computation
   in-place on the output tensors' payloads (none in symbolic mode),
3. executes the closure eagerly, in host program order,
4. submits one op per item through :meth:`Engine.submit`, handing the
   closure to the first op so an active epoch capture
   (:mod:`repro.plan`) can record it for replay,
5. returns one completion :class:`~repro.device.stream.Event` per item.

The group kernels are :func:`gemm_many`, :func:`relu_many`,
:func:`gemm_relu_backward_many` and :func:`spmm_many`; :func:`gemm` and
:func:`spmm` are their one-item forms. ReLU backward, the fused loss and
the Adam step stay single-op kernels.

Functional compute happens eagerly in host program order, which is a
valid sequentialisation of the simulated schedule because the schedulers
in :mod:`repro.core` submit ops in data-dependency order per buffer —
and it is exactly the order a replayed plan re-runs the closures in.

Closures dereference tensor payloads (``t.data``) at call time, so they
stay valid as long as buffers are mutated in place (the invariant the
shared-buffer scheme already relies on).

The array-level math is five private helpers (:func:`_gemm`,
:func:`_spmm`, :func:`_relu`, :func:`_relu_grad`,
:func:`_gemm_relu_grad`) calling NumPy and the CSR tile's SpMM
directly; the kernels, their group closures and the serving engine all
share them.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.device.engine import Engine
from repro.device.stream import Event, Stream
from repro.device.tensor import DeviceTensor
from repro.errors import ShapeError
from repro.kernels.cost import CostModel
from repro.sparse.csr import CSRMatrix


def _functional(*tensors: DeviceTensor) -> bool:
    """True when every tensor carries data (functional run)."""
    return all(t.data is not None for t in tensors)


def _dims(t: DeviceTensor, transpose: bool) -> Tuple[int, int]:
    r, c = t.rows, t.cols
    return (c, r) if transpose else (r, c)


def _gemm_dims(
    a: DeviceTensor,
    b: DeviceTensor,
    out: DeviceTensor,
    transpose_a: bool,
    transpose_b: bool,
    name: str,
) -> Tuple[int, int, int]:
    """Validate ``out = op(a) @ op(b)`` shapes; returns ``(m, n, k)``."""
    m, k = _dims(a, transpose_a)
    k2, n = _dims(b, transpose_b)
    if k != k2:
        raise ShapeError(
            f"{name}: inner dims differ: op(a)={m}x{k}, op(b)={k2}x{n}"
        )
    if (out.rows, out.cols) != (m, n):
        raise ShapeError(f"{name}: out is {out.rows}x{out.cols}, expected {m}x{n}")
    return m, n, k


def _check_spmm(tile, dense: DeviceTensor, out: DeviceTensor, name: str) -> None:
    """Validate ``out = tile @ dense`` shapes."""
    rows, k = tile.shape
    if dense.rows != k:
        raise ShapeError(
            f"{name}: tile is {rows}x{k} but dense operand has {dense.rows} rows"
        )
    if (out.rows, out.cols) != (rows, dense.cols):
        raise ShapeError(
            f"{name}: out is {out.rows}x{out.cols}, expected {rows}x{dense.cols}"
        )


# -- array-level math -----------------------------------------------------------


def _gemm(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray,
    transpose_a: bool = False,
    transpose_b: bool = False,
    accumulate: bool = False,
) -> None:
    """``out (+)= op(a) @ op(b)``."""
    lhs = a.T if transpose_a else a
    rhs = b.T if transpose_b else b
    product = lhs @ rhs
    if accumulate:
        out += product
    else:
        np.copyto(out, product)


def _spmm(tile, dense: np.ndarray, out: np.ndarray,
          accumulate: bool = True) -> None:
    """``out (+)= tile @ dense`` for a CSR tile."""
    tile.spmm_into(dense, out, accumulate=accumulate)


def _relu(x: np.ndarray) -> None:
    """In-place ReLU."""
    np.maximum(x, 0.0, out=x)


def _relu_grad(grad: np.ndarray, activated: np.ndarray) -> None:
    """In-place ``grad *= (activated > 0)``."""
    grad *= activated > 0


def _gemm_relu_grad(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray,
    transpose_b: bool = True,
) -> None:
    """``out = (a @ op(b)) * (out > 0)`` — GeMM with ReLU-mask epilogue."""
    rhs = b.T if transpose_b else b
    product = a @ rhs
    np.multiply(product, out > 0, out=out)


# -- timed kernels --------------------------------------------------------------


def _submit_group(
    engine: Engine,
    specs: Sequence[tuple],
    compute: Optional[Callable[[], None]],
) -> List[Event]:
    """Submit a per-rank group's ops in order through :meth:`Engine.submit`.

    ``specs[i]`` is ``(stream, name, category, duration, deps, stage,
    nbytes, compute, correlation, flops)`` — :meth:`Engine.submit`'s
    arguments in order. The group closure ``compute`` (already run, or
    None) rides on the first op; replay runs it once at that op's slot.
    """
    submit = engine.submit
    events = []
    for (stream, name, category, duration, deps, stage, nbytes, _,
         correlation, flops) in specs:
        events.append(submit(stream, name, category, duration, deps, stage,
                             nbytes, compute, correlation, flops))
        compute = None
    return events


def gemm_many(
    engine: Engine,
    items: Sequence[tuple],
    transpose_a: bool = False,
    transpose_b: bool = False,
    accumulate: bool = False,
    name: str = "gemm",
) -> List[Event]:
    """``out (+)= op(a) @ op(b)`` per rank — the cuBLAS-style dense kernel.

    ``items`` is ``[(stream, cost, a, b, out, deps), ...]`` sharing the
    flag set; one group closure runs every item's GeMM in order.
    """
    specs = []
    group = []
    for stream, cost, a, b, out, deps in items:
        m, n, k = _gemm_dims(a, b, out, transpose_a, transpose_b, name)
        if _functional(a, b, out):
            group.append((a, b, out))
        duration = cost.gemm_time(m, n, k, itemsize=out.dtype.itemsize)
        specs.append((stream, name, "gemm", duration, tuple(deps), None, 0,
                      None, None, 2.0 * m * n * k))
    compute = None
    if group:

        def compute() -> None:
            for a, b, out in group:
                _gemm(a.data, b.data, out.data, transpose_a=transpose_a,
                      transpose_b=transpose_b, accumulate=accumulate)

        compute()
    return _submit_group(engine, specs, compute)


def gemm(
    engine: Engine,
    cost: CostModel,
    stream: Stream,
    a: DeviceTensor,
    b: DeviceTensor,
    out: DeviceTensor,
    transpose_a: bool = False,
    transpose_b: bool = False,
    accumulate: bool = False,
    deps: Sequence[Event] = (),
    name: str = "gemm",
) -> Event:
    """One-item :func:`gemm_many`."""
    return gemm_many(engine, [(stream, cost, a, b, out, deps)],
                     transpose_a=transpose_a, transpose_b=transpose_b,
                     accumulate=accumulate, name=name)[0]


def relu_many(
    engine: Engine,
    items: Sequence[tuple],
    name: str = "relu",
) -> List[Event]:
    """In-place ReLU per rank (the paper applies sigma in-place on the
    AHW buffer). ``items`` is ``[(stream, cost, tensor, deps), ...]``."""
    specs = []
    group = []
    for stream, cost, tensor, deps in items:
        if tensor.data is not None:
            group.append(tensor)
        duration = cost.elementwise_time(tensor.size, reads=1, writes=1,
                                         itemsize=tensor.dtype.itemsize)
        specs.append((stream, name, "activation", duration, tuple(deps),
                      None, 0, None, None, float(tensor.size)))
    compute = None
    if group:

        def compute() -> None:
            for tensor in group:
                _relu(tensor.data)

        compute()
    return _submit_group(engine, specs, compute)


def gemm_relu_backward_many(
    engine: Engine,
    items: Sequence[tuple],
    transpose_b: bool = True,
    name: str = "gemm_relu_bwd",
) -> List[Event]:
    """``out = (a @ op(b)) * (out > 0)`` per rank — eq. (11) fused with
    eq. (8).

    ``items`` is ``[(stream, cost, a, b, out, deps), ...]``. The GeMM
    producing the propagated gradient ``H_G = HW_G W^T`` writes directly
    into the previous layer's output buffer, with an epilogue that
    multiplies each element by that buffer's ReLU mask *as it is
    overwritten*. This fusion (a cuBLAS epilogue in the real system) is
    what lets the gradient share the forward activation's buffer and is
    load-bearing for the paper's L+3 buffer count.
    """
    specs = []
    group = []
    for stream, cost, a, b, out, deps in items:
        m, n, k = _gemm_dims(a, b, out, False, transpose_b, name)
        if _functional(a, b, out):
            group.append((a, b, out))
        duration = cost.gemm_time(m, n, k, itemsize=out.dtype.itemsize)
        specs.append((stream, name, "gemm", duration, tuple(deps), None, 0,
                      None, None, 2.0 * m * n * k + m * n))
    compute = None
    if group:

        def compute() -> None:
            for a, b, out in group:
                _gemm_relu_grad(a.data, b.data, out.data,
                                transpose_b=transpose_b)

        compute()
    return _submit_group(engine, specs, compute)


def relu_backward(
    engine: Engine,
    cost: CostModel,
    stream: Stream,
    grad: DeviceTensor,
    activated: DeviceTensor,
    deps: Sequence[Event] = (),
    name: str = "relu_bwd",
) -> Event:
    """In-place ``grad *= (activated > 0)`` — eq. (8)'s sigma'.

    ``activated`` holds the *post*-activation values (ReLU was applied
    in-place), whose positivity mask equals the pre-activation mask.
    """
    if grad.shape != activated.shape:
        raise ShapeError(
            f"{name}: grad {grad.shape} vs activation {activated.shape}"
        )
    compute: Optional[Callable[[], None]] = None
    if _functional(grad, activated):

        def compute() -> None:
            _relu_grad(grad.data, activated.data)

        compute()
    duration = cost.elementwise_time(grad.size, reads=2, writes=1,
                                     itemsize=grad.dtype.itemsize)
    return engine.submit(stream, name, "activation", duration, deps=deps,
                         compute=compute, flops=float(grad.size))


def softmax_cross_entropy(
    engine: Engine,
    cost: CostModel,
    stream: Stream,
    logits: DeviceTensor,
    labels: Optional[np.ndarray],
    mask: Optional[np.ndarray],
    grad_out: DeviceTensor,
    total_train: int,
    deps: Sequence[Event] = (),
    name: str = "softmax_xent",
) -> Tuple[float, Event]:
    """Fused softmax + cross-entropy loss + gradient.

    ``labels``/``mask`` are host arrays local to this device's row block
    (labels int64, mask bool; ``mask`` selects training vertices).
    ``grad_out`` receives ``(softmax - onehot) / total_train`` on masked
    rows and zero elsewhere; ``total_train`` is the global number of
    training vertices so that partitioned and single-device runs compute
    identical gradients. Returns ``(local_loss_sum, event)`` — the caller
    is responsible for reducing losses across devices. Under capture the
    closure's return value is what replay re-accumulates per epoch.
    """
    if (grad_out.rows, grad_out.cols) != (logits.rows, logits.cols):
        raise ShapeError(
            f"{name}: grad_out {grad_out.shape} != logits {logits.shape}"
        )
    if total_train <= 0:
        raise ValueError(f"{name}: total_train must be positive, got {total_train}")
    loss_value = 0.0
    compute: Optional[Callable[[], float]] = None
    if _functional(logits, grad_out) and labels is not None:

        def compute() -> float:
            z = logits.data
            row_mask = mask if mask is not None else np.ones(z.shape[0], dtype=bool)
            rows = np.nonzero(row_mask)[0]
            # Read the logits *before* clearing grad_out: the trainer
            # aliases grad_out to the logits buffer (the gradient replaces
            # the layer output in the paper's buffer-reuse scheme, eq. (19)).
            loss = 0.0
            probs = None
            if rows.size:
                sub = z[rows].copy()
                shifted = sub - sub.max(axis=1, keepdims=True)
                exp = np.exp(shifted)
                denom = exp.sum(axis=1, keepdims=True)
                log_probs = shifted - np.log(denom)
                picked = log_probs[np.arange(rows.size), labels[rows]]
                loss = float(-picked.sum())
                probs = exp / denom
                probs[np.arange(rows.size), labels[rows]] -= 1.0
            grad_out.data.fill(0.0)
            if probs is not None:
                grad_out.data[rows] = probs / total_train
            return loss

        loss_value = compute()
    duration = cost.softmax_xent_time(logits.rows, logits.cols,
                                      itemsize=logits.dtype.itemsize)
    event = engine.submit(stream, name, "loss", duration, deps=deps,
                          compute=compute,
                          flops=5.0 * logits.rows * logits.cols)
    return loss_value, event


def adam_step_op(
    engine: Engine,
    cost: CostModel,
    stream: Stream,
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: Union[int, Callable[[], int]],
    lr: float,
    beta1: float,
    beta2: float,
    eps: float,
    deps: Sequence[Event] = (),
    name: str = "adam",
) -> Event:
    """One Adam update over a rank's host-resident weight arrays.

    Weights are replicated per-device in the real system; the trainer
    submits this op on every device's stream with that rank's arrays.
    The arrays may be flat buffers holding every layer, so one launch
    updates the whole model (a multi-tensor optimizer step).

    ``t`` may be an int or a zero-arg callable returning the current
    step; trainers that support epoch replay pass a callable so the
    captured closure reads the live step count each epoch instead of
    baking in the capture epoch's value.
    """

    def compute() -> None:
        step = t() if callable(t) else t
        # explicit out= forms of m *= ..., m += ... etc.: augmented
        # assignment would rebind the enclosing-scope names.
        np.multiply(m, beta1, out=m)
        np.add(m, (1.0 - beta1) * grad, out=m)
        np.multiply(v, beta2, out=v)
        np.add(v, (1.0 - beta2) * np.square(grad), out=v)
        m_hat = m / (1.0 - beta1**step)
        v_hat = v / (1.0 - beta2**step)
        np.subtract(param, lr * m_hat / (np.sqrt(v_hat) + eps), out=param)

    compute()
    duration = cost.adam_time(param.size, itemsize=param.dtype.itemsize)
    return engine.submit(stream, name, "adam", duration, deps=deps,
                         compute=compute, flops=10.0 * param.size)


# -- SpMM -----------------------------------------------------------------------


def _spmm_duration(
    cost: CostModel,
    rows: int,
    nnz: int,
    d: int,
    dense_rows: int,
    itemsize: int,
    bw_fraction: float,
    overlap_comm_time: float,
) -> float:
    """SpMM duration with §6.3's bounded overlap derate (see :func:`spmm`).

    Memoized on the cost model alongside the plain kernel times: the
    derate arithmetic runs once per distinct operand signature, then
    every per-tile submission is a single cache hit.
    """
    return cost._memoize(
        ("spmm_overlap", rows, nnz, d, dense_rows, itemsize, bw_fraction,
         overlap_comm_time),
        lambda: _spmm_duration_uncached(cost, rows, nnz, d, dense_rows,
                                        itemsize, bw_fraction,
                                        overlap_comm_time),
    )


def _spmm_duration_uncached(
    cost: CostModel,
    rows: int,
    nnz: int,
    d: int,
    dense_rows: int,
    itemsize: int,
    bw_fraction: float,
    overlap_comm_time: float,
) -> float:
    base = cost.spmm_time(
        rows=rows, nnz=nnz, d=d, dense_rows=dense_rows,
        itemsize=itemsize, bw_fraction=1.0,
    )
    if overlap_comm_time > 0.0 and bw_fraction < 1.0:
        fully_derated = cost.spmm_time(
            rows=rows, nnz=nnz, d=d, dense_rows=dense_rows,
            itemsize=itemsize, bw_fraction=bw_fraction,
        )
        partially_derated = base + overlap_comm_time * (1.0 - bw_fraction)
        return min(fully_derated, partially_derated)
    if bw_fraction < 1.0:
        return cost.spmm_time(
            rows=rows, nnz=nnz, d=d, dense_rows=dense_rows,
            itemsize=itemsize, bw_fraction=bw_fraction,
        )
    return base


def build_spmm_group(
    items: Sequence[tuple],
    accumulate: bool = True,
    stage: Optional[int] = None,
    name: str = "spmm",
    bw_fraction: float = 1.0,
    overlap_comm_time: float = 0.0,
) -> tuple:
    """Validate one SpMM group; return its ``(specs, compute)`` pair.

    ``items`` is ``[(stream, cost, tile, dense, out, deps), ...]``; each
    ``tile`` may be a :class:`CSRMatrix` (functional) or a
    :class:`~repro.sparse.symbolic.SymbolicCSR` (symbolic runs). Shared
    by :func:`spmm_many` (which executes and submits immediately) and
    the stage-plan cache in :mod:`repro.core.spmm_mg` (which snapshots
    the specs once and replays them every epoch). The returned group
    closure is NOT yet executed; ``None`` when no item is functional.

    ``overlap_comm_time`` models §6.3's bandwidth sharing: while a
    broadcast of that duration is in flight, the SpMM runs at
    ``bw_fraction`` of its memory bandwidth; once the broadcast drains,
    it runs at full speed. The slowdown is therefore bounded both by
    the fully-derated duration and by ``base + B * (1 - f)``.
    """
    specs = []
    group = []
    for stream, cost, tile, dense, out, deps in items:
        _check_spmm(tile, dense, out, name)
        rows, k = tile.shape
        d = dense.cols
        nnz = tile.nnz
        if isinstance(tile, CSRMatrix) and _functional(dense, out):
            group.append((tile, dense, out))
        duration = _spmm_duration(cost, rows, nnz, d, k, out.dtype.itemsize,
                                  bw_fraction, overlap_comm_time)
        specs.append((stream, name, "spmm", duration, tuple(deps), stage, 0,
                      None, None, 2.0 * nnz * d))
    if not group:
        return specs, None

    def compute() -> None:
        # deref .data at call time, like the single-op closures, so
        # replay sees in-place buffer mutations.
        for tile, dense, out in group:
            _spmm(tile, dense.data, out.data, accumulate=accumulate)

    return specs, compute


def specialize_spmm_group(
    items: Sequence[tuple],
    accumulate: bool = True,
    shared_dense: Optional[DeviceTensor] = None,
) -> Optional[Callable[[], None]]:
    """Prebind a stage's SpMM group straight to the compiled kernel.

    Returns a closure equivalent to the generic group closure of
    :func:`build_spmm_group` — same kernels, same float sequences — with
    every per-call lookup (fast-arg fetch, dtype and contiguity checks,
    flat views) resolved once. Meant for the epoch-invariant stage plans
    of :mod:`repro.core.spmm_mg`, whose operand buffers are
    allocation-stable across epochs. Returns ``None`` when any item
    cannot be prebound (symbolic operands, no compiled kernel, dtype
    mismatch) — callers keep the generic closure.

    ``shared_dense`` marks every item's dense operand as holding the same
    values as that tensor (the broadcast-stage invariant: each rank reads
    its copy of the root's tile). Strided operands then read from one
    refreshed contiguous staging buffer instead of each paying a flatten
    copy per call — copies are bit-exact, so the kernel sees the same
    floats either way.
    """
    recs = []
    staging = None
    for _stream, _cost, tile, dense, out, _deps in items:
        if not isinstance(tile, CSRMatrix):
            return None
        dense_arr = dense.data
        out_arr = out.data
        if dense_arr is None or out_arr is None:
            return None
        fast = tile._fast_spmm
        if fast is None:
            fast = tile._spmm_fast_args()
        m, k, indptr, indices, data, dtype, matvecs = fast
        if dtype is None or dense_arr.dtype != dtype or out_arr.dtype != dtype:
            return None
        n_vecs = dense_arr.shape[1]
        # a C-contiguous operand's flat view is stable; a strided one
        # must be re-flattened (copied) per call, as spmm_into does —
        # unless it mirrors the shared broadcast tile, in which case all
        # such items read the one staging copy.
        if dense_arr.flags.c_contiguous:
            dense_flat = dense_arr.ravel()
            dense_dyn = None
        elif (shared_dense is not None
              and dense.shape == shared_dense.shape
              and shared_dense.data is not None):
            if staging is None:
                staging = np.empty(shared_dense.shape, dtype=dtype)
            dense_flat = staging.ravel()
            dense_dyn = None
        else:
            dense_flat = None
            dense_dyn = dense_arr
        if out_arr.flags.c_contiguous:
            scratch = None
            target = out_arr.ravel()
        else:
            # strided out: accumulate into a reused zeroed scratch and
            # add — the same float sequence as spmm_into's fallback.
            scratch = np.zeros((m, n_vecs), dtype=dtype)
            target = scratch.ravel()
        recs.append((tile.nnz, matvecs, m, k, n_vecs, indptr, indices, data,
                     dense_dyn, dense_flat, out_arr, scratch, target))
    shared_src = shared_dense.data if staging is not None else None

    def compute() -> None:
        if staging is not None:
            np.copyto(staging, shared_src)
        for (nnz, matvecs, m, k, n_vecs, indptr, indices, data,
             dense_dyn, dense_flat, out_arr, scratch, target) in recs:
            if not accumulate:
                out_arr.fill(0.0)
            if nnz == 0:
                continue
            if scratch is not None:
                scratch.fill(0.0)
            flat = dense_flat if dense_flat is not None else dense_dyn.ravel()
            matvecs(m, k, n_vecs, indptr, indices, data, flat, target)
            if scratch is not None:
                out_arr += scratch

    return compute


def spmm_many(
    engine: Engine,
    items: Sequence[tuple],
    accumulate: bool = True,
    stage: Optional[int] = None,
    name: str = "spmm",
    bw_fraction: float = 1.0,
    overlap_comm_time: float = 0.0,
) -> List[Event]:
    """``out (+)= tile @ dense`` per rank — the cuSPARSE-style CSR SpMM.

    ``items`` is ``[(stream, cost, tile, dense, out, deps), ...]``; the
    group shares ``accumulate``/``stage``/derating (see
    :func:`build_spmm_group`). One group closure runs every rank's CSR
    SpMM in order.
    """
    specs, compute = build_spmm_group(
        items, accumulate=accumulate, stage=stage, name=name,
        bw_fraction=bw_fraction, overlap_comm_time=overlap_comm_time,
    )
    if compute is not None:
        compute()
    return _submit_group(engine, specs, compute)


def spmm(
    engine: Engine,
    cost: CostModel,
    stream: Stream,
    tile,
    dense: DeviceTensor,
    out: DeviceTensor,
    accumulate: bool = True,
    deps: Sequence[Event] = (),
    stage: Optional[int] = None,
    name: str = "spmm",
) -> Event:
    """One-item :func:`spmm_many`."""
    return spmm_many(engine, [(stream, cost, tile, dense, out, deps)],
                     accumulate=accumulate, stage=stage, name=name)[0]
