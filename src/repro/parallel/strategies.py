"""Per-layer SpMM parallelisation schemes.

The planner (:mod:`repro.parallel.planner`) chooses one scheme per GCN
layer, and :class:`~repro.core.trainer.MGGCNTrainer` dispatches each
layer's distributed SpMM on its ``TrainerConfig.schedule`` (by default
the planner's choice):

* ``1d`` — the paper's multi-stage broadcast SpMM
  (:func:`repro.core.spmm_mg.distributed_spmm`) on the trainer's
  node-aware communicator (intra-node ring + inter-node tree; the flat
  ring on a single node), and priced by the planner on the same one;
* ``1d_allgather`` — replicate the dense operand: one allgather
  assembles all ``n`` operand rows on every rank, then one wide SpMM
  (the rank's whole row of tiles) produces the local output. Trades
  ``n x d`` memory and a colder SpMM working set for ``P`` fewer
  collective launches — the right call for narrow layers on
  latency-dominated clusters (MixGCN's "feature-replicated" point in
  the design space).

Scheme names are the vocabulary shared by the planner, the trainer, the
CLI (``repro parallel plan``) and ``BENCH_multinode.json``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.comm.collectives import Communicator
from repro.device.engine import SimContext
from repro.device.stream import Event
from repro.device.tensor import DeviceTensor
from repro.errors import ConfigurationError
from repro.kernels.cost import CostModel
from repro.kernels.ops import (
    _check_spmm,
    _spmm_duration,
    _submit_group,
    build_spmm_group,
    specialize_spmm_group,
)

#: per-layer schemes the trainer can dispatch.
LAYER_SCHEMES = ("1d", "1d_allgather")
#: whole-model grid schemes (dedicated trainers, not per-layer).
FIXED_SCHEMES = ("15d", "2d")


def _row_block(buf: DeviceTensor, start: int, rows: int,
               cols: int) -> DeviceTensor:
    """Rows ``start:start+rows`` of ``buf``'s flat prefix read as a
    ``(*, cols)`` matrix: a C-contiguous view, unlike a ``view2d``
    window of a wider buffer."""
    data = None
    if buf.data is not None:
        flat = buf.data.reshape(-1)
        data = flat[start * cols:(start + rows) * cols].reshape(rows, cols)
    return DeviceTensor((rows, cols), buf.dtype, buf.device, buf.mode, data,
                        None, name=f"{buf.name}[{start}:{start + rows}]")


def _group_compute(items: Sequence[tuple], accumulate: bool):
    """The stage plans' prebound group closure, or the generic one."""
    compute = specialize_spmm_group(items, accumulate=accumulate)
    if compute is None:
        _, compute = build_spmm_group(items, accumulate=accumulate)
    return compute


def allgather_spmm(
    ctx: SimContext,
    comm: Communicator,
    cost_models: Sequence[CostModel],
    tiles: Sequence[Sequence[object]],
    sources: Sequence[DeviceTensor],
    outputs: Sequence[DeviceTensor],
    gather_buffers: Sequence[DeviceTensor],
    deps_by_rank: Optional[Dict[int, Sequence[Event]]] = None,
    label: str = "spmm",
) -> Dict[int, List[Event]]:
    """Replicated-operand SpMM: allgather all rows, one wide multiply.

    ``tiles[i][j]`` is rank ``i``'s tile ``A^{ij}``; ``gather_buffers[i]``
    holds at least ``n x d`` elements. Each rank's SpMM is one event
    costed as the wide multiply of its tile row (``rows_i x n``, summed
    nnz), which reads the full ``n``-row operand: the cost model sees the
    colder working set (``dense_rows = n``), the compute-side price of
    skipping the staged broadcasts.

    The numerics run the staged order of
    :func:`~repro.core.spmm_mg.distributed_spmm`: ``A^{i0}`` overwrites
    the output, then ``A^{i1}, A^{i2}, ...`` accumulate, each over its
    row block of the gathered operand, through the same prebound
    kernels. Both schemes therefore round identically, and switching a
    layer's scheme never changes the weights.
    """
    P = ctx.num_gpus
    if not (len(tiles) == len(sources) == len(outputs) == P):
        raise ConfigurationError(
            f"allgather_spmm: expected {P} rank entries, got "
            f"{len(tiles)}/{len(sources)}/{len(outputs)}"
        )
    d = sources[0].cols
    offsets = [0]
    for src in sources:
        offsets.append(offsets[-1] + src.rows)
    n = offsets[-1]
    gathered = [_row_block(gather_buffers[i], 0, n, d) for i in range(P)]
    ag_events = comm.allgather(
        {i: sources[i] for i in range(P)},
        {i: gathered[i] for i in range(P)},
        deps_by_rank=deps_by_rank,
        name=f"{label}/allgather",
    )
    first, rest, specs = [], [], []
    for i in range(P):
        stream = ctx.device(i).compute_stream
        row = tiles[i]
        for j in range(P):
            block = _row_block(gather_buffers[i], offsets[j],
                               sources[j].rows, d)
            _check_spmm(row[j], block, outputs[i], f"{label}/wide")
            item = (stream, cost_models[i], row[j], block, outputs[i], ())
            (rest if j else first).append(item)
        rows = row[0].shape[0]
        nnz = sum(tile.nnz for tile in row)
        duration = _spmm_duration(cost_models[i], rows, nnz, d, n,
                                  outputs[i].dtype.itemsize, 1.0, 0.0)
        specs.append((stream, f"{label}/wide", "spmm", duration,
                      (ag_events[i],), None, 0, None, None, 2.0 * nnz * d))
    compute = None
    head = _group_compute(first, accumulate=False)  # None when symbolic
    if head is not None:
        tail = _group_compute(rest, accumulate=True)

        def compute() -> None:
            head()
            tail()

        compute()
    events = _submit_group(ctx.engine, specs, compute)
    return {i: [ev] for i, ev in enumerate(events)}
