"""Ablations for the design choices DESIGN.md calls out (beyond the paper).

Each MG-GCN optimisation is toggled in isolation on a scaled Products
instance to measure its individual contribution:

* buffer reuse (L+3 vs eager) — memory, not runtime;
* computation-order selection (§4.4) — epoch runtime;
* first-layer backward-SpMM skip (§4.4) — epoch runtime;
* overlap (§4.3) — epoch runtime (also covered by Fig. 7/8 benches).
"""

import pytest

from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.hardware import dgx1
from repro.nn import BufferPlan, GCNModelSpec


@pytest.fixture(scope="module")
def setup():
    ds = load_dataset("products", scale=0.002, seed=51)
    model = GCNModelSpec.paper_model(1, ds.d0, ds.num_classes)
    return ds, model


def _epoch_time(ds, model, **flags):
    cfg = TrainerConfig(seed=51, schedule="1d", **flags)
    trainer = MGGCNTrainer(ds, model, machine=dgx1(), num_gpus=8, config=cfg)
    trainer.train_epoch()
    return trainer.train_epoch().epoch_time


def test_ablation_order_selection(once, setup):
    ds, model = setup

    def run():
        base = _epoch_time(ds, model, order_optimization=False,
                           first_layer_skip=False)
        opt = _epoch_time(ds, model, order_optimization=True,
                          first_layer_skip=False)
        return base, opt

    base, opt = once(run)
    print(f"\norder selection: {base * 1e3:.2f} ms -> {opt * 1e3:.2f} ms "
          f"({base / opt:.2f}x)")
    # products layer 0 grows 104 -> 512: aggregate-first broadcasts the
    # narrow operand, so order selection must help.
    assert opt < base


def test_ablation_first_layer_skip(once, setup):
    ds, model = setup

    def run():
        full = _epoch_time(ds, model, first_layer_skip=False)
        skip = _epoch_time(ds, model, first_layer_skip=True)
        return full, skip

    full, skip = once(run)
    print(f"\nfirst-layer skip: {full * 1e3:.2f} ms -> {skip * 1e3:.2f} ms "
          f"({full / skip:.2f}x)")
    # skipping one of the three distributed SpMMs must help materially
    assert skip < 0.95 * full


def test_ablation_overlap(once, setup):
    ds, model = setup

    def run():
        serial = _epoch_time(ds, model, overlap=False)
        overlapped = _epoch_time(ds, model, overlap=True)
        return serial, overlapped

    serial, overlapped = once(run)
    print(f"\noverlap: {serial * 1e3:.2f} ms -> {overlapped * 1e3:.2f} ms "
          f"({serial / overlapped:.2f}x)")
    assert overlapped < serial


def test_ablation_buffer_reuse_memory(once):
    """The shared scheme's memory advantage grows linearly with depth."""

    def run():
        rows = 30_000
        out = {}
        for L in (2, 4, 8, 16):
            dims = tuple([602] + [512] * (L - 1) + [41])
            shared = BufferPlan(layer_dims=dims, rows=rows, bc_rows=rows)
            eager = BufferPlan(layer_dims=dims, rows=rows, scheme="eager")
            out[L] = eager.total_bytes / shared.total_bytes
        return out

    ratios = once(run)
    print("\neager/shared buffer-bytes ratio by depth:", {
        L: round(r, 2) for L, r in ratios.items()
    })
    assert ratios[16] > ratios[2]
    assert ratios[16] > 2.0
