#!/usr/bin/env python
"""Ablation: what each MG-GCN optimisation buys, one at a time.

Starts from the naive configuration (original ordering, serialised
communication, textbook operation order, full backward pass) and enables
the paper's optimisations cumulatively, reporting epoch time after each:

1. + random vertex permutation (§5.2)
2. + communication/computation overlap (§4.3)
3. + computation-order selection (§4.4)
4. + first-layer backward-SpMM skip (§4.4)

Run:  python examples/ablation_optimizations.py [dataset] [scale] [gpus]
"""

import sys

from repro import GCNModelSpec, MGGCNTrainer, TrainerConfig, dgx1, load_dataset
from repro.utils import ascii_table, format_seconds

STEPS = [
    ("baseline (none)", dict(permute=False, overlap=False,
                             order_optimization=False, first_layer_skip=False)),
    ("+ permutation", dict(permute=True, overlap=False,
                           order_optimization=False, first_layer_skip=False)),
    ("+ overlap", dict(permute=True, overlap=True,
                       order_optimization=False, first_layer_skip=False)),
    ("+ order selection", dict(permute=True, overlap=True,
                               order_optimization=True, first_layer_skip=False)),
    ("+ first-layer skip", dict(permute=True, overlap=True,
                                order_optimization=True, first_layer_skip=True)),
]


def main() -> None:
    dataset_name = sys.argv[1] if len(sys.argv) > 1 else "products"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 0.002
    gpus = int(sys.argv[3]) if len(sys.argv) > 3 else 8

    dataset = load_dataset(dataset_name, scale=scale, seed=11)
    model = GCNModelSpec.paper_model(1, dataset.d0, dataset.num_classes)
    print(
        f"{dataset.name}: n={dataset.n:,} m={dataset.m:,} on {gpus} GPUs "
        f"(DGX-V100, functional mode)"
    )

    rows = []
    baseline = None
    for label, flags in STEPS:
        cfg = TrainerConfig(seed=11, schedule="1d", **flags)
        trainer = MGGCNTrainer(dataset, model, machine=dgx1(),
                               num_gpus=gpus, config=cfg)
        trainer.train_epoch()  # warm-up
        t = trainer.train_epoch().epoch_time
        if baseline is None:
            baseline = t
        rows.append([label, format_seconds(t), f"{baseline / t:.2f}x"])
    print(ascii_table(["configuration", "epoch time", "speedup"], rows))


if __name__ == "__main__":
    main()
