"""Extension bench: vertex orderings beyond §5.2's random permutation.

Sweeps four orderings of the same Products-shaped graph — original
(hub-first, our generator's natural layout), degree-sorted (maximally
concentrated), BFS (locality-first) and random (§5.2) — and reports the
stage-nnz imbalance of the uniform 1D tiles plus the resulting epoch
time at 8 GPUs. The paper's choice wins: balance beats locality for the
multi-stage broadcast SpMM, because the critical path is the *slowest*
stage.
"""

import numpy as np

from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset, ordering_permutation, reorder_dataset
from repro.hardware import dgx1
from repro.nn import GCNModelSpec
from repro.utils.format import format_seconds

ORDERINGS = ("original", "degree", "bfs", "random")


def test_ordering_ablation(once):
    def run():
        base = load_dataset("products", scale=0.002, seed=81)
        model = GCNModelSpec.paper_model(1, base.d0, base.num_classes)
        out = {}
        for ordering in ORDERINGS:
            perm = ordering_permutation(base, ordering, seed=81)
            ds = reorder_dataset(base, perm)
            trainer = MGGCNTrainer(
                ds, model, machine=dgx1(), num_gpus=8,
                config=TrainerConfig(permute=False, seed=81, schedule="1d"),
            )
            nnz = np.array(
                [trainer.graph.stage_nnz(r) for r in range(8)], dtype=float
            )
            imbalance = float(nnz.max() / nnz.mean())
            trainer.train_epoch()
            out[ordering] = {
                "imbalance": imbalance,
                "epoch": trainer.train_epoch().epoch_time,
            }
        return out

    results = once(run)
    print("\nordering        tile-nnz imbalance   epoch time")
    for ordering in ORDERINGS:
        r = results[ordering]
        print(f"  {ordering:12s} {r['imbalance']:>10.2f}x"
              f"          {format_seconds(r['epoch'])}")

    # random balances best and trains fastest
    assert results["random"]["imbalance"] == min(
        r["imbalance"] for r in results.values()
    )
    assert results["random"]["imbalance"] < 1.6
    assert results["random"]["epoch"] == min(
        r["epoch"] for r in results.values()
    )
    # degree-sorting is the worst concentration
    assert results["degree"]["imbalance"] > 2 * results["random"]["imbalance"]
    # all four train the same math: equal loss trajectories are covered
    # by the permutation-equivariance property test.
