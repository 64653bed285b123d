#!/usr/bin/env python
"""Quickstart: full-batch multi-GPU GCN training in ~20 lines.

Trains a 2-layer GCN on a scaled, learnable Reddit stand-in across 8
simulated A100s, printing the per-epoch loss, the simulated epoch time,
and the final test accuracy.

Run:  python examples/quickstart.py
"""

from repro import GCNModelSpec, MGGCNTrainer, dgx_a100, load_dataset
from repro.profiling.breakdown import breakdown_percentages
from repro.utils import format_bytes, format_seconds


def main() -> None:
    # A Reddit-statistics-matched synthetic graph at 1% scale, with
    # planted communities so accuracy is meaningful.
    dataset = load_dataset("reddit", scale=0.01, learnable=True, seed=7)
    print(
        f"dataset: {dataset.name} — {dataset.n} vertices, {dataset.m} edges, "
        f"{dataset.d0} features, {dataset.num_classes} classes"
    )

    model = GCNModelSpec.build(dataset.d0, 128, dataset.num_classes, num_layers=2)
    trainer = MGGCNTrainer(dataset, model, machine=dgx_a100(), num_gpus=8)

    for epoch in range(1, 21):
        stats = trainer.train_epoch()
        if epoch % 5 == 0 or epoch == 1:
            print(
                f"epoch {epoch:>3}: loss {stats.loss:.4f}  "
                f"simulated epoch time {format_seconds(stats.epoch_time)}  "
                f"peak GPU memory {format_bytes(stats.peak_memory)}"
            )

    print(f"\ntest accuracy: {trainer.evaluate('test'):.4f}")
    print(f"train accuracy: {trainer.evaluate('train'):.4f}")

    last = trainer.train_epoch()
    print("\nper-op breakdown of one epoch:")
    shares = breakdown_percentages(last.trace, fold_comm_into_spmm=False)
    for category, pct in sorted(shares.items()):
        print(f"  {category:12s} {pct:5.1f}%")


if __name__ == "__main__":
    main()
