#!/usr/bin/env python
"""Multi-node scaling study: where full-batch GNN scaling stops and why.

Sweeps Reddit (full Table-1 size, symbolic mode) across 1..32 GPUs of a
4-node DGX-1 cluster connected by 200 Gb/s InfiniBand, then shows the
partitioning family (CAGNET 1D / 1.5D / 2D vs MG-GCN) at one node.

The numbers make the paper's framing concrete: inside a node, NVLink
keeps the broadcast stages cheap and MG-GCN scales (super-linearly on
dense graphs); the moment a flat ring spans two nodes, the shared
25 GB/s NIC replaces 150 GB/s of aggregate NVLink and the epoch time
jumps several-fold. This is why the paper targets single-node multi-GPU
systems and leaves clusters as future work. The trainer's default
node-aware collectives send each payload over the NIC once per node and
stay near the single-node epoch; the flat-ring column is the wall.

Run:  python examples/cluster_scaling.py
"""

from repro import (
    Communicator,
    GCNModelSpec,
    MGGCNTrainer,
    dgx1,
    load_dataset,
    multi_node_cluster,
)
from repro.baselines import CAGNET15DTrainer, CAGNET2DTrainer, CAGNETTrainer
from repro.utils import ascii_table, format_seconds


def main() -> None:
    cluster = multi_node_cluster(4, dgx1())
    dataset = load_dataset("reddit", symbolic=True)
    model = GCNModelSpec.paper_model(1, dataset.d0, dataset.num_classes)

    print(f"machine: {cluster.name} ({cluster.num_gpus} GPUs, "
          f"{cluster.num_nodes} nodes, NIC "
          f"{cluster.inter_node_bandwidth / 1e9:.0f} GB/s)\n")

    def epoch(gpus: int, flat_ring: bool) -> float:
        trainer = MGGCNTrainer(dataset, model, machine=cluster, num_gpus=gpus)
        if flat_ring:
            trainer.comm = Communicator(
                trainer.ctx, bw_derate=trainer.comm.bw_derate
            )
        return trainer.train_epoch().epoch_time

    rows = []
    base = None
    for gpus in (1, 2, 4, 8, 16, 24, 32):
        t = epoch(gpus, flat_ring=False)
        flat = epoch(gpus, flat_ring=True)
        if base is None:
            base = t
        nodes = -(-gpus // 8)
        rows.append([gpus, nodes, format_seconds(t), f"{base / t:.2f}x",
                     format_seconds(flat), f"{base / flat:.2f}x"])
    print("MG-GCN on Reddit (full size):")
    print(ascii_table(["GPUs", "nodes", "epoch", "speedup", "flat-ring epoch",
                       "speedup"], rows))

    print("\npartitioning family at one node (4 GPUs, Arxiv 2x512):")
    ds = load_dataset("arxiv", symbolic=True)
    wide = GCNModelSpec.build(ds.d0, 512, ds.num_classes, 2)
    family = {
        "MG-GCN": MGGCNTrainer(ds, wide, machine=dgx1(), num_gpus=4),
        "CAGNET 1D": CAGNETTrainer(ds, wide, machine=dgx1(), num_gpus=4,
                                   permute=True),
        "CAGNET 1.5D": CAGNET15DTrainer(ds, wide, machine=dgx1(), num_gpus=4,
                                        replication=2),
        "CAGNET 2D": CAGNET2DTrainer(ds, wide, machine=dgx1(), num_gpus=4),
    }
    rows = [
        [name, format_seconds(trainer.train_epoch().epoch_time)]
        for name, trainer in family.items()
    ]
    print(ascii_table(["system", "epoch"], rows))


if __name__ == "__main__":
    main()
