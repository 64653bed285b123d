"""Extension bench: the full CAGNET partitioning family, measured.

The paper analyses 1D vs 1.5D (Section 5.1) and reports only CAGNET-1D
results ("the best"). Our substrate makes all three implemented family
members runnable at paper scale, so the analysis becomes measurement:

* 1.5D halves the broadcast volume but pays an inter-replica reduction
  (cheap on NVSwitch, bottlenecked on the DGX-1 cube-mesh) and doubles
  adjacency memory;
* 2D (SUMMA) additionally communicates the dense output of every GeMM
  (the §4.1 argument against column partitioning);
* MG-GCN's optimised 1D beats all of them.
"""

from repro.baselines import CAGNET15DTrainer, CAGNET2DTrainer, CAGNETTrainer
from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.hardware import dgx1, dgx_a100
from repro.nn import GCNModelSpec
from repro.utils.format import format_seconds


def test_partitioning_family(once):
    def run():
        ds = load_dataset("arxiv", symbolic=True)
        model = GCNModelSpec.build(ds.d0, 512, ds.num_classes, 2)
        out = {}
        for machine in (dgx1(), dgx_a100()):
            # 2D needs a square GPU count; compare everything at 4.
            times = {
                "cagnet-1d": CAGNETTrainer(
                    ds, model, machine=machine, num_gpus=4, permute=True
                ).train_epoch().epoch_time,
                "cagnet-1.5d": CAGNET15DTrainer(
                    ds, model, machine=machine, num_gpus=4, replication=2
                ).train_epoch().epoch_time,
                "cagnet-2d": CAGNET2DTrainer(
                    ds, model, machine=machine, num_gpus=4
                ).train_epoch().epoch_time,
                "mg-gcn": MGGCNTrainer(
                    ds, model, machine=machine, num_gpus=4,
                    config=TrainerConfig(schedule="1d"),
                ).train_epoch().epoch_time,
            }
            out[machine.name] = times
        return out

    results = once(run)
    for machine, times in results.items():
        print(f"\n{machine} (Arxiv, 2x512, 4 GPUs):")
        for system, t in sorted(times.items(), key=lambda kv: kv[1]):
            print(f"  {system:12s} {format_seconds(t)}")

    for machine, times in results.items():
        # MG-GCN wins the family on both machines
        assert times["mg-gcn"] == min(times.values()), machine
        # 2D's dense-output reductions cancel its broadcast savings: it
        # never meaningfully beats 1.5D on this growing-width workload
        assert times["cagnet-2d"] >= 0.9 * times["cagnet-1.5d"], machine

    # the §5.1 crossover: 1.5D's edge over 1D is larger on NVSwitch
    gain_v100 = (
        results["DGX-1-V100"]["cagnet-1d"] / results["DGX-1-V100"]["cagnet-1.5d"]
    )
    gain_a100 = (
        results["DGX-A100"]["cagnet-1d"] / results["DGX-A100"]["cagnet-1.5d"]
    )
    print(f"\n1D/1.5D speed ratio: DGX-1 {gain_v100:.2f}, DGX-A100 {gain_a100:.2f}")
    assert gain_a100 > gain_v100
