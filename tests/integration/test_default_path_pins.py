"""The default trainer on the paper's own configurations, pinned.

Symbolic arxiv, products and reddit with the paper's model 1 on DGX-1
and DGX-A100 nodes, 1/2/4/8 GPUs. Each pin is ``(epoch-2 simulated
seconds, setup_sim_time)`` as exact reprs: the epoch of the default
trainer, whose layer 0 is one GeMM over the aggregated features, and
the one-time set-up pass that aggregates them. EXPERIMENTS.md's
"default path" table prints the same numbers next to the paper's
``schedule="1d"`` (``repro experiment default``).
"""

import pytest

from repro.core import MGGCNTrainer
from repro.datasets import load_dataset
from repro.hardware import dgx1, dgx_a100
from repro.nn import GCNModelSpec

MACHINES = {"dgx1": dgx1, "dgx_a100": dgx_a100}

PINS = {
    ("arxiv", "dgx1", 1): (0.008182703152549882, 0.001333771687054442),
    ("arxiv", "dgx1", 2): (0.006085545636580108, 0.0043708765517759245),
    ("arxiv", "dgx1", 4): (0.004119497436557012, 0.0012293028727800345),
    ("arxiv", "dgx1", 8): (0.0035048975502580534, 0.0008632227813619982),
    ("products", "dgx1", 1): (0.1685765373135521, 0.08169406485531869),
    ("products", "dgx1", 2): (0.10611695802322488, 0.06882435386178345),
    ("products", "dgx1", 4): (0.046881297391087956, 0.02709689929768789),
    ("products", "dgx1", 8): (0.025768065724182984, 0.015791677302736593),
    ("reddit", "dgx1", 1): (0.07162109841298758, 0.3018977829005214),
    ("reddit", "dgx1", 2): (0.03544082068039439, 0.1508271035250741),
    ("reddit", "dgx1", 4): (0.01684096996318435, 0.0627440943186322),
    ("reddit", "dgx1", 8): (0.00955230649210912, 0.027617943609368974),
    ("arxiv", "dgx_a100", 1): (0.0059183971919844845, 0.0005006279207403916),
    ("arxiv", "dgx_a100", 2): (0.0036689405519117046, 0.0005582497494553377),
    ("arxiv", "dgx_a100", 4): (0.0029085004370035194, 0.00047204848583878),
    ("arxiv", "dgx_a100", 8): (0.002546577412765079, 0.0004788204466230936),
    ("products", "dgx_a100", 1): (0.09960499645997317, 0.031413318698981965),
    ("products", "dgx_a100", 2): (0.05098335854448066, 0.01799275130988885),
    ("products", "dgx_a100", 4): (0.026327858233910324, 0.009895396608812168),
    ("products", "dgx_a100", 8): (0.01434154415280402, 0.006172971314276307),
    ("reddit", "dgx_a100", 1): (0.03579422001552346, 0.09040192526323608),
    ("reddit", "dgx_a100", 2): (0.018331760000737406, 0.038367379498910684),
    ("reddit", "dgx_a100", 4): (0.009821907327951376, 0.02009404919389978),
    ("reddit", "dgx_a100", 8): (0.006038004201554665, 0.01099353404139434),
}


@pytest.fixture(scope="module")
def paper_models():
    out = {}
    for name in ("arxiv", "products", "reddit"):
        ds = load_dataset(name, symbolic=True)
        out[name] = ds, GCNModelSpec.paper_model(1, ds.d0, ds.num_classes)
    return out


@pytest.mark.parametrize("name, machine, gpus", sorted(PINS))
def test_default_path_pins(paper_models, name, machine, gpus):
    ds, model = paper_models[name]
    trainer = MGGCNTrainer(ds, model, machine=MACHINES[machine](),
                           num_gpus=gpus)
    epoch2 = trainer.fit(2)[-1].epoch_time
    assert (epoch2, trainer.setup_sim_time) == PINS[name, machine, gpus]
