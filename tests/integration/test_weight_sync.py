"""Integration: one weight sync per epoch.

Each rank's weights, weight gradients and Adam moments are per-layer
segments of four flat buffers, so an epoch ends in one weight-gradient
allreduce (``bwd/allreduce_wg``) and one Adam step (``adam``) per rank.
These tests pin the layout, the op counts (functional and symbolic),
checkpoint resume, and the node-aware path's parity and replay.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.hardware import dgx1
from repro.hardware.machines import multi_node_cluster, uniform_machine
from repro.nn import GCNModelSpec, ReferenceGCN, load_checkpoint, save_checkpoint

SEED = 21


def _trainer(dataset, model, num_gpus=4, machine=None, **config):
    return MGGCNTrainer(dataset, model, machine=machine or dgx1(),
                        num_gpus=num_gpus,
                        config=TrainerConfig(seed=SEED, **config))


def _mini_cluster():
    """2 nodes x 2 GPUs, so a 4-GPU run spans the NIC."""
    return multi_node_cluster(2, node=uniform_machine(2, name="mini-node"))


@pytest.fixture(scope="module")
def three_layer(small_dataset):
    return GCNModelSpec.build(small_dataset.d0, 12,
                              small_dataset.num_classes, 3)


def test_layer_tensors_are_segments_of_one_flat_buffer(small_dataset,
                                                       three_layer):
    trainer = _trainer(small_dataset, three_layer)
    dims = [three_layer.dims_of(l) for l in range(three_layer.num_layers)]
    total = sum(a * b for a, b in dims)
    for rank in range(trainer.num_gpus):
        per_layer = (trainer.weights[rank], trainer.wgrads[rank],
                     trainer.adam_m[rank], trainer.adam_v[rank])
        for flat, layers in zip(trainer._flat[rank], per_layer):
            assert flat.shape == (total,)
            assert flat.allocation is not None
            offset = 0
            for layer, (tensor, shape) in enumerate(zip(layers, dims)):
                assert tensor.shape == shape
                assert tensor.allocation is None  # views own no memory
                assert tensor.data.flags.c_contiguous
                assert np.shares_memory(tensor.data, flat.data), layer
                size = shape[0] * shape[1]
                assert np.array_equal(tensor.data.ravel(),
                                      flat.data[offset:offset + size])
                offset += size
        # the four buffers are distinct, and ranks do not share them
        buffers = [f.data for f in trainer._flat[rank]]
        other = trainer._flat[(rank + 1) % trainer.num_gpus][0].data
        for i, a in enumerate(buffers):
            assert not np.shares_memory(a, other)
            for b in buffers[i + 1:]:
                assert not np.shares_memory(a, b)


def _sync_counts(trace):
    names = Counter(e.name for e in trace)
    per_layer = [n for n in names if "allreduce_wg" in n
                 and not n.startswith("bwd/allreduce_wg")]
    return names["bwd/allreduce_wg"], names["adam"], per_layer


@pytest.mark.parametrize("mode", ["functional", "symbolic"])
def test_one_allreduce_and_one_adam_per_rank_per_epoch(small_dataset,
                                                       three_layer, mode):
    if mode == "symbolic":
        dataset = load_dataset("cora", symbolic=True)
        model = GCNModelSpec.build(dataset.d0, 12, dataset.num_classes, 3)
    else:
        dataset, model = small_dataset, three_layer
    trainer = _trainer(dataset, model)
    for stats in trainer.fit(3):  # captured, then replayed
        allreduces, adams, per_layer = _sync_counts(stats.trace)
        assert allreduces == trainer.num_gpus
        assert adams == trainer.num_gpus
        assert per_layer == []
        assert [e.name for e in stats.trace if e.category == "adam"] == (
            ["adam"] * trainer.num_gpus
        )
    assert trainer.plan_stats.replays == 2


def test_checkpoint_resume_is_bitwise_uninterrupted(tmp_path, small_dataset,
                                                    three_layer):
    uninterrupted = _trainer(small_dataset, three_layer)
    uninterrupted.fit(6)

    first = _trainer(small_dataset, three_layer)
    first.fit(3)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(first, path)
    resumed = _trainer(small_dataset, three_layer)
    load_checkpoint(resumed, path)
    resumed.fit(3)
    for got, want in zip(resumed.get_weights(), uninterrupted.get_weights()):
        assert np.array_equal(got, want)
    # the restore wrote through the views into every rank's flat buffers
    for rank in range(resumed.num_gpus):
        assert np.array_equal(resumed._flat[rank][0].data,
                              uninterrupted._flat[rank][0].data)


def test_node_aware_weight_sync_parity_and_replay(small_dataset, three_layer):
    """Across 2 nodes the flat gradient buffer takes the phased
    hierarchical allreduce once per epoch; training still matches the
    reference, and replay matches eager bitwise."""
    replayed = _trainer(small_dataset, three_layer, machine=_mini_cluster(),
                        first_layer_skip=False)
    eager = _trainer(small_dataset, three_layer, machine=_mini_cluster(),
                     first_layer_skip=False)
    eager._capture_allowed = lambda: False
    ref = ReferenceGCN(small_dataset, three_layer, seed=SEED)
    for _ in range(3):
        got = replayed.train_epoch()
        want = eager.train_epoch()
        ref_loss = ref.train_epoch()
        assert got.loss == want.loss
        assert got.epoch_time == want.epoch_time
        assert got.loss == pytest.approx(ref_loss, rel=1e-4, abs=1e-6)
        phases = Counter(e.name for e in got.trace
                         if e.name.startswith("bwd/allreduce_wg"))
        # one phased rendezvous: 2-GPU node rings around a leader tree
        assert phases == {
            "bwd/allreduce_wg/intra_reduce": 4,
            "bwd/allreduce_wg/inter": 2,
            "bwd/allreduce_wg/intra_bcast": 4,
        }
    assert replayed.plan_stats.replays == 2
    for got, want, ref_w in zip(replayed.get_weights(), eager.get_weights(),
                                ref.weights):
        assert np.array_equal(got, want)
        assert np.allclose(got, ref_w, rtol=5e-3, atol=5e-5)
