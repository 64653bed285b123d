"""The lifecycle every trainer shares through :class:`repro.core.trainer.Trainer`.

MG-GCN and the four baselines (DGL, CAGNET 1D, 1.5D and 2D) get their
input checks, Adam op and ``evaluate`` from one base class, so each
contract is asserted once here over every trainer class.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines import (
    CAGNET15DTrainer,
    CAGNET2DTrainer,
    CAGNETTrainer,
    DGLLikeTrainer,
)
from repro.core import MGGCNTrainer
from repro.datasets import load_dataset
from repro.errors import ConfigurationError
from repro.hardware import dgx1
from repro.nn import GCNModelSpec
from repro.parallel import Parallel15DTrainer, Parallel2DTrainer

BASE_CLASSES = (
    MGGCNTrainer,
    CAGNETTrainer,
    DGLLikeTrainer,
    CAGNET15DTrainer,
    CAGNET2DTrainer,
)
ALL_CLASSES = BASE_CLASSES + (Parallel15DTrainer, Parallel2DTrainer)


def _build(cls, dataset, model, **kwargs):
    if cls is DGLLikeTrainer:
        return cls(dataset, model, machine=dgx1(), **kwargs)
    return cls(dataset, model, machine=dgx1(), num_gpus=4, **kwargs)


def _permute(cls):
    """Symbolic baselines need the permutation; MG-GCN takes a config."""
    return {} if cls in (MGGCNTrainer, DGLLikeTrainer) else {"permute": True}


def _ids(classes):
    return [cls.__name__ for cls in classes]


@pytest.mark.parametrize("cls", BASE_CLASSES, ids=_ids(BASE_CLASSES))
def test_rejects_wrong_output_width(cls, small_dataset):
    wide = GCNModelSpec.build(
        small_dataset.d0, 16, small_dataset.num_classes + 3, 2
    )
    with pytest.raises(ConfigurationError, match="output width"):
        _build(cls, small_dataset, wide)


# Accuracy after 5 epochs on the shared small dataset. The baselines run
# without the permutation; MG-GCN permutes, and its default trains on the
# aggregated features with the exact layer-0 gradient, so every trainer
# agrees.
ACCURACY = {
    "train": 0.8787878787878788,
    "val": 0.8536585365853658,
    "test": 0.8674698795180723,
}


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=_ids(ALL_CLASSES))
def test_evaluate_contract(cls, small_dataset, small_model):
    trainer = _build(cls, small_dataset, small_model)
    trainer.fit(5)
    for split, acc in ACCURACY.items():
        assert trainer.evaluate(split) == acc, split
    with pytest.raises(ConfigurationError, match="unknown split"):
        trainer.evaluate("holdout")


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=_ids(ALL_CLASSES))
def test_evaluate_rejects_empty_split(cls, small_dataset, small_model):
    no_val = dataclasses.replace(
        small_dataset, val_mask=np.zeros_like(small_dataset.val_mask)
    )
    trainer = _build(cls, no_val, small_model)
    with pytest.raises(ConfigurationError, match="empty 'val' split"):
        trainer.evaluate("val")


@pytest.fixture(scope="module")
def symbolic_small():
    return load_dataset("cora", scale=0.1, symbolic=True)


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=_ids(ALL_CLASSES))
def test_evaluate_rejects_symbolic(cls, symbolic_small, small_model):
    trainer = _build(cls, symbolic_small, small_model, **_permute(cls))
    with pytest.raises(ConfigurationError, match="functional mode"):
        trainer.evaluate("test")


@pytest.mark.parametrize("cls", ALL_CLASSES, ids=_ids(ALL_CLASSES))
def test_adam_flops_match_across_modes(cls, small_dataset, symbolic_small,
                                       small_model):
    """Symbolic Adam ops record the FLOPs the functional op records."""
    assert symbolic_small.d0 == small_dataset.d0

    def adam_flops(dataset):
        trainer = _build(cls, dataset, small_model, **_permute(cls))
        trace = trainer.train_epoch().trace
        return [(e.device, e.name, e.flops) for e in trace
                if e.category == "adam"]

    functional = adam_flops(small_dataset)
    assert functional and all(flops > 0 for _, _, flops in functional)
    assert adam_flops(symbolic_small) == functional
