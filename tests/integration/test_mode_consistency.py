"""Functional vs symbolic mode: the same code must produce the same schedule.

Symbolic mode's legitimacy rests on one invariant: for identically-shaped
inputs, the scheduler emits the *same ops* (same names, same categories,
same per-category counts, same memory) whether tensors carry data or
not. These tests construct a functional dataset and a SymbolicDataset
with matching (n, m, d0, classes) statistics and compare the epochs.
"""

import collections

import numpy as np
import pytest

from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.device import category_seconds
from repro.datasets.loader import SymbolicDataset
from repro.hardware import dgx1
from repro.nn import GCNModelSpec


@pytest.fixture(scope="module")
def pair():
    functional = load_dataset("arxiv", scale=0.01, seed=51)
    symbolic = SymbolicDataset(
        name="arxiv-sym",
        n=functional.n,
        m=functional.m,
        d0=functional.d0,
        num_classes=functional.num_classes,
    )
    model = GCNModelSpec.build(functional.d0, 32, functional.num_classes, 2)
    return functional, symbolic, model


def _epoch(dataset, model, gpus=4):
    trainer = MGGCNTrainer(
        dataset, model, machine=dgx1(), num_gpus=gpus,
        config=TrainerConfig(seed=51),
    )
    return trainer, trainer.train_epoch()


def test_same_op_sequence(pair):
    functional, symbolic, model = pair
    _, fun_stats = _epoch(functional, model)
    _, sym_stats = _epoch(symbolic, model)
    fun_ops = [(ev.name, ev.category, ev.device, ev.stream)
               for ev in fun_stats.trace]
    sym_ops = [(ev.name, ev.category, ev.device, ev.stream)
               for ev in sym_stats.trace]
    assert fun_ops == sym_ops


def test_same_category_totals_within_tolerance(pair):
    """Durations differ only through tile-nnz estimates (symbolic mode
    assumes perfectly balanced tiles), so per-category totals must agree
    within a modest band."""
    functional, symbolic, model = pair
    _, fun_stats = _epoch(functional, model)
    _, sym_stats = _epoch(symbolic, model)
    sym_totals = category_seconds(sym_stats.trace)
    for category, fun_total in category_seconds(fun_stats.trace).items():
        sym_total = sym_totals.get(category, 0.0)
        if fun_total < 1e-7:
            continue
        assert sym_total == pytest.approx(fun_total, rel=0.35), category


def test_same_epoch_time_within_tolerance(pair):
    functional, symbolic, model = pair
    _, fun_stats = _epoch(functional, model)
    _, sym_stats = _epoch(symbolic, model)
    assert sym_stats.epoch_time == pytest.approx(fun_stats.epoch_time, rel=0.3)


def test_same_memory_accounting(pair):
    """Byte-for-byte: buffers, weights, features and adjacency tiles are
    sized by shape alone, so peak memory must match almost exactly (the
    only wiggle is tile-nnz rounding in the adjacency bytes)."""
    functional, symbolic, model = pair
    fun_trainer, _ = _epoch(functional, model)
    sym_trainer, _ = _epoch(symbolic, model)
    fun_peak = fun_trainer.ctx.peak_memory()
    sym_peak = sym_trainer.ctx.peak_memory()
    assert sym_peak == pytest.approx(fun_peak, rel=0.02)


def test_loss_only_in_functional(pair):
    functional, symbolic, model = pair
    _, fun_stats = _epoch(functional, model)
    _, sym_stats = _epoch(symbolic, model)
    assert fun_stats.loss is not None
    assert sym_stats.loss is None
