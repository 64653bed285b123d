"""Integration tests: the training-time remote-embedding cache.

Covers, end to end: bitwise transparency at ``staleness=0`` on every
execution path (eager, plan capture/replay), accuracy parity under bounded
staleness, one replayed plan per cache phase, plan invalidation when the
cache changes mid-capture, telemetry export, and
a fast smoke of the broadcast-byte savings the cachebench benchmark
measures at full scale.
"""

import numpy as np
import pytest

from repro.core import MGGCNTrainer, TrainerConfig
from repro.datasets import planted_partition_dataset
from repro.datasets.loader import Dataset
from repro.hardware import dgx1
from repro.resilience import DeviceFailure, FaultInjector, FaultPlan
from repro.telemetry import Telemetry

SEED = 11
P = 4
# enough epochs to converge the planted-partition task: accuracy parity
# under staleness is only meaningful once the discrete metric settles.
PARITY_EPOCHS = 15


@pytest.fixture(scope="module")
def parity_dataset():
    adj, x, y, train, val, test = planted_partition_dataset(
        400, num_classes=3, feature_dim=12, avg_degree=8.0, seed=5
    )
    return Dataset(
        name="cache-parity",
        adjacency=adj,
        features=x,
        labels=y,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        num_classes=3,
    )


@pytest.fixture(scope="module")
def parity_model(parity_dataset):
    from repro.nn import GCNModelSpec

    return GCNModelSpec.build(
        parity_dataset.d0, 16, parity_dataset.num_classes, 2
    )


def _trainer(dataset, model, **kwargs):
    kwargs.setdefault("first_layer_skip", False)
    kwargs.setdefault("seed", SEED)
    kwargs.setdefault("schedule", "1d")
    cfg = TrainerConfig(**kwargs)
    return MGGCNTrainer(dataset, model, machine=dgx1(), num_gpus=P, config=cfg)


def _inert_faults():
    """A non-trivial fault plan whose only fault never fires in a run:
    every epoch runs eagerly."""
    return FaultInjector(
        FaultPlan(device_failures=(DeviceFailure(rank=0, time=1e9),))
    )


def _weights_after(dataset, model, epochs, **kwargs):
    trainer = _trainer(dataset, model, **kwargs)
    for _ in range(epochs):
        trainer.train_epoch()
    return trainer.get_weights()


@pytest.mark.parametrize(
    "mode_kwargs",
    [
        lambda: {"fault_injector": _inert_faults()},
        lambda: {},
    ],
    ids=["eager", "capture"],
)
def test_staleness_zero_is_bitwise_on_every_path(
    small_dataset, small_model, mode_kwargs
):
    base = _weights_after(small_dataset, small_model, 4, **mode_kwargs())
    cached = _weights_after(
        small_dataset,
        small_model,
        4,
        cache_staleness_epochs=0,
        cache_budget_bytes=10**9,
        **mode_kwargs(),
    )
    for a, b in zip(base, cached):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("staleness", [1, 2])
def test_stale_serving_keeps_accuracy_parity(
    parity_dataset, parity_model, staleness
):
    base = _trainer(parity_dataset, parity_model)
    for _ in range(PARITY_EPOCHS):
        base.train_epoch()
    cached = _trainer(
        parity_dataset,
        parity_model,
        cache_staleness_epochs=staleness,
        cache_budget_bytes=10**9,
    )
    for _ in range(PARITY_EPOCHS):
        cached.train_epoch()
    assert cached.evaluate("test") == pytest.approx(
        base.evaluate("test"), rel=1e-5
    )
    # serving stale rows actually removed broadcast traffic.
    assert cached.training_cache.total.bytes_saved > 0
    assert cached.training_cache.total.hit_rows > 0


def test_evict_mid_capture_invalidates_plan(small_dataset, small_model):
    base = _weights_after(small_dataset, small_model, 5)
    trainer = _trainer(
        small_dataset,
        small_model,
        cache_staleness_epochs=0,
        cache_budget_bytes=10**9,
    )
    # epoch 0 captures, its admissions invalidate, epoch 1 recaptures,
    # epoch 2 is the first steady replay.
    for _ in range(3):
        trainer.train_epoch()
    assert trainer.plan_stats.replays >= 1  # steady replay reached
    before = trainer.plan_stats.invalidations
    keys = trainer.training_cache.entry_keys()
    assert keys
    assert trainer.training_cache.evict(*keys[0])
    trainer.train_epoch()  # signature changed -> recapture, not stale replay
    trainer.train_epoch()
    assert trainer.plan_stats.invalidations > before
    for a, b in zip(base, trainer.get_weights()):
        assert np.array_equal(a, b)


def test_stale_cache_keeps_one_plan_per_phase():
    """At staleness 1 the phase alternates every epoch: one refresh plan
    and one serve plan are captured (plus the first epoch's, whose
    admissions start a new cache generation), and both then replay —
    bitwise equal to running every epoch eagerly."""
    from repro.datasets import load_dataset
    from repro.nn import GCNModelSpec

    ds = load_dataset("cora", scale=0.1, learnable=True, seed=7)
    model = GCNModelSpec.build(ds.d0, 16, ds.num_classes, 2)

    def run(**kwargs):
        trainer = MGGCNTrainer(
            ds, model, num_gpus=P,
            config=TrainerConfig(seed=SEED, cache_staleness_epochs=1,
                                 **kwargs),
        )
        stats = trainer.fit(12)
        trace = [
            (e.device, e.stream, e.name, e.category, e.start, e.end, e.stage,
             e.nbytes, e.correlation, e.flops)
            for s in stats for e in s.trace
        ]
        return trainer, [s.loss for s in stats], trace

    replayed, losses, trace = run()
    eager, eager_losses, eager_trace = run(fault_injector=_inert_faults())
    stats = replayed.plan_stats
    assert stats.captures <= 3
    assert stats.replays >= 9
    assert len(replayed._plans) == 2  # one per phase, current generation
    assert eager.plan_stats.eager_epochs == 12
    assert losses == eager_losses
    assert trace == eager_trace
    for a, b in zip(replayed.get_weights(), eager.get_weights()):
        assert np.array_equal(a, b)


def test_cache_counters_reach_telemetry(small_dataset, small_model):
    trainer = _trainer(
        small_dataset,
        small_model,
        cache_staleness_epochs=1,
        cache_budget_bytes=10**9,
    )
    telemetry = Telemetry()
    trainer.ctx.engine.telemetry = telemetry
    trainer.train_epoch()  # refresh
    trainer.train_epoch()  # serve
    reg = telemetry.registry
    assert reg.counter("repro_cache_epochs_total", phase="refresh").value == 1
    assert reg.counter("repro_cache_epochs_total", phase="serve").value == 1
    assert reg.counter("repro_cache_rows_hit_total").value > 0
    assert reg.counter("repro_cache_bytes_saved_total").value > 0
    assert 0.0 < reg.gauge("repro_cache_hit_rate").value <= 1.0
    assert reg.gauge("repro_cache_resident_bytes").value > 0


def test_cachebench_smoke_savings_and_parity(parity_dataset, parity_model):
    """Tier-1 miniature of benchmarks/test_cache_partition_speedup.py:
    with a generous budget, serve epochs shed most forward broadcast
    bytes while test accuracy stays put."""
    base = _trainer(parity_dataset, parity_model)
    for _ in range(PARITY_EPOCHS):
        base.train_epoch()
    cached = _trainer(
        parity_dataset,
        parity_model,
        cache_staleness_epochs=2,
        cache_budget_bytes=10**9,
    )
    for _ in range(PARITY_EPOCHS):
        cached.train_epoch()
    total = cached.training_cache.total
    assert total.bytes_sent < total.bytes_full
    saved_frac = total.bytes_saved / total.bytes_full
    assert saved_frac > 0.3  # the ISSUE floor, on intercepted traffic
    assert cached.evaluate("test") == pytest.approx(
        base.evaluate("test"), rel=1e-5
    )
