"""Integration: epoch capture & replay is bit-identical to eager training.

The acceptance bar for the sim-graph subsystem: by default epoch 1 is
captured and every later epoch replays the plan — and nothing observable
changes. Losses, epoch times, the full trace
(device/stream/name/category/start/end/stage/nbytes), and the final
weights must be *bitwise* equal to a run whose every epoch goes through
``_train_epoch_eager``, on both the serialised and overlapped schedules.
Replay must also never mask a fault: with an active fault plan the
trainer falls back to eager scheduling, and an elastic recovery (which
re-partitions the world) recaptures on the shrunken world.
"""

import numpy as np
import pytest

from repro.core.trainer import MGGCNTrainer, TrainerConfig
from repro.datasets import load_dataset
from repro.device import category_seconds
from repro.nn import GCNModelSpec
from repro.resilience import (
    DeviceFailure,
    FaultInjector,
    FaultPlan,
    StragglerSlowdown,
)
from repro.resilience.recovery import ElasticTrainer
from repro.training.loop import TrainingLoop

EPOCHS = 5


def _eager(trainer):
    """Run every epoch of ``trainer`` eagerly (no capture, no replay)."""
    trainer._capture_allowed = lambda: False
    return trainer


def _trace_tuples(stats):
    return [
        (e.device, e.stream, e.name, e.category, e.start, e.end, e.stage,
         e.nbytes)
        for s in stats
        for e in s.trace
    ]


@pytest.fixture(scope="module")
def replay_dataset():
    return load_dataset("cora", scale=0.2, learnable=True, seed=3)


@pytest.fixture(scope="module")
def replay_model(replay_dataset):
    ds = replay_dataset
    return GCNModelSpec.build(ds.d0, 16, ds.num_classes, 3)


class TestBitIdenticalReplay:
    @pytest.mark.parametrize("overlap", [False, True],
                             ids=["serialised", "overlapped"])
    def test_replay_matches_eager(self, replay_dataset, replay_model, overlap):
        eager = _eager(MGGCNTrainer(
            replay_dataset, replay_model, num_gpus=4,
            config=TrainerConfig(overlap=overlap),
        ))
        captured = MGGCNTrainer(
            replay_dataset, replay_model, num_gpus=4,
            config=TrainerConfig(overlap=overlap),
        )
        es = eager.fit(EPOCHS)
        cs = captured.fit(EPOCHS)

        assert [s.loss for s in es] == [s.loss for s in cs]  # bitwise
        assert [s.epoch_time for s in es] == [s.epoch_time for s in cs]
        assert _trace_tuples(es) == _trace_tuples(cs)
        for we, wc in zip(eager.get_weights(), captured.get_weights()):
            assert np.array_equal(we, wc)
        assert captured.plan_stats.captures == 1
        assert captured.plan_stats.replays == EPOCHS - 1
        assert captured.plan_stats.eager_epochs == 0
        assert eager.plan_stats.eager_epochs == EPOCHS
        # per-epoch category totals regenerate identically from the bulk trace
        assert category_seconds(es[-1].trace) == category_seconds(cs[-1].trace)

    def test_single_gpu_replay(self, replay_dataset, replay_model):
        eager = _eager(MGGCNTrainer(replay_dataset, replay_model, num_gpus=1))
        captured = MGGCNTrainer(replay_dataset, replay_model, num_gpus=1)
        es = eager.fit(EPOCHS)
        cs = captured.fit(EPOCHS)
        assert [s.loss for s in es] == [s.loss for s in cs]
        assert _trace_tuples(es) == _trace_tuples(cs)
        for we, wc in zip(eager.get_weights(), captured.get_weights()):
            assert np.array_equal(we, wc)

    def test_symbolic_mode_replay(self):
        ds = load_dataset("reddit", symbolic=True)
        model = GCNModelSpec.build(ds.d0, 128, ds.num_classes, 2)
        eager = _eager(MGGCNTrainer(ds, model, num_gpus=4))
        captured = MGGCNTrainer(ds, model, num_gpus=4)
        es = eager.fit(3)
        cs = captured.fit(3)
        assert all(s.loss is None for s in cs)
        assert [s.epoch_time for s in es] == [s.epoch_time for s in cs]
        assert _trace_tuples(es) == _trace_tuples(cs)
        assert captured.plan_stats.replays == 2

    def test_evaluate_between_replays_is_safe(self, replay_dataset,
                                              replay_model):
        """An eval forward pass between epochs must not corrupt replay."""
        eager = _eager(MGGCNTrainer(replay_dataset, replay_model, num_gpus=4))
        captured = MGGCNTrainer(replay_dataset, replay_model, num_gpus=4)
        accs_e, accs_c = [], []
        for _ in range(EPOCHS):
            eager.train_epoch()
            captured.train_epoch()
            accs_e.append(eager.evaluate("val"))
            accs_c.append(captured.evaluate("val"))
        assert accs_e == accs_c
        for we, wc in zip(eager.get_weights(), captured.get_weights()):
            assert np.array_equal(we, wc)


class TestInvalidation:
    def test_fault_plan_forces_eager(self, replay_dataset, replay_model):
        """A non-trivial fault plan disables capture; faults still surface."""
        plan = FaultPlan(
            stragglers=(StragglerSlowdown(rank=0, factor=3.0, start=0.0),)
        )
        faulty = MGGCNTrainer(
            replay_dataset, replay_model, num_gpus=4,
            config=TrainerConfig(fault_injector=FaultInjector(plan)),
        )
        clean = MGGCNTrainer(replay_dataset, replay_model, num_gpus=4)
        fs = faulty.fit(3)
        ks = clean.fit(3)
        assert faulty.plan_stats.captures == 0
        assert faulty.plan_stats.replays == 0
        assert faulty.plan_stats.eager_epochs == 3
        # the straggler dilates epoch time — replay would have masked it
        assert all(f.epoch_time > k.epoch_time for f, k in zip(fs, ks))

    def test_signature_change_recaptures(self, replay_dataset, replay_model):
        eager = _eager(MGGCNTrainer(replay_dataset, replay_model, num_gpus=4))
        captured = MGGCNTrainer(replay_dataset, replay_model, num_gpus=4)
        es = eager.fit(EPOCHS)
        cs = [captured.train_epoch() for _ in range(2)]
        # simulate a world change: the stored plan's world no longer matches.
        captured._plans = {
            (("stale",), None): plan for plan in captured._plans.values()
        }
        cs += [captured.train_epoch() for _ in range(EPOCHS - 2)]
        assert captured.plan_stats.invalidations == 1
        assert captured.plan_stats.captures == 2
        assert captured.plan_stats.replays == EPOCHS - 2
        assert [s.loss for s in es] == [s.loss for s in cs]
        assert _trace_tuples(es) == _trace_tuples(cs)
        for we, wc in zip(eager.get_weights(), captured.get_weights()):
            assert np.array_equal(we, wc)

    def test_manual_invalidate(self, replay_dataset, replay_model):
        trainer = MGGCNTrainer(replay_dataset, replay_model, num_gpus=2)
        trainer.train_epoch()
        assert len(trainer._plans) == 1
        trainer.invalidate_plan()
        assert not trainer._plans
        assert trainer.plan_stats.invalidations == 1
        trainer.invalidate_plan()  # idempotent on empty
        assert trainer.plan_stats.invalidations == 1
        trainer.train_epoch()
        assert trainer.plan_stats.captures == 2


class TestElasticRecapture:
    def test_recovery_recaptures_on_shrunken_world(
        self, replay_dataset, replay_model, monkeypatch
    ):
        """Replay never masks a failure; capture resumes after recovery."""
        ref = ElasticTrainer(
            replay_dataset, replay_model, num_gpus=4, plan=FaultPlan()
        )
        ref_stats = ref.fit(EPOCHS)
        fail_at = 0.5 * sum(s.epoch_time for s in ref_stats[:2])

        plan = FaultPlan(device_failures=(DeviceFailure(rank=1, time=fail_at),))
        plain = ElasticTrainer(
            replay_dataset, replay_model, num_gpus=4, plan=plan
        )
        capturing = ElasticTrainer(
            replay_dataset, replay_model, num_gpus=4, plan=plan
        )

        with monkeypatch.context() as m:
            # every trainer recovery builds runs eagerly
            m.setattr(MGGCNTrainer, "_capture_allowed", lambda self: False)
            ps = plain.fit(EPOCHS)
        cs = capturing.fit(EPOCHS)

        assert capturing.num_gpus == 3
        assert len(capturing.recovery_log) == 1
        # the failure surfaced eagerly (no capture before recovery), and
        # the rebuilt trainer — whose remapped plan dropped the retired
        # rank's failure — recaptured on the 3-GPU world.
        assert capturing.plan_stats.captures == 1
        assert capturing.plan_stats.replays >= 1
        # identical trajectory to the all-eager elastic run, bitwise.
        assert [s.loss for s in ps] == [s.loss for s in cs]
        assert [s.epoch_time for s in ps] == [s.epoch_time for s in cs]
        for wp, wc in zip(plain.get_weights(), capturing.get_weights()):
            assert np.array_equal(wp, wc)


class TestTrainingLoopIntegration:
    def test_loop_capture_epochs(self, replay_dataset, replay_model):
        eager_loop = TrainingLoop(
            _eager(MGGCNTrainer(replay_dataset, replay_model, num_gpus=4)),
            max_epochs=EPOCHS, eval_every=0,
        )
        capture_loop = TrainingLoop(
            MGGCNTrainer(replay_dataset, replay_model, num_gpus=4),
            max_epochs=EPOCHS, eval_every=0,
        )
        he = eager_loop.run()
        hc = capture_loop.run()
        assert he.losses == hc.losses
        assert he.epoch_times == hc.epoch_times
        assert he.total_simulated_time == hc.total_simulated_time
        assert capture_loop.trainer.plan_stats.replays == EPOCHS - 1


class TestTelemetryParity:
    """A replayed epoch books what the same epoch run eagerly books."""

    @pytest.mark.parametrize(
        "record_trace,trace_ops",
        [(False, False), (True, False), (True, True)],
        ids=["metrics-only", "traced", "op-spans"],
    )
    def test_registry_matches_eager_run(self, replay_dataset, replay_model,
                                        record_trace, trace_ops):
        from repro.hardware.machines import multi_node_cluster, uniform_machine
        from repro.telemetry import Telemetry

        def counters(**config):
            # 2 nodes x 2 GPUs: intra- and inter-node link tiers both book.
            trainer = MGGCNTrainer(
                replay_dataset, replay_model, num_gpus=4,
                machine=multi_node_cluster(2, node=uniform_machine(2)),
                config=TrainerConfig(record_trace=record_trace, **config),
            )
            telemetry = Telemetry(trace_ops=trace_ops)
            trainer.ctx.engine.telemetry = telemetry
            trainer.fit(EPOCHS)
            return trainer, telemetry.registry.flatten()

        replayed, got = counters()
        inert = FaultInjector(
            FaultPlan(device_failures=(DeviceFailure(rank=0, time=1e9),))
        )
        eager, want = counters(fault_injector=inert)
        assert replayed.plan_stats.replays == EPOCHS - 1
        assert eager.plan_stats.eager_epochs == EPOCHS
        assert got.pop("repro_plan_replays_total") == EPOCHS - 1
        assert set(got) == set(want)
        assert any("device=\"gpu3\"" in key for key in got)
        assert any("inter_node" in key for key in got)
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0), key
