"""Integration: elastic recovery from mid-training device failure.

The acceptance bar for the resilience subsystem: a seeded plan that
kills 1 of 4 GPUs mid-training must recover onto 3 GPUs and reach the
uninterrupted reference accuracy (FUNCTIONAL mode), with the recovery
protocol visible as discrete events on the simulated timeline — and an
*empty* plan must change nothing at all, bitwise.
"""

import numpy as np
import pytest

from repro.core.trainer import MGGCNTrainer, TrainerConfig
from repro.resilience import DeviceFailure, FaultPlan, RecoveryPolicy
from repro.resilience.chaos import ChaosScenario, run_chaos_scenario
from repro.resilience.recovery import ElasticTrainer
from repro.training.loop import TrainingLoop

EPOCHS = 6
# weights diverge only by cross-GPU-count reduction order; the existing
# equivalence suite allows rtol=5e-3/atol=5e-5, we hold recovery tighter.
W_RTOL, W_ATOL = 1e-5, 1e-7


def _fail_mid_epoch(ref_stats, epoch):
    """A time ~60% into ``epoch`` (1-based) of the reference run."""
    before = sum(s.epoch_time for s in ref_stats[: epoch - 1])
    return before + 0.6 * ref_stats[epoch - 1].epoch_time


@pytest.fixture(scope="module")
def reference(small_dataset, small_model):
    trainer = MGGCNTrainer(small_dataset, small_model, num_gpus=4)
    stats = trainer.fit(EPOCHS)
    return trainer, stats


class TestElasticRecovery:
    def test_mid_epoch_failure_recovers_and_matches_reference(
        self, small_dataset, small_model, reference
    ):
        ref_trainer, ref_stats = reference
        plan = FaultPlan(
            device_failures=(
                DeviceFailure(rank=2, time=_fail_mid_epoch(ref_stats, 4)),
            )
        )
        elastic = ElasticTrainer(small_dataset, small_model, num_gpus=4, plan=plan)
        stats = [elastic.train_epoch() for _ in range(EPOCHS)]

        # world shrank once, from 4 to 3
        assert elastic.num_gpus == 3
        assert len(elastic.recovery_log) == 1
        ev = elastic.recovery_log[0]
        assert ev.failed_rank == 2
        assert ev.survivors == 3
        assert ev.recovered_at > ev.detected_at >= ev.failed_at

        # FUNCTIONAL-mode guarantee: same training trajectory as the
        # uninterrupted run, to the cross-GPU-count tolerance.
        for got, want in zip(elastic.get_weights(), ref_trainer.get_weights()):
            np.testing.assert_allclose(got, want, rtol=W_RTOL, atol=W_ATOL)
        acc = elastic.evaluate("test")
        ref_acc = ref_trainer.evaluate("test")
        assert acc == pytest.approx(ref_acc, rel=1e-5)
        assert len(stats) == EPOCHS
        assert elastic.epochs_trained == EPOCHS

        # recovery cost shows up as discrete timeline events
        names = {ev.name for ev in elastic.ctx.engine.trace}
        assert "recovery/checkpoint_restore" in names
        assert "recovery/repartition" in names
        assert any(n.startswith("recovery/bcast_w") for n in names)
        # one broadcast of the flat weight buffer restores every layer:
        # one rendezvous, one event per survivor.
        bcasts = [e.name for e in elastic.ctx.engine.trace
                  if e.name.startswith("recovery/bcast_w")]
        assert bcasts == ["recovery/bcast_w"] * ev.survivors
        flat_w = [flat[0].data for flat in elastic.trainer._flat]
        assert all(np.array_equal(w, flat_w[0]) for w in flat_w)
        categories = elastic.ctx.engine.events_by_category()
        assert categories.get("recovery", 0.0) > 0.0

    def test_replay_from_stale_checkpoint(
        self, small_dataset, small_model, reference
    ):
        """checkpoint_every=2 forces one epoch of replay after the failure."""
        ref_trainer, ref_stats = reference
        plan = FaultPlan(
            device_failures=(
                DeviceFailure(rank=0, time=_fail_mid_epoch(ref_stats, 4)),
            )
        )
        elastic = ElasticTrainer(
            small_dataset,
            small_model,
            num_gpus=4,
            plan=plan,
            policy=RecoveryPolicy(checkpoint_every=2),
        )
        elastic.fit(EPOCHS)
        assert elastic.recovery_log[0].replayed_epochs == 1
        for got, want in zip(elastic.get_weights(), ref_trainer.get_weights()):
            np.testing.assert_allclose(got, want, rtol=W_RTOL, atol=W_ATOL)

    def test_empty_plan_is_bit_identical(self, small_dataset, small_model):
        plain = MGGCNTrainer(small_dataset, small_model, num_gpus=4)
        plain_stats = plain.fit(3)
        elastic = ElasticTrainer(
            small_dataset, small_model, num_gpus=4, plan=FaultPlan()
        )
        elastic_stats = [elastic.train_epoch() for _ in range(3)]
        for a, b in zip(plain_stats, elastic_stats):
            assert a.epoch_time == b.epoch_time  # exact
            assert a.loss == b.loss
        for a, b in zip(plain.get_weights(), elastic.get_weights()):
            assert (a == b).all()
        assert elastic.recovery_log == []

    def test_training_loop_drives_recovery(
        self, small_dataset, small_model, reference
    ):
        """TrainingLoop over an ElasticTrainer recovers inside the epoch."""
        _, ref_stats = reference
        plan = FaultPlan(
            device_failures=(
                DeviceFailure(rank=1, time=_fail_mid_epoch(ref_stats, 2)),
            )
        )
        elastic = ElasticTrainer(
            small_dataset, small_model, num_gpus=4, plan=plan
        )
        history = TrainingLoop(elastic, max_epochs=4, eval_every=0).run()
        assert history.epochs == 4
        assert elastic.num_gpus == 3
        assert len(elastic.recovery_log) == 1
        assert elastic.recovery_log[0].failed_rank == 1

    def test_failure_budget_exhaustion(self, small_dataset, small_model, reference):
        from repro.errors import RecoveryError

        _, ref_stats = reference
        plan = FaultPlan(
            device_failures=(
                DeviceFailure(rank=0, time=_fail_mid_epoch(ref_stats, 1)),
            )
        )
        elastic = ElasticTrainer(
            small_dataset,
            small_model,
            num_gpus=4,
            plan=plan,
            policy=RecoveryPolicy(max_failures=0),
        )
        with pytest.raises(RecoveryError):
            elastic.fit(2)

    def test_symbolic_dataset_rejected(self, small_model):
        from repro.datasets import load_dataset
        from repro.errors import ConfigurationError

        symbolic = load_dataset("reddit", symbolic=True)
        with pytest.raises(ConfigurationError):
            ElasticTrainer(symbolic, small_model, num_gpus=4)


class TestChaosHarness:
    def test_chaos_smoke(self, small_dataset, small_model, reference):
        """Fast tier-1 scenario: one failure + transient faults, 3 epochs."""
        _, ref_stats = reference
        from repro.resilience import CollectiveFault, StragglerSlowdown

        horizon = sum(s.epoch_time for s in ref_stats)
        plan = FaultPlan(
            device_failures=(
                DeviceFailure(rank=3, time=_fail_mid_epoch(ref_stats, 2)),
            ),
            stragglers=(
                StragglerSlowdown(
                    rank=0, factor=1.5, start=0.0, end=0.3 * horizon
                ),
            ),
            collective_faults=(
                CollectiveFault(start=0.0, end=horizon, failures=1),
            ),
        )
        report = run_chaos_scenario(
            ChaosScenario(
                dataset=small_dataset,
                model=small_model,
                plan=plan,
                epochs=3,
                num_gpus=4,
            )
        )
        assert report.survived
        assert report.final_gpus == 3
        assert report.num_recoveries == 1
        assert report.recovery_time > 0.0
        assert report.test_accuracy is not None and report.test_accuracy > 0.3
        assert len(report.losses) == 3
        assert np.all(np.isfinite(report.losses))
        assert report.time_by_category.get("recovery", 0.0) > 0.0

    @pytest.mark.chaos
    def test_random_plan_sweep(self, small_dataset, small_model):
        """Seeded random scenarios all finish (long; run with '-m chaos')."""
        base = ElasticTrainer(
            small_dataset, small_model, num_gpus=4, plan=FaultPlan()
        )
        horizon = sum(s.epoch_time for s in base.fit(4))
        for seed in range(5):
            plan = FaultPlan.random(
                num_gpus=4,
                horizon=horizon,
                seed=seed,
                device_failure_rate=1.0 / horizon,
                straggler_rate=1.0 / horizon,
                collective_fault_rate=1.0 / horizon,
                window=horizon / 4,
            )
            report = run_chaos_scenario(
                ChaosScenario(
                    dataset=small_dataset,
                    model=small_model,
                    plan=plan,
                    epochs=4,
                    num_gpus=4,
                )
            )
            assert report.survived
            assert report.final_gpus == 4 - len(plan.device_failures)
