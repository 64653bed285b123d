"""Elastic recovery: survive permanent device failure and keep training.

:class:`ElasticTrainer` wraps :class:`~repro.core.trainer.MGGCNTrainer`
with the recovery protocol of production data-parallel systems
(torchelastic, DeepSpeed's elasticity): when a collective or kernel
surfaces a :class:`~repro.errors.DeviceFailedError`, the trainer

1. **checkpoints from a surviving replica** — weights/Adam state are
   replicated (§4.1), so rank 0 of the shrunken world holds the exact
   model as of the last completed optimizer step; the state is staged
   through :mod:`repro.nn.checkpoint` (atomic, checksummed);
2. **re-partitions the graph 1D** across the surviving GPUs via
   :func:`~repro.core.partitioner.partition_dataset` (same permutation
   seed, so the layout is deterministic);
3. **rebuilds buffers and re-broadcasts** the restored weights to every
   surviving replica;
4. **replays** any epochs lost since the last checkpoint and resumes.

All recovery work is costed as discrete events on the simulated
timeline (``recovery/checkpoint_restore``, ``recovery/repartition``,
``recovery/bcast_w``), and the pre-failure trace is carried over so
one continuous timeline spans the failure. In FUNCTIONAL mode the
recovered run computes the same training trajectory as an uninterrupted
one (the epoch math is GPU-count invariant), which the integration
tests assert at ``rtol=1e-5``.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Union

from repro.config import FLOAT_SIZE, INDEX_SIZE
from repro.core.trainer import MGGCNTrainer, TrainerConfig
from repro.datasets.loader import Dataset
from repro.device.tensor import Mode
from repro.errors import ConfigurationError, DeviceFailedError, RecoveryError
from repro.hardware.machines import dgx1
from repro.hardware.spec import MachineSpec
from repro.nn.checkpoint import load_checkpoint, save_checkpoint
from repro.nn.model import GCNModelSpec
from repro.resilience.faults import (
    CollectiveFault,
    DeviceFailure,
    FaultPlan,
    LinkDegradation,
    StragglerSlowdown,
)
from repro.resilience.injector import FaultInjector
from repro.resilience.policy import RecoveryPolicy


@dataclass(frozen=True)
class RecoveryEvent:
    """One completed elastic recovery."""

    failed_rank: int
    failed_at: float
    detected_at: float
    recovered_at: float
    survivors: int
    replayed_epochs: int

    @property
    def recovery_cost(self) -> float:
        """Simulated seconds from detection to a training-ready world."""
        return self.recovered_at - self.detected_at


def remap_plan(
    plan: FaultPlan,
    survivors: Sequence[int],
    collective_budget: Optional[Sequence[int]] = None,
) -> FaultPlan:
    """Renumber a plan's ranks after shrinking the world to ``survivors``.

    ``survivors`` lists the old logical ranks that remain, in new-rank
    order; faults addressing retired ranks are dropped, and
    ``collective_budget`` (remaining transient failures per window)
    replaces each window's original budget.
    """
    logical = {int(p): l for l, p in enumerate(survivors)}
    failures = tuple(
        DeviceFailure(rank=logical[f.rank], time=f.time)
        for f in plan.device_failures
        if f.rank in logical
    )
    stragglers = tuple(
        StragglerSlowdown(
            rank=logical[s.rank], factor=s.factor, start=s.start, end=s.end
        )
        for s in plan.stragglers
        if s.rank in logical
    )
    degradations = []
    for d in plan.link_degradations:
        if d.ranks is None:
            degradations.append(d)
            continue
        mapped = tuple(sorted(logical[r] for r in d.ranks if r in logical))
        if mapped:
            degradations.append(
                LinkDegradation(
                    factor=d.factor, start=d.start, end=d.end, ranks=mapped
                )
            )
    if collective_budget is None:
        collective_budget = [f.failures for f in plan.collective_faults]
    collective = tuple(
        CollectiveFault(start=f.start, end=f.end, failures=int(remaining))
        for f, remaining in zip(plan.collective_faults, collective_budget)
        if remaining > 0
    )
    return FaultPlan(
        device_failures=failures,
        link_degradations=tuple(degradations),
        stragglers=stragglers,
        collective_faults=collective,
    )


class ElasticTrainer:
    """An MG-GCN trainer that survives permanent device failures.

    Drop-in for :class:`MGGCNTrainer` in the training loop: exposes
    ``train_epoch`` / ``fit`` / ``evaluate`` / ``predict`` /
    ``get_weights``. With an empty fault plan it is a transparent
    wrapper; with injected device failures it shrinks the world and
    continues (up to ``policy.max_failures`` times).
    """

    def __init__(
        self,
        dataset: Dataset,
        model: GCNModelSpec,
        machine: Optional[MachineSpec] = None,
        num_gpus: Optional[int] = None,
        config: Optional[TrainerConfig] = None,
        plan: Optional[FaultPlan] = None,
        injector: Optional[FaultInjector] = None,
        policy: Optional[RecoveryPolicy] = None,
    ):
        if dataset.is_symbolic:
            raise ConfigurationError(
                "elastic recovery requires a functional dataset (the "
                "recovered-run convergence guarantee is a FUNCTIONAL-mode "
                "property); inject faults into a plain MGGCNTrainer for "
                "symbolic timing studies"
            )
        self.dataset = dataset
        self.model = model
        self.machine = machine or dgx1()
        self.policy = policy or RecoveryPolicy()
        if injector is not None and plan is not None:
            raise ConfigurationError("pass either plan or injector, not both")
        self.injector = injector if injector is not None else FaultInjector(plan)
        base = config or TrainerConfig()
        timeout = (
            base.collective_timeout
            if base.collective_timeout is not None
            else self.policy.detection_timeout
        )
        self._base_config = replace(
            base, fault_injector=self.injector, collective_timeout=timeout
        )
        self.trainer = MGGCNTrainer(
            dataset,
            model,
            machine=self.machine,
            num_gpus=num_gpus,
            config=self._base_config,
        )
        #: completed recoveries, in order.
        self.recovery_log: List[RecoveryEvent] = []
        self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-elastic-")
        self._ckpt_path = os.path.join(self._tmpdir.name, "elastic.npz")
        self._ckpt_epoch = 0
        save_checkpoint(self.trainer, self._ckpt_path)

    # -- convenience --------------------------------------------------------

    @property
    def num_gpus(self) -> int:
        return self.trainer.ctx.num_gpus

    @property
    def ctx(self):
        return self.trainer.ctx

    @property
    def mode(self) -> Mode:
        return self.trainer.mode

    @property
    def epochs_trained(self) -> int:
        return self.trainer.epochs_trained

    @property
    def plan_stats(self):
        """The live trainer's capture/replay counters (resets on recovery)."""
        return self.trainer.plan_stats

    def get_weights(self):
        return self.trainer.get_weights()

    def evaluate(self, split: str = "test") -> float:
        return self.trainer.evaluate(split)

    def predict(self):
        return self.trainer.predict()

    # -- training -----------------------------------------------------------

    def train_epoch(self):
        """One epoch; transparently recovers from device failure."""
        while True:
            try:
                stats = self.trainer.train_epoch()
            except DeviceFailedError as exc:
                self.recover(exc)
                continue
            self._maybe_checkpoint()
            return stats

    def fit(self, epochs: int):
        if epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {epochs}")
        return [self.train_epoch() for _ in range(epochs)]

    def _maybe_checkpoint(self) -> None:
        if self.trainer.epochs_trained % self.policy.checkpoint_every == 0:
            save_checkpoint(self.trainer, self._ckpt_path)
            self._ckpt_epoch = self.trainer.epochs_trained

    # -- recovery protocol --------------------------------------------------

    def recover(self, failure: DeviceFailedError) -> RecoveryEvent:
        """Shrink the world past ``failure`` and restore training state."""
        if len(self.recovery_log) >= self.policy.max_failures:
            raise RecoveryError(
                f"failure budget exhausted ({self.policy.max_failures}); "
                f"rank {failure.rank} failed at t={failure.failed_at:.6f}s"
            )
        old = self.trainer
        P = old.ctx.num_gpus
        if not (0 <= failure.rank < P):
            raise RecoveryError(
                f"failed rank {failure.rank} outside world of size {P}"
            )
        target_epoch = old.epochs_trained
        detect = max(failure.detected_at, old.ctx.elapsed())
        # near-simultaneous failures: drop every rank already dead by the
        # time the failure is detected, not just the one that surfaced.
        survivors = [
            r
            for r in range(P)
            if r != failure.rank
            and (
                self.injector.device_failure_time(r) is None
                or self.injector.device_failure_time(r) > detect
            )
        ]
        if not survivors:
            raise RecoveryError("no surviving GPUs to recover onto")
        old_trace = list(old.ctx.engine.trace)
        telemetry = getattr(old.ctx.engine, "telemetry", None)
        span = None
        if telemetry is not None:
            span = telemetry.tracer.begin(
                "recovery",
                detect,
                correlation=f"recovery-{len(self.recovery_log)}",
                category="recovery",
                failed_rank=failure.rank,
            )
            flight_note = getattr(telemetry, "flight_note", None)
            if flight_note is not None:
                flight_note(
                    "fault",
                    time=detect,
                    rank=failure.rank,
                    failed_at=failure.failed_at,
                    survivors=len(survivors),
                )

        # shrink the injector's world to the survivors' new numbering,
        # carrying over whatever transient-fault budget remains; its plan
        # keeps counting from the start of training.
        new_injector = FaultInjector(
            remap_plan(
                self.injector.plan,
                survivors,
                self.injector.collective_budget_remaining(),
            )
        )
        new_injector.origin = self.injector.origin
        self.injector = new_injector
        cfg = replace(self._base_config, fault_injector=new_injector)
        self._base_config = cfg
        new_trainer = MGGCNTrainer(
            self.dataset,
            self.model,
            machine=self.machine,
            num_gpus=len(survivors),
            config=cfg,
        )

        # one continuous timeline across the failure: carry the old trace,
        # then cost the recovery protocol as discrete events.
        ctx = new_trainer.ctx
        engine = ctx.engine
        # the telemetry hub outlives the engine it was attached to: carry
        # it over so counters/spans stay continuous across the failure.
        engine.telemetry = telemetry
        if engine.record_trace:
            # the replacement's set-up pass ran on its own clock from 0,
            # not on this timeline: recovery does not charge it.
            engine.clear_trace()
            engine.record_events(old_trace)
        for s in ctx.all_streams():
            s.ready_time = detect
        state_bytes = 3 * sum(w.nbytes for w in new_trainer.weights[0])
        graph_bytes = self.dataset.features.nbytes + self.dataset.m * (
            2 * INDEX_SIZE + FLOAT_SIZE
        )
        stream0 = ctx.device(0).compute_stream
        engine.submit(
            stream0,
            "recovery/checkpoint_restore",
            "recovery",
            state_bytes / self.policy.host_bandwidth,
        )
        engine.submit(
            stream0,
            "recovery/repartition",
            "recovery",
            graph_bytes / self.policy.host_bandwidth,
        )
        engine.barrier(ctx.all_streams())

        # restore the surviving replica's state and fan it back out: every
        # layer's weights are segments of one flat buffer, so one
        # broadcast covers the model.
        load_checkpoint(new_trainer, self._ckpt_path)
        try:
            if len(survivors) > 1:
                flat_w = [flat[0] for flat in new_trainer._flat]
                new_trainer.comm.broadcast(
                    0,
                    flat_w[0],
                    {r: w for r, w in enumerate(flat_w) if r != 0},
                    name="recovery/bcast_w",
                )
            recovered_at = ctx.synchronize()
        except DeviceFailedError as next_failure:
            # another device died during the recovery itself: commit the
            # shrunken world, log this (aborted) recovery at its give-up
            # time, and recover again from there.
            self.trainer = new_trainer
            aborted = RecoveryEvent(
                failed_rank=failure.rank,
                failed_at=failure.failed_at,
                detected_at=detect,
                recovered_at=next_failure.detected_at,
                survivors=len(survivors),
                replayed_epochs=0,
            )
            self.recovery_log.append(aborted)
            if telemetry is not None:
                telemetry.tracer.end(span, next_failure.detected_at)
                telemetry.inc("repro_recoveries_total", outcome="aborted")
                telemetry.observe(
                    "repro_recovery_cost_seconds", aborted.recovery_cost
                )
                dump = getattr(telemetry, "dump_postmortem", None)
                if dump is not None:
                    dump(
                        "recovery",
                        time=next_failure.detected_at,
                        outcome="aborted",
                        failed_rank=failure.rank,
                        survivors=len(survivors),
                    )
            return self.recover(next_failure)
        self.trainer = new_trainer
        event = RecoveryEvent(
            failed_rank=failure.rank,
            failed_at=failure.failed_at,
            detected_at=detect,
            recovered_at=recovered_at,
            survivors=len(survivors),
            replayed_epochs=max(target_epoch - self._ckpt_epoch, 0),
        )
        self.recovery_log.append(event)
        if telemetry is not None:
            telemetry.tracer.end(span, recovered_at)
            telemetry.inc("repro_recoveries_total", outcome="recovered")
            telemetry.observe("repro_recovery_cost_seconds", event.recovery_cost)
            dump = getattr(telemetry, "dump_postmortem", None)
            if dump is not None:
                dump(
                    "recovery",
                    time=recovered_at,
                    outcome="recovered",
                    failed_rank=failure.rank,
                    survivors=len(survivors),
                )

        # replay epochs lost since the last checkpoint; a further failure
        # during replay recurses (bounded by the failure budget).
        while self.trainer.epochs_trained < target_epoch:
            try:
                self.trainer.train_epoch()
            except DeviceFailedError as exc:
                self.recover(exc)
        return event
