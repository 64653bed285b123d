"""The runtime side of fault injection.

A :class:`FaultInjector` wraps a :class:`~repro.resilience.faults.FaultPlan`
and answers the questions the substrate asks while it schedules ops:

* engine: *"is this device alive at time t? how much slower is it?"*
* topology/collectives: *"what bandwidth factor applies at time t?"*,
  *"does this collective attempt fail transiently?"*

The injector is attached to a :class:`~repro.device.engine.SimContext`
(and from there reaches the engine and topology); every consumer guards
with ``injector is None or injector.is_trivial`` so that fault-free runs
take exactly the pre-existing code path — the zero-cost-abstraction
guarantee the benchmarks assert.

The plan's times count from :attr:`FaultInjector.origin`, the simulated
time training starts: a bare injector counts from 0, and the first
:class:`~repro.core.trainer.MGGCNTrainer` built on it sets the origin to
its clock at the end of construction, holding every fault (:meth:`held`)
while it builds. Elastic recovery hands the old origin to the
replacement injector, so one plan spans the whole run.

The only other mutable state is the per-window budget of transient
collective faults (``reset()`` restores it), so a given plan
deterministically produces the same injected behaviour on every run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import DeviceFailedError
from repro.resilience.faults import DeviceFailure, FaultPlan
from repro.utils.rng import SeedLike, as_generator


class FaultInjector:
    """Consults a :class:`FaultPlan` on behalf of the substrate."""

    def __init__(self, plan: Optional[FaultPlan] = None, seed: SeedLike = None):
        self.plan = plan if plan is not None else FaultPlan()
        #: generator reserved for consumers that want runtime jitter;
        #: the injector itself is fully determined by the plan.
        self.rng = as_generator(seed)
        self._origin: Optional[float] = None
        self._start = 0.0
        #: absolute failure time per rank (plan time + origin).
        self._fail_time: Dict[int, float] = {
            f.rank: f.time for f in self.plan.device_failures
        }
        self._collective_budget: List[int] = [
            f.failures for f in self.plan.collective_faults
        ]
        self._held = False

    @property
    def origin(self) -> Optional[float]:
        """Simulated time the plan's times count from; None until set
        (the plan then counts from 0)."""
        return self._origin

    @origin.setter
    def origin(self, origin: Optional[float]) -> None:
        self._origin = origin
        self._start = 0.0 if origin is None else origin
        self._fail_time = {
            f.rank: self._start + f.time for f in self.plan.device_failures
        }

    @property
    def is_trivial(self) -> bool:
        """True when the plan injects nothing, or faults are held
        (fast-path guard)."""
        return self._held or self.plan.is_empty

    @contextmanager
    def held(self) -> Iterator[None]:
        """Inject nothing inside the block (a trainer's construction)."""
        self._held = True
        try:
            yield
        finally:
            self._held = False

    def reset(self) -> None:
        """Restore consumable budgets (fresh run of the same plan)."""
        self._collective_budget = [
            f.failures for f in self.plan.collective_faults
        ]

    def collective_budget_remaining(self) -> List[int]:
        """Unconsumed transient failures per window (plan order)."""
        return list(self._collective_budget)

    # -- device failures -----------------------------------------------------

    def device_failure_time(self, rank: int) -> Optional[float]:
        """The time at which ``rank`` dies, or None if it never does."""
        return self._fail_time.get(rank)

    def check_device(self, device: str, rank: int, time: float) -> None:
        """Raise :class:`DeviceFailedError` if ``rank`` is dead at ``time``."""
        failed_at = self._fail_time.get(rank)
        if failed_at is not None and time >= failed_at:
            raise DeviceFailedError(
                device=device, rank=rank, failed_at=failed_at, detected_at=time
            )

    def first_failure_among(
        self, ranks: Sequence[int], before: float
    ) -> Optional[DeviceFailure]:
        """Earliest device failure among ``ranks`` strictly before ``before``."""
        best: Optional[DeviceFailure] = None
        for r in ranks:
            t = self._fail_time.get(int(r))
            if t is not None and t < before:
                if best is None or t < best.time:
                    best = DeviceFailure(rank=int(r), time=t)
        return best

    def surviving_ranks(self, ranks: Sequence[int], time: float) -> List[int]:
        """The subset of ``ranks`` still alive at ``time``."""
        out = []
        for r in ranks:
            t = self._fail_time.get(int(r))
            if t is None or t > time:
                out.append(int(r))
        return out

    # -- stragglers ---------------------------------------------------------

    def compute_factor(self, rank: int, time: float) -> float:
        """Kernel-duration multiplier for ``rank`` at ``time`` (>= 1)."""
        factor = 1.0
        time -= self._start
        for s in self.plan.stragglers:
            if s.rank == rank and s.active(time):
                factor *= s.factor
        return factor

    # -- link degradation ---------------------------------------------------

    def bandwidth_factor(
        self, time: float, ranks: Optional[Sequence[int]] = None
    ) -> float:
        """Bandwidth multiplier in (0, 1] for a collective at ``time``."""
        factor = 1.0
        time -= self._start
        for d in self.plan.link_degradations:
            if d.active(time) and d.applies_to(ranks):
                factor = min(factor, d.factor)
        return factor

    # -- transient collective faults ----------------------------------------

    def take_collective_fault(self, time: float) -> bool:
        """Consume one transient failure active at ``time``, if any.

        Returns True when the current collective attempt should fail;
        the budget of the matching window is decremented so retries
        eventually succeed (unless the plan says otherwise).
        """
        time -= self._start
        for idx, fault in enumerate(self.plan.collective_faults):
            if fault.active(time) and self._collective_budget[idx] > 0:
                self._collective_budget[idx] -= 1
                return True
        return False
