"""Epoch statistics: timings, loss, memory and the epoch's trace."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.device.engine import TraceEvent, category_seconds

#: op categories reported in Fig. 5's breakdown, in the figure's order.
BREAKDOWN_CATEGORIES: Tuple[str, ...] = (
    "activation",
    "adam",
    "gemm",
    "loss",
    "spmm",
)


@dataclass
class EpochStats:
    """Everything measured about one training epoch."""

    #: simulated wall-clock duration of the epoch (max over devices).
    epoch_time: float
    #: training loss (None for symbolic runs).
    loss: Optional[float]
    #: peak device memory over the epoch, bytes (max over GPUs).
    peak_memory: int
    #: the raw trace of the epoch (for timeline rendering).
    trace: List[TraceEvent] = field(default_factory=list)

    def category_time(self, category: str) -> float:
        """Total op seconds of ``category`` in the epoch (all devices)."""
        return category_seconds(self.trace).get(category, 0.0)

    @property
    def comm_time(self) -> float:
        return self.category_time("comm")

    @property
    def spmm_time(self) -> float:
        return self.category_time("spmm")
