"""Incremental repartitioning under cost drift.

Mutation streams skew the per-rank load of a contiguous 1D partition:
inserts pile nonzeros onto hot rows, deletes hollow out cold ranges.
:class:`Rebalancer` watches the drift of the modelled per-rank cost
(the same per-row cost vector
:func:`~repro.sparse.partition.weighted_cost_partition` consumes —
SpMM nnz traffic plus per-row broadcast bytes) and, when the max/mean
imbalance crosses a threshold, recuts the boundaries. The result
reports exactly which rows changed owner, so consumers move only those
rows: the serving engine rewrites its routing table and drops its warm
plan (plan signatures change -> capture/replay recaptures instead of
stale-replaying), and per-rank memory accounting follows the moved
rows rather than being rebuilt wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.config import FLOAT_SIZE, INDEX_SIZE
from repro.errors import ConfigurationError
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import PartitionVector, weighted_cost_partition


@dataclass(frozen=True)
class RebalanceResult:
    """Outcome of one drift check."""

    triggered: bool
    imbalance_before: float
    imbalance_after: float
    #: rows whose owner changed (empty when not triggered).
    moved_rows: np.ndarray
    partition: PartitionVector

    @property
    def moves(self) -> int:
        return int(self.moved_rows.size)


class Rebalancer:
    """Watch per-rank cost drift; recut the 1D partition when it spikes."""

    def __init__(
        self,
        parts: int,
        threshold: float = 1.25,
        feature_dim: int = 0,
        machine=None,
        capacities: Optional[Sequence[float]] = None,
    ):
        if parts < 1:
            raise ConfigurationError(f"parts must be >= 1, got {parts}")
        if threshold < 1.0:
            raise ConfigurationError(
                f"threshold is a max/mean ratio, must be >= 1.0, "
                f"got {threshold}"
            )
        self.parts = parts
        self.threshold = threshold
        self.feature_dim = feature_dim
        self._machine = machine
        if capacities is not None:
            caps = np.asarray(capacities, dtype=np.float64)
        elif machine is not None:
            caps = np.array(
                [machine.injection_bandwidth(r) for r in range(parts)],
                dtype=np.float64,
            )
            caps /= caps.mean()
        else:
            caps = np.ones(parts, dtype=np.float64)
        if caps.size != parts:
            raise ConfigurationError(
                f"{caps.size} capacities for {parts} parts"
            )
        self.capacities = caps
        self.rebalances = 0
        self.total_moves = 0

    def row_costs(self, matrix: CSRMatrix) -> np.ndarray:
        """Per-row modelled cost: nnz memory traffic + broadcast bytes.

        Without a machine the byte terms use unit bandwidths, which
        preserves the *relative* weighting the cut cares about.
        """
        row_nnz = matrix.row_nnz().astype(np.float64)
        if self._machine is not None:
            t_nnz = (
                INDEX_SIZE + 2 * FLOAT_SIZE
            ) / self._machine.gpu.memory_bandwidth
        else:
            t_nnz = float(INDEX_SIZE + 2 * FLOAT_SIZE)
        return row_nnz * t_nnz + self.feature_dim * FLOAT_SIZE * 1e-3

    def imbalance(
        self, matrix: CSRMatrix, part: PartitionVector
    ) -> float:
        """Capacity-normalised max/mean per-part cost ratio."""
        costs = self.row_costs(matrix)
        bounds = np.asarray(part.boundaries, dtype=np.int64)
        per_part = np.add.reduceat(
            np.concatenate([costs, [0.0]]), bounds[:-1]
        )
        # reduceat quirk: an empty part at index i reduces from
        # boundary i onward; zero it explicitly.
        sizes = np.diff(bounds)
        per_part = np.where(sizes > 0, per_part, 0.0)
        loaded = per_part / self.capacities
        mean = loaded.mean()
        return float(loaded.max() / mean) if mean > 0 else 1.0

    def check(
        self, matrix: CSRMatrix, part: PartitionVector
    ) -> RebalanceResult:
        """One drift check; recuts via ``weighted_cost_partition``.

        ``part`` may cover fewer rows than ``matrix`` (vertices were
        added since the last cut) — growth alone forces a recut since
        the old vector no longer covers the row space.
        """
        n = matrix.shape[0]
        grown = part.total != n
        before = self.imbalance(matrix, part) if not grown else float("inf")
        if not grown and before <= self.threshold:
            return RebalanceResult(
                triggered=False,
                imbalance_before=before,
                imbalance_after=before,
                moved_rows=np.empty(0, dtype=np.int64),
                partition=part,
            )
        new_part = weighted_cost_partition(
            self.row_costs(matrix), self.capacities
        )
        rows = np.arange(n, dtype=np.int64)
        old_owner = np.full(n, -1, dtype=np.int64)
        covered = min(part.total, n)
        if covered:
            old_owner[:covered] = part.owners(rows[:covered])
        moved = rows[old_owner != new_part.owners(rows)]
        after = self.imbalance(matrix, new_part)
        self.rebalances += 1
        self.total_moves += int(moved.size)
        return RebalanceResult(
            triggered=True,
            imbalance_before=before,
            imbalance_after=after,
            moved_rows=moved,
            partition=new_part,
        )
