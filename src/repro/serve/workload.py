"""Seeded inference-request generators (arrival processes + targets).

A serving benchmark needs a *closed-form* workload: the same seed must
produce the same request stream so latency distributions are exactly
reproducible across runs and across cold/warm cache comparisons. Two
arrival processes cover the regimes GNN serving papers evaluate:

* :func:`poisson_workload` — memoryless arrivals at a target rate, the
  steady-traffic baseline;
* :func:`bursty_workload` — Poisson-arriving *bursts* of back-to-back
  requests, the flash-crowd pattern that stresses the micro-batcher's
  admission queue.

Query targets are drawn with
:func:`repro.datasets.loader.sample_query_vertices`: uniform, or
Zipf-skewed toward high-degree vertices (hot products, hub accounts) —
the access pattern the cache's degree-aware pinning exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.datasets.loader import Dataset, sample_query_vertices
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator, split_generator


@dataclass(frozen=True)
class InferenceRequest:
    """One classification query: score these vertices under the live model."""

    request_id: int
    #: target vertex ids (>= 1; a request may score several vertices).
    vertices: Tuple[int, ...]
    #: simulated arrival time, seconds.
    arrival: float

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ConfigurationError(
                f"request {self.request_id}: empty vertex list"
            )
        if self.arrival < 0:
            raise ConfigurationError(
                f"request {self.request_id}: negative arrival {self.arrival}"
            )
        object.__setattr__(
            self, "vertices", tuple(int(v) for v in self.vertices)
        )

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)


def _build_requests(
    dataset: Dataset,
    arrivals: np.ndarray,
    vertices_per_request: int,
    skew: float,
    target_rng: np.random.Generator,
    first_id: int,
) -> List[InferenceRequest]:
    n = arrivals.size
    targets = sample_query_vertices(
        dataset, n * vertices_per_request, skew=skew, seed=target_rng
    ).reshape(n, vertices_per_request)
    return [
        InferenceRequest(
            request_id=first_id + i,
            vertices=tuple(int(v) for v in targets[i]),
            arrival=float(arrivals[i]),
        )
        for i in range(n)
    ]


def poisson_workload(
    dataset: Dataset,
    num_requests: int,
    rate: float,
    skew: float = 0.0,
    vertices_per_request: int = 1,
    start: float = 0.0,
    seed: SeedLike = None,
) -> List[InferenceRequest]:
    """``num_requests`` requests with exponential inter-arrival gaps.

    ``rate`` is the mean arrival rate in requests per simulated second.
    Returned sorted by arrival time, ids dense from 0.
    """
    if num_requests < 0:
        raise ConfigurationError(f"num_requests must be >= 0, got {num_requests}")
    if rate <= 0:
        raise ConfigurationError(f"arrival rate must be positive, got {rate}")
    if vertices_per_request < 1:
        raise ConfigurationError(
            f"vertices_per_request must be >= 1, got {vertices_per_request}"
        )
    if start < 0:
        raise ConfigurationError(f"start must be >= 0, got {start}")
    rng = as_generator(seed)
    arrival_rng, target_rng = split_generator(rng, 2)
    gaps = arrival_rng.exponential(1.0 / rate, size=num_requests)
    arrivals = start + np.cumsum(gaps)
    return _build_requests(
        dataset, arrivals, vertices_per_request, skew, target_rng, first_id=0
    )


def bursty_workload(
    dataset: Dataset,
    num_bursts: int,
    burst_size: int,
    burst_rate: float,
    intra_burst_gap: float = 1e-5,
    skew: float = 0.0,
    vertices_per_request: int = 1,
    start: float = 0.0,
    seed: SeedLike = None,
) -> List[InferenceRequest]:
    """Poisson-arriving bursts of ``burst_size`` back-to-back requests.

    Burst *starts* arrive at ``burst_rate`` per second; requests inside
    a burst are ``intra_burst_gap`` seconds apart — effectively
    simultaneous relative to a batch's service time, which is the
    point: the rest of a burst queues while its first request executes,
    so it coalesces into one (or few) micro-batches.
    """
    if num_bursts < 0:
        raise ConfigurationError(f"num_bursts must be >= 0, got {num_bursts}")
    if burst_size < 1:
        raise ConfigurationError(f"burst_size must be >= 1, got {burst_size}")
    if burst_rate <= 0:
        raise ConfigurationError(f"burst rate must be positive, got {burst_rate}")
    if intra_burst_gap < 0:
        raise ConfigurationError(
            f"intra_burst_gap must be >= 0, got {intra_burst_gap}"
        )
    if vertices_per_request < 1:
        raise ConfigurationError(
            f"vertices_per_request must be >= 1, got {vertices_per_request}"
        )
    if start < 0:
        raise ConfigurationError(f"start must be >= 0, got {start}")
    rng = as_generator(seed)
    arrival_rng, target_rng = split_generator(rng, 2)
    burst_gaps = arrival_rng.exponential(1.0 / burst_rate, size=num_bursts)
    burst_starts = start + np.cumsum(burst_gaps)
    offsets = np.arange(burst_size) * intra_burst_gap
    arrivals = (burst_starts[:, None] + offsets[None, :]).reshape(-1)
    # bursts can interleave when a gap is shorter than a burst's span;
    # requests must still be emitted in arrival order for the batcher.
    arrivals = np.sort(arrivals, kind="stable")
    return _build_requests(
        dataset, arrivals, vertices_per_request, skew, target_rng, first_id=0
    )
