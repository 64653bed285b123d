"""Seeded graph-mutation streams (arrival processes + targets).

The write-side twin of :mod:`repro.serve.workload`: the same seed must
produce the same mutation stream so incremental-rebuild parity and
delta-invalidation measurements are exactly reproducible. Two arrival
processes mirror the read side:

* :func:`poisson_mutations` — memoryless batch arrivals at a target
  rate, the steady-churn baseline (follower graphs, rating streams);
* :func:`bursty_mutations` — Poisson-arriving *flurries* of batches,
  the breaking-news / flash-crowd write pattern.

Edge targets are drawn like
:func:`repro.datasets.loader.sample_query_vertices` (one
:class:`~repro.datasets.loader.QuerySampler` per stream): uniform, or
Zipf-skewed toward high-degree vertices — churn concentrates on hubs in
real graphs, which is exactly the regime where delta cache invalidation
must beat a full flush to be worth having.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.config import FLOAT_DTYPE, OFFSET_DTYPE
from repro.datasets.loader import Dataset, QuerySampler
from repro.errors import MutationError
from repro.utils.rng import SeedLike, as_generator, split_generator


def _empty_edges() -> np.ndarray:
    return np.empty((0, 2), dtype=OFFSET_DTYPE)


def _empty_ids() -> np.ndarray:
    return np.empty(0, dtype=OFFSET_DTYPE)


@dataclass(frozen=True)
class MutationBatch:
    """One atomic group of graph writes, applied at a generation boundary.

    Edge arrays are ``(k, 2)`` ``[u, v]`` pairs (directed entries — an
    undirected stream carries both orientations explicitly). Within one
    commit window the *last* operation on an edge key wins; removing a
    vertex wins over every edge op on it in the same window.
    """

    batch_id: int
    #: simulated arrival time, seconds.
    arrival: float
    insert_edges: np.ndarray = field(default_factory=_empty_edges)
    #: weights of the inserted edges (defaults to 1.0 each).
    insert_vals: Optional[np.ndarray] = None
    delete_edges: np.ndarray = field(default_factory=_empty_edges)
    #: vertices appended to the graph (features required, one row each).
    add_features: Optional[np.ndarray] = None
    add_labels: Optional[np.ndarray] = None
    remove_vertices: np.ndarray = field(default_factory=_empty_ids)

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise MutationError(
                f"batch {self.batch_id}: negative arrival {self.arrival}"
            )
        for name in ("insert_edges", "delete_edges"):
            arr = np.asarray(getattr(self, name), dtype=OFFSET_DTYPE)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise MutationError(
                    f"batch {self.batch_id}: {name} must be (k, 2), "
                    f"got {arr.shape}"
                )
            object.__setattr__(self, name, arr)
        vals = self.insert_vals
        if vals is None:
            vals = np.ones(self.insert_edges.shape[0], dtype=FLOAT_DTYPE)
        else:
            vals = np.asarray(vals, dtype=FLOAT_DTYPE).ravel()
        if vals.shape[0] != self.insert_edges.shape[0]:
            raise MutationError(
                f"batch {self.batch_id}: {vals.shape[0]} insert values for "
                f"{self.insert_edges.shape[0]} inserted edges"
            )
        object.__setattr__(self, "insert_vals", vals)
        object.__setattr__(
            self,
            "remove_vertices",
            np.asarray(self.remove_vertices, dtype=OFFSET_DTYPE).ravel(),
        )
        feats = self.add_features
        if feats is not None:
            feats = np.asarray(feats, dtype=FLOAT_DTYPE)
            if feats.ndim != 2:
                raise MutationError(
                    f"batch {self.batch_id}: add_features must be 2-D"
                )
            object.__setattr__(self, "add_features", feats)
        labels = self.add_labels
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64).ravel()
            if feats is None or labels.shape[0] != feats.shape[0]:
                raise MutationError(
                    f"batch {self.batch_id}: add_labels must pair with "
                    f"add_features rows"
                )
            object.__setattr__(self, "add_labels", labels)

    @property
    def num_added_vertices(self) -> int:
        return 0 if self.add_features is None else self.add_features.shape[0]

    @property
    def num_ops(self) -> int:
        return (
            self.insert_edges.shape[0]
            + self.delete_edges.shape[0]
            + self.num_added_vertices
            + self.remove_vertices.shape[0]
        )


@dataclass(frozen=True)
class MutationStream:
    """An ordered, seeded sequence of mutation batches."""

    batches: Tuple[MutationBatch, ...]

    def __post_init__(self) -> None:
        arrivals = [b.arrival for b in self.batches]
        if any(a > b for a, b in zip(arrivals, arrivals[1:])):
            raise MutationError("mutation batches must be arrival-sorted")

    def __len__(self) -> int:
        return len(self.batches)

    def __iter__(self) -> Iterator[MutationBatch]:
        return iter(self.batches)

    @property
    def edges_inserted(self) -> int:
        return sum(b.insert_edges.shape[0] for b in self.batches)

    @property
    def edges_deleted(self) -> int:
        return sum(b.delete_edges.shape[0] for b in self.batches)


def _sample_edges(
    dataset: Dataset,
    count: int,
    hot_sampler: QuerySampler,
    rng: np.random.Generator,
) -> np.ndarray:
    """``(count, 2)`` distinct-endpoint edges, one Zipf-hot endpoint."""
    n = dataset.n
    if n < 2:
        raise MutationError(f"{dataset.name}: need >= 2 vertices for edges")
    hot = hot_sampler.sample(count, rng)
    other = rng.integers(0, n, size=count, dtype=np.int64)
    # reject self-loops: shift the uniform endpoint off the hot one.
    clash = other == hot
    other[clash] = (other[clash] + 1) % n
    return np.stack([hot, other], axis=1).astype(OFFSET_DTYPE)


def _delete_probabilities(dataset: Dataset, skew: float) -> Optional[np.ndarray]:
    """Pick probability of each stored entry for deletes; None = uniform.

    ``skew > 0`` weights entries by the degree of their source, so hub
    edges churn hardest (same regime as the query stream).
    """
    adj = dataset.adjacency
    if skew <= 0.0 or adj.rows.size == 0:
        return None
    degree = np.bincount(adj.rows, minlength=dataset.n) + np.bincount(
        adj.cols, minlength=dataset.n
    )
    w = (degree[adj.rows] + 1.0) ** skew
    return w / w.sum()


def _sample_existing_edges(
    dataset: Dataset,
    count: int,
    p: Optional[np.ndarray],
    rng: np.random.Generator,
) -> np.ndarray:
    """Edges drawn from the dataset's *initial* edge set (for deletes).

    ``p`` comes from :func:`_delete_probabilities`. A later batch may
    have deleted the same edge already — the dynamic graph counts those
    as no-op deletes, which is the semantics a real write stream has
    anyway (deletes race).
    """
    adj = dataset.adjacency
    if adj.rows.size == 0:
        return _empty_edges()
    if p is not None:
        picks = rng.choice(adj.rows.size, size=count, p=p)
    else:
        picks = rng.integers(0, adj.rows.size, size=count, dtype=np.int64)
    return np.stack([adj.rows[picks], adj.cols[picks]], axis=1).astype(
        OFFSET_DTYPE
    )


def _symmetrize(edges: np.ndarray) -> np.ndarray:
    if edges.shape[0] == 0:
        return edges
    return np.concatenate([edges, edges[:, ::-1]], axis=0)


def _build_batches(
    dataset: Dataset,
    arrivals: np.ndarray,
    edges_per_batch: int,
    insert_fraction: float,
    skew: float,
    symmetric: bool,
    rng: np.random.Generator,
) -> MutationStream:
    # both sampling tables come from the initial graph, so they are
    # built once per stream rather than once per batch.
    hot_sampler = QuerySampler(dataset, skew)
    delete_p = _delete_probabilities(dataset, skew)
    batches: List[MutationBatch] = []
    for i, arrival in enumerate(np.sort(arrivals, kind="stable")):
        num_ins = int(round(edges_per_batch * insert_fraction))
        num_del = edges_per_batch - num_ins
        ins = _sample_edges(dataset, num_ins, hot_sampler, rng)
        dels = _sample_existing_edges(dataset, num_del, delete_p, rng)
        if symmetric:
            ins, dels = _symmetrize(ins), _symmetrize(dels)
        batches.append(
            MutationBatch(
                batch_id=i,
                arrival=float(arrival),
                insert_edges=ins,
                delete_edges=dels,
            )
        )
    return MutationStream(tuple(batches))


def _check_common(edges_per_batch: int, insert_fraction: float) -> None:
    if edges_per_batch < 1:
        raise MutationError(
            f"edges_per_batch must be >= 1, got {edges_per_batch}"
        )
    if not 0.0 <= insert_fraction <= 1.0:
        raise MutationError(
            f"insert_fraction must be in [0, 1], got {insert_fraction}"
        )


def poisson_mutations(
    dataset: Dataset,
    num_batches: int,
    rate: float,
    edges_per_batch: int = 8,
    insert_fraction: float = 0.7,
    skew: float = 0.0,
    symmetric: bool = True,
    start: float = 0.0,
    seed: SeedLike = None,
) -> MutationStream:
    """``num_batches`` mutation batches with exponential arrival gaps.

    ``rate`` is batches per simulated second. ``symmetric=True`` emits
    both orientations of every edge op (benchmark graphs are
    undirected).
    """
    if num_batches < 0:
        raise MutationError(f"num_batches must be >= 0, got {num_batches}")
    if rate <= 0:
        raise MutationError(f"arrival rate must be positive, got {rate}")
    if start < 0:
        raise MutationError(f"start must be >= 0, got {start}")
    _check_common(edges_per_batch, insert_fraction)
    rng = as_generator(seed)
    arrival_rng, target_rng = split_generator(rng, 2)
    gaps = arrival_rng.exponential(1.0 / rate, size=num_batches)
    arrivals = start + np.cumsum(gaps)
    return _build_batches(
        dataset, arrivals, edges_per_batch, insert_fraction, skew,
        symmetric, target_rng,
    )


def bursty_mutations(
    dataset: Dataset,
    num_bursts: int,
    burst_size: int,
    burst_rate: float,
    intra_burst_gap: float = 1e-4,
    edges_per_batch: int = 8,
    insert_fraction: float = 0.7,
    skew: float = 0.0,
    symmetric: bool = True,
    start: float = 0.0,
    seed: SeedLike = None,
) -> MutationStream:
    """Poisson-arriving bursts of ``burst_size`` back-to-back batches."""
    if num_bursts < 0:
        raise MutationError(f"num_bursts must be >= 0, got {num_bursts}")
    if burst_size < 1:
        raise MutationError(f"burst_size must be >= 1, got {burst_size}")
    if burst_rate <= 0:
        raise MutationError(
            f"burst rate must be positive, got {burst_rate}"
        )
    if intra_burst_gap < 0:
        raise MutationError(
            f"intra_burst_gap must be >= 0, got {intra_burst_gap}"
        )
    if start < 0:
        raise MutationError(f"start must be >= 0, got {start}")
    _check_common(edges_per_batch, insert_fraction)
    rng = as_generator(seed)
    arrival_rng, target_rng = split_generator(rng, 2)
    burst_gaps = arrival_rng.exponential(1.0 / burst_rate, size=num_bursts)
    burst_starts = start + np.cumsum(burst_gaps)
    offsets = np.arange(burst_size) * intra_burst_gap
    arrivals = (burst_starts[:, None] + offsets[None, :]).reshape(-1)
    return _build_batches(
        dataset, arrivals, edges_per_batch, insert_fraction, skew,
        symmetric, target_rng,
    )
