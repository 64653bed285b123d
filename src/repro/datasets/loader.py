"""Dataset containers and the unified loading entry point.

Two container flavours, one per execution mode:

* :class:`Dataset` — a fully materialised graph (adjacency + features +
  labels + splits) for functional runs;
* :class:`SymbolicDataset` — statistics only, for symbolic runs of the
  paper-scale graphs (Papers/Proteins/full Reddit).

``load_dataset(name, scale=...)`` is the main entry: it fetches the
Table-1 spec, optionally down-scales it, and synthesises a matched
functional instance (or returns the symbolic descriptor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import DatasetError
from repro.datasets.planted import planted_partition_dataset
from repro.datasets.specs import DatasetSpec, get_spec
from repro.datasets.synthetic import synthesize_from_spec
from repro.sparse.coo import COOMatrix
from repro.utils.rng import SeedLike, as_generator


@dataclass
class Dataset:
    """A functional (fully materialised) node-classification dataset."""

    name: str
    adjacency: COOMatrix
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        n = self.adjacency.shape[0]
        if self.adjacency.shape[0] != self.adjacency.shape[1]:
            raise DatasetError(f"{self.name}: adjacency must be square")
        for arr, label in (
            (self.features, "features"),
            (self.labels, "labels"),
            (self.train_mask, "train_mask"),
            (self.val_mask, "val_mask"),
            (self.test_mask, "test_mask"),
        ):
            if arr.shape[0] != n:
                raise DatasetError(
                    f"{self.name}: {label} has {arr.shape[0]} rows, expected {n}"
                )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise DatasetError(f"{self.name}: labels out of range")
        if not self.train_mask.any():
            raise DatasetError(f"{self.name}: empty training split")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def m(self) -> int:
        return self.adjacency.nnz

    @property
    def d0(self) -> int:
        return int(self.features.shape[1])

    @property
    def avg_degree(self) -> float:
        return self.m / self.n if self.n else 0.0

    @property
    def num_train(self) -> int:
        return int(self.train_mask.sum())

    @property
    def is_symbolic(self) -> bool:
        return False


@dataclass(frozen=True)
class SymbolicDataset:
    """Statistics-only dataset for symbolic (metadata) runs."""

    name: str
    n: int
    m: int
    d0: int
    num_classes: int
    train_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.n <= 0 or self.m < 0 or self.d0 <= 0 or self.num_classes <= 0:
            raise DatasetError(f"{self.name}: invalid symbolic statistics")

    @property
    def avg_degree(self) -> float:
        return self.m / self.n

    @property
    def num_train(self) -> int:
        return max(int(self.n * self.train_fraction), 1)

    @property
    def is_symbolic(self) -> bool:
        return True

    @classmethod
    def from_spec(cls, spec: DatasetSpec) -> "SymbolicDataset":
        return cls(
            name=spec.name,
            n=spec.n,
            m=spec.m,
            d0=spec.d0,
            num_classes=spec.num_classes,
            train_fraction=spec.train_fraction,
        )


AnyDataset = Union[Dataset, SymbolicDataset]


def load_dataset(
    name: str,
    scale: float = 1.0,
    symbolic: bool = False,
    learnable: bool = False,
    seed: SeedLike = None,
) -> AnyDataset:
    """Load a Table-1 dataset (synthetic stand-in) by name.

    Parameters
    ----------
    name:
        Table-1 dataset name (``cora``, ``arxiv``, ``papers``,
        ``products``, ``proteins``, ``reddit``).
    scale:
        Multiplier on ``n`` and ``m`` for functional runs; ``1.0`` keeps
        the paper's size (only feasible for the small graphs).
    symbolic:
        Return a :class:`SymbolicDataset` (statistics only, full size —
        ``scale`` still applies if not 1).
    learnable:
        Use the planted-partition generator (features/labels carry
        signal) instead of the degree-matched random-label generator.
        Used by accuracy/convergence experiments.
    """
    spec = get_spec(name)
    if scale != 1.0:
        spec = spec.scaled(scale)
    if symbolic:
        return SymbolicDataset.from_spec(spec)
    if learnable:
        adj, x, y, train, val, test = planted_partition_dataset(
            n=spec.n,
            num_classes=spec.num_classes,
            feature_dim=spec.d0,
            avg_degree=max(spec.avg_degree, 2.0),
            train_fraction=spec.train_fraction,
            seed=seed,
        )
    else:
        adj, x, y, train, val, test = synthesize_from_spec(spec, seed=seed)
    return Dataset(
        name=spec.name,
        adjacency=adj,
        features=x,
        labels=y,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        num_classes=spec.num_classes,
    )


class QuerySampler:
    """Draws query-target vertex ids for one dataset and skew.

    The distribution is that of :func:`sample_query_vertices`. The
    Zipf-over-degree-rank table (vertices in degree order, rank
    probabilities) is built once here, and :meth:`sample` only draws,
    so a stream that samples once per batch (mutation streams) does not
    re-rank the degrees for every batch.
    """

    def __init__(self, dataset: Dataset, skew: float = 0.0) -> None:
        if dataset.is_symbolic:
            raise DatasetError(
                "sample_query_vertices needs a functional dataset"
            )
        if skew < 0:
            raise DatasetError(f"skew must be >= 0, got {skew}")
        self.name = dataset.name
        self.num_vertices = dataset.n
        self._by_degree: Optional[np.ndarray] = None
        self._probabilities: Optional[np.ndarray] = None
        if skew > 0.0:
            n = self.num_vertices
            adj = dataset.adjacency
            degree = np.bincount(adj.rows, minlength=n) + np.bincount(
                adj.cols, minlength=n
            )
            self._by_degree = np.argsort(-degree, kind="stable")
            weights = (np.arange(n, dtype=np.float64) + 1.0) ** -skew
            self._probabilities = weights / weights.sum()

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` vertex ids (int64, with replacement) drawn from ``rng``."""
        if n < 0:
            raise DatasetError(f"cannot sample {n} query vertices")
        if self.num_vertices == 0:
            raise DatasetError(f"{self.name}: empty vertex set")
        if self._probabilities is None:
            return rng.integers(0, self.num_vertices, size=n, dtype=np.int64)
        ranks = rng.choice(self.num_vertices, size=n, p=self._probabilities)
        return self._by_degree[ranks].astype(np.int64)


def sample_query_vertices(
    dataset: Dataset,
    n: int,
    skew: float = 0.0,
    seed: SeedLike = None,
) -> np.ndarray:
    """Sample ``n`` query-target vertex ids (with replacement).

    ``skew == 0`` draws uniformly over the vertex set. ``skew > 0``
    draws Zipf-over-degree-rank: vertices are ranked by total degree
    (descending, ties broken by vertex id for determinism) and rank
    ``r`` is drawn with probability proportional to ``(r + 1)**-skew``
    — the hot-vertex access pattern real recommendation/fraud query
    streams exhibit, and the regime degree-aware cache pinning targets.

    Shared by the serving workload generators
    (:mod:`repro.serve.workload`) and the serving tests; callers that
    draw many times from one dataset keep a :class:`QuerySampler`.
    """
    return QuerySampler(dataset, skew).sample(n, as_generator(seed))
