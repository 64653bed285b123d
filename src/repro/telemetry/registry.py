"""The process-wide metrics vocabulary: counters, gauges, histograms.

One :class:`MetricsRegistry` is the single pipeline every subsystem
reports through — training, plan replay, resilience, and serving all
register instruments here, so an operator (or the regression gate) sees
one coherent namespace instead of per-module private state.

Instruments follow the Prometheus data model:

* a **counter** only goes up (op counts, bytes moved, retries);
* a **gauge** is a point-in-time sample (loss, overlap efficiency);
* a **histogram** keeps the *exact* observations and answers
  nearest-rank quantiles — the ``ceil(q/100 * n)``-th order statistic,
  the SLO-dashboard convention (a p99 is an observed value, never an
  interpolated blend). The serving layer's percentile math lives here
  now; :func:`repro.serve.metrics.latency_percentile` delegates.

Instruments may carry labels (``registry.counter("ops_total",
category="spmm")``); each distinct label set is its own series under a
shared family name, as in Prometheus.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: quantiles exported by default for every histogram (snapshot keys and
#: Prometheus ``quantile=`` labels).
DEFAULT_QUANTILES: Tuple[float, ...] = (50.0, 95.0, 99.0)

#: observations a histogram keeps exactly before degrading to a bounded
#: reservoir. Far above anything tier-1 runs observe, so committed BENCH
#: numbers stay bit-identical; long `repro dynamic run` sessions stop
#: growing without bound.
DEFAULT_MAX_EXACT = 65536

#: reservoir size after degradation (Algorithm R, seeded — deterministic).
RESERVOIR_SIZE = 4096

LabelKey = Tuple[Tuple[str, str], ...]


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of *sorted* values."""
    if not len(ordered):
        raise ConfigurationError("percentile of an empty value set")
    if not (0.0 < q <= 100.0):
        raise ConfigurationError(f"percentile must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter increments must be >= 0, got {amount}"
            )
        self.value += amount


class Gauge:
    """A point-in-time sample; set freely, up or down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Exact observations with nearest-rank quantiles — bounded.

    Keeps every observed value while the count stays at or below
    ``max_exact`` (the simulator's tier-1 runs never leave this regime,
    and exactness is what makes the regression gate trustworthy). Past
    the threshold the value list degrades once to a fixed-size uniform
    reservoir (Vitter's Algorithm R with a fixed seed, so runs stay
    deterministic): quantiles become sampled estimates, while ``count``,
    ``sum``, ``mean`` and ``max`` remain exact forever.

    The sorted view is kept between reads and merged on read: an
    appended observation does not invalidate it, and the next
    :meth:`percentile` sorts only the values observed since the last
    read into it (one Timsort pass over two runs, linear in the view).
    Order and ties match a full ``sorted`` of :meth:`values` exactly.
    A reservoir replacement or the degrade itself rewrites values in
    place, so either drops the view and the next read sorts afresh.
    """

    __slots__ = ("_values", "_sorted", "sum", "_count", "_max",
                 "max_exact", "reservoir_size", "_rng")

    def __init__(
        self,
        max_exact: int = DEFAULT_MAX_EXACT,
        reservoir_size: int = RESERVOIR_SIZE,
    ) -> None:
        if reservoir_size < 1:
            raise ConfigurationError(
                f"reservoir_size must be >= 1, got {reservoir_size}"
            )
        if max_exact < reservoir_size:
            raise ConfigurationError(
                f"max_exact ({max_exact}) must be >= reservoir_size "
                f"({reservoir_size})"
            )
        self._values: List[float] = []
        self._sorted: Optional[List[float]] = None
        self.sum = 0.0
        self._count = 0
        self._max = float("-inf")
        self.max_exact = max_exact
        self.reservoir_size = reservoir_size
        self._rng: Optional[random.Random] = None

    @property
    def exact(self) -> bool:
        """True while every observation is still held individually."""
        return self._rng is None

    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self.sum += value
        if value > self._max:
            self._max = value
        if self._rng is None:
            self._values.append(value)
            if self._count > self.max_exact:
                self._degrade()
            return
        # Algorithm R: keep each of the n observations with prob k/n.
        j = self._rng.randrange(self._count)
        if j < self.reservoir_size:
            self._values[j] = value
            self._sorted = None

    def _degrade(self) -> None:
        rng = random.Random(0x5EED)
        self._values = rng.sample(self._values, self.reservoir_size)
        self._sorted = None
        self._rng = rng

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self.sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def values(self) -> List[float]:
        return list(self._values)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of everything observed (or sampled)."""
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self._values)
        elif len(ordered) < len(self._values):
            # only appends happened since the last read: the view holds
            # the first len(view) values sorted, so merge the rest in.
            ordered += self._values[len(ordered):]
            ordered.sort()
        return nearest_rank(ordered, q)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """All series sharing one metric name (and kind, and help text)."""

    __slots__ = ("name", "kind", "help", "series")

    def __init__(self, name: str, kind: str, help: str) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.series: Dict[LabelKey, object] = {}

    def get(self, labels: LabelKey):
        instrument = self.series.get(labels)
        if instrument is None:
            instrument = self.series[labels] = _KINDS[self.kind]()
        return instrument


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_labels(labels: LabelKey) -> str:
    """Prometheus-style ``{k="v",...}`` rendering ('' when unlabeled)."""
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + body + "}"


class MetricsRegistry:
    """Registry of metric families; the unified telemetry namespace."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -- instrument access ---------------------------------------------------

    def _family(self, name: str, kind: str, help: str) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(name, kind, help)
        elif family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as a {family.kind}, "
                f"requested as a {kind}"
            )
        else:
            if help and not family.help:
                family.help = help
        return family

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._family(name, "counter", help).get(_label_key(labels))

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._family(name, "gauge", help).get(_label_key(labels))

    def histogram(self, name: str, help: str = "", **labels: str) -> Histogram:
        return self._family(name, "histogram", help).get(_label_key(labels))

    # -- introspection -------------------------------------------------------

    def families(self) -> Iterator[_Family]:
        for name in sorted(self._families):
            yield self._families[name]

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def clear(self) -> None:
        self._families.clear()

    def flatten(
        self, quantiles: Sequence[float] = DEFAULT_QUANTILES
    ) -> Dict[str, float]:
        """Flat ``name{labels}`` -> value map of every series.

        Histograms expand into ``_count``/``_sum``/``_max`` plus one
        ``_p<q>`` entry per requested quantile — the shape the
        regression gate diffs.
        """
        out: Dict[str, float] = {}
        for family in self.families():
            for labels in sorted(family.series):
                instrument = family.series[labels]
                suffix = format_labels(labels)
                if family.kind == "histogram":
                    out[f"{family.name}_count{suffix}"] = float(instrument.count)
                    out[f"{family.name}_sum{suffix}"] = instrument.sum
                    if instrument.count:
                        out[f"{family.name}_max{suffix}"] = instrument.max
                        for q in quantiles:
                            key = f"{family.name}_p{q:g}{suffix}"
                            out[key] = instrument.percentile(q)
                else:
                    out[f"{family.name}{suffix}"] = instrument.value
        return out
