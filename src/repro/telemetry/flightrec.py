"""Always-on flight recorder: a bounded ring of recent telemetry records.

Production systems keep a black box: a fixed-size buffer of the most
recent events that costs (almost) nothing while everything is healthy
and is dumped the moment something breaks. :class:`FlightRecorder` is
that buffer for the simulator — engine ops, collective comm records,
fault injections, cache-generation bumps, degrades, SLO breaches — all
land in one ``deque(maxlen=capacity)``, so memory is bounded no matter
how long a ``repro dynamic run`` session serves.

A *postmortem bundle* (:meth:`FlightRecorder.dump`) freezes the ring
plus the metrics registry and recent spans into one JSON-able dict.
:class:`~repro.resilience.recovery.ElasticTrainer` dumps one when a
recovery fires; :class:`~repro.serve.server.ServingEngine` dumps one
when an SLO breaches. :func:`bundle_events` and :func:`bundle_spans`
rebuild a bundle's sections and span tree, which
:func:`~repro.telemetry.export.chrome_trace` replays into one Perfetto
timeline, so a chaos run that died at 3am is debuggable from its bundle
alone.

The hot path is ``record_op`` — one tuple append per engine op. Records
keep the original :class:`~repro.device.engine.TraceEvent` objects and
only convert to JSON-able dicts at dump time.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Dict, List, Optional, Union

from repro.device.engine import TraceEvent
from repro.errors import ConfigurationError
from repro.telemetry.spans import Span, Tracer

PathLike = Union[str, os.PathLike]

FLIGHT_BUNDLE_FORMAT = "repro-flight-bundle"

#: default ring capacity (records, not bytes); ~a few epochs of ops.
DEFAULT_CAPACITY = 8192

#: newest spans carried into a bundle (the tail is where the fault is).
_MAX_BUNDLE_SPANS = 512


class FlightRecorder:
    """Bounded ring buffer of recent telemetry records + bundle dumps."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        auto_dump_dir: Optional[PathLike] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"flight-recorder capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        #: (kind, section, payload) tuples; payload is a TraceEvent for
        #: kind "op", a dict for everything else.
        self._ring = deque(maxlen=capacity)
        #: bundles dumped so far, in order (also written to
        #: ``auto_dump_dir`` when set).
        self.bundles: List[dict] = []
        self.auto_dump_dir = auto_dump_dir
        self.records_total = 0
        self.dumps_total = 0

    def __len__(self) -> int:
        return len(self._ring)

    # -- recording (hot path) ------------------------------------------------

    def record_op(self, ev: TraceEvent, section: str = "run") -> None:
        """Record one engine op; called by ``Telemetry.on_op``."""
        self._ring.append(("op", section, ev))
        self.records_total += 1

    def record_comm(self, link: str, seconds: float, nbytes: float) -> None:
        self._ring.append(
            ("comm", None,
             {"link": link, "seconds": seconds, "nbytes": nbytes})
        )
        self.records_total += 1

    def record(self, kind: str, time: float = 0.0, **payload) -> None:
        """Record a generic annotation (fault, cache_gen, degrade, ...)."""
        self._ring.append((kind, None, {"time": float(time), **payload}))
        self.records_total += 1

    # -- introspection -------------------------------------------------------

    def records(self) -> List[dict]:
        """The ring as JSON-able dicts, oldest first."""
        out: List[dict] = []
        for kind, section, payload in self._ring:
            if kind == "op":
                ev = payload
                out.append(
                    {
                        "kind": "op",
                        "section": section,
                        "device": ev.device,
                        "stream": ev.stream,
                        "name": ev.name,
                        "category": ev.category,
                        "start": ev.start,
                        "end": ev.end,
                        "stage": ev.stage,
                        "nbytes": ev.nbytes,
                        "correlation": ev.correlation,
                        "flops": ev.flops,
                    }
                )
            else:
                out.append({"kind": kind, **payload})
        return out

    def counts(self) -> Dict[str, int]:
        """Record count per kind currently in the ring."""
        out: Dict[str, int] = {}
        for kind, _section, _payload in self._ring:
            out[kind] = out.get(kind, 0) + 1
        return out

    # -- postmortem bundles --------------------------------------------------

    def dump(
        self,
        trigger: str,
        time: float = 0.0,
        telemetry=None,
        meta: Optional[dict] = None,
        path: Optional[PathLike] = None,
    ) -> dict:
        """Freeze the ring into a postmortem bundle.

        ``telemetry`` (a :class:`~repro.telemetry.Telemetry` hub) adds
        the flattened metrics registry and the newest closed spans. The
        bundle is kept in :attr:`bundles` and written to ``path`` (or a
        ``postmortem-<seq>-<trigger>.json`` under :attr:`auto_dump_dir`
        when configured).
        """
        from repro.telemetry.export import span_to_record

        bundle: dict = {
            "format": FLIGHT_BUNDLE_FORMAT,
            "meta": {
                "trigger": trigger,
                "time": float(time),
                "seq": self.dumps_total,
                **(meta or {}),
            },
            "records": self.records(),
        }
        if telemetry is not None:
            bundle["meta"]["run_id"] = telemetry.run_id
            bundle["metrics"] = telemetry.registry.flatten()
            bundle["spans"] = [
                span_to_record(s)
                for s in telemetry.tracer.spans[-_MAX_BUNDLE_SPANS:]
                if s.closed
            ]
        self.dumps_total += 1
        if path is None and self.auto_dump_dir is not None:
            path = os.path.join(
                os.fspath(self.auto_dump_dir),
                f"postmortem-{bundle['meta']['seq']:03d}-{trigger}.json",
            )
        if path is not None:
            bundle["meta"]["path"] = os.fspath(path)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(bundle, fh, sort_keys=True)
        self.bundles.append(bundle)
        return bundle


def load_bundle(path: PathLike) -> dict:
    """Read a postmortem bundle back, with clear failures."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"flight bundle not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigurationError(
            f"malformed flight bundle {path}: {err}"
        ) from None
    if (
        not isinstance(payload, dict)
        or payload.get("format") != FLIGHT_BUNDLE_FORMAT
    ):
        raise ConfigurationError(
            f"{path} is not a flight bundle (format != "
            f"{FLIGHT_BUNDLE_FORMAT!r})"
        )
    return payload


def bundle_events(bundle: dict) -> Dict[str, List[TraceEvent]]:
    """Rebuild the bundle's op records into per-section trace lists."""
    sections: Dict[str, List[TraceEvent]] = {}
    for record in bundle.get("records", ()):
        if record.get("kind") != "op":
            continue
        sections.setdefault(record.get("section") or "run", []).append(
            TraceEvent(
                device=record["device"],
                stream=record["stream"],
                name=record["name"],
                category=record["category"],
                start=record["start"],
                end=record["end"],
                stage=record.get("stage"),
                nbytes=record.get("nbytes", 0),
                correlation=record.get("correlation"),
                flops=record.get("flops", 0.0),
            )
        )
    return sections


def bundle_spans(bundle: dict) -> Tracer:
    """Rebuild the bundle's span records into a (detached) tracer."""
    tracer = Tracer()
    for record in bundle.get("spans", ()):
        tracer.spans.append(
            Span(
                name=record["name"],
                start=record["start"],
                end=record["end"],
                span_id=record["span_id"],
                parent_id=record.get("parent_id"),
                correlation=record.get("correlation"),
                category=record.get("category", "span"),
                attrs=dict(record.get("attrs") or {}),
            )
        )
    return tracer

