"""Derived instruments computed from a trace + the hardware model.

These are the paper-facing numbers (§4.1–4.3): per-device compute busy
time and exposed communication (the overlap of Figs. 6/8), comm/comp
overlap efficiency, straggler skew, per-rank FLOPs and bytes moved, and
achieved-vs-roofline fractions against the cost model's own peaks.

:func:`device_utilization` is the one per-device span analysis: one
columnar pass over a trace, with the interval math in the vectorised
:mod:`repro.utils.intervals`, cheap enough that :func:`sample_epoch`
runs it every epoch inside the instrumentation-overhead budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.utils.intervals import intersection_measure, union_measure


@dataclass(frozen=True)
class DeviceUtilization:
    """One device's busy time over a trace (seconds, bytes, FLOPs)."""

    #: union of the device's non-comm (compute) spans.
    busy: float
    #: union of the device's comm spans.
    comm: float
    #: comm time not hidden behind compute — what overlap (§4.3) shrinks.
    exposed: float
    #: bytes moved by the device's ops.
    bytes: float
    #: floating-point operations of the device's ops.
    flops: float


def device_utilization(trace: Sequence) -> Dict[str, DeviceUtilization]:
    """Per-device busy, comm, exposed comm, bytes and FLOPs of ``trace``.

    Keys are device names in sorted order; an empty trace gives ``{}``.
    """
    if not trace:
        return {}
    n = len(trace)
    index: Dict[str, int] = {}
    device = np.fromiter(
        (index.setdefault(ev.device, len(index)) for ev in trace), np.intp, n
    )
    start = np.fromiter((ev.start for ev in trace), np.float64, n)
    end = np.fromiter((ev.end for ev in trace), np.float64, n)
    is_comm = np.fromiter((ev.category == "comm" for ev in trace), bool, n)
    # bincount adds in trace order, like a running per-device sum.
    nbytes = np.bincount(
        device,
        weights=np.fromiter((ev.nbytes for ev in trace), np.float64, n),
        minlength=len(index),
    )
    flops = np.bincount(
        device,
        weights=np.fromiter((ev.flops for ev in trace), np.float64, n),
        minlength=len(index),
    )
    # a stable sort keeps each device's events in trace order.
    order = np.argsort(device, kind="stable")
    bounds = np.searchsorted(device[order], np.arange(len(index) + 1))
    out: Dict[str, DeviceUtilization] = {}
    for name in sorted(index):
        i = index[name]
        rows = order[bounds[i]:bounds[i + 1]]
        comm_rows = rows[is_comm[rows]]
        comp_rows = rows[~is_comm[rows]]
        comp_s, comp_e = start[comp_rows], end[comp_rows]
        comm_s, comm_e = start[comm_rows], end[comm_rows]
        comm = union_measure(comm_s, comm_e)
        out[name] = DeviceUtilization(
            busy=union_measure(comp_s, comp_e),
            comm=comm,
            exposed=comm - intersection_measure(comm_s, comm_e, comp_s, comp_e),
            bytes=float(nbytes[i]),
            flops=float(flops[i]),
        )
    return out


def sample_epoch(
    telemetry,
    trace: Sequence,
    *,
    machine=None,
    cost_model=None,
    epoch_time: float = 0.0,
    epoch: Optional[int] = None,
) -> Dict[str, float]:
    """Publish per-epoch derived gauges; returns the headline values.

    ``machine``/``cost_model`` are optional — without them the roofline
    fractions are skipped but overlap/skew/volume gauges still publish.
    """
    summary: Dict[str, float] = {}
    util = device_utilization(trace)
    if not util:
        return summary

    comm_busy_total = 0.0
    exposed_total = 0.0
    for device, u in util.items():
        comm_busy_total += u.comm
        exposed_total += u.exposed

        telemetry.set_gauge("repro_device_compute_busy_seconds", u.busy, device=device)
        telemetry.set_gauge("repro_device_comm_busy_seconds", u.comm, device=device)
        telemetry.set_gauge("repro_device_exposed_comm_seconds", u.exposed, device=device)
        telemetry.set_gauge("repro_device_bytes_moved", u.bytes, device=device)
        telemetry.set_gauge("repro_device_flops", u.flops, device=device)

        if epoch_time > 0 and cost_model is not None and u.flops:
            achieved = u.flops / epoch_time
            peak = cost_model.gpu.peak_flops * cost_model.costs.gemm_flop_efficiency
            telemetry.set_gauge(
                "repro_roofline_flops_fraction", achieved / peak, device=device
            )
        if machine is not None and u.comm > 0 and u.bytes:
            rank = _rank_of(device)
            if rank is not None and rank < machine.num_gpus:
                achieved_bw = u.bytes / u.comm
                telemetry.set_gauge(
                    "repro_roofline_bandwidth_fraction",
                    achieved_bw / machine.injection_bandwidth(rank),
                    device=device,
                )

    # Overlap efficiency: the fraction of communication hidden under
    # compute, across all ranks (1.0 when there was nothing to hide).
    overlap = 1.0 - exposed_total / comm_busy_total if comm_busy_total > 0 else 1.0
    telemetry.set_gauge("repro_overlap_efficiency", overlap)
    summary["overlap_efficiency"] = overlap

    # Straggler skew: slowest rank's compute busy over the mean (1.0 is
    # perfectly balanced); the paper's load-balance lens on partitioning.
    busies = [u.busy for u in util.values()]
    mean_busy = sum(busies) / len(busies)
    skew = max(busies) / mean_busy if mean_busy > 0 else 1.0
    telemetry.set_gauge("repro_straggler_skew", skew)
    summary["straggler_skew"] = skew

    if epoch is not None:
        telemetry.set_gauge("repro_last_sampled_epoch", float(epoch))
    return summary


def _rank_of(device: str) -> Optional[int]:
    """Rank encoded in a device name like ``gpu3`` (None if unparseable)."""
    digits = "".join(ch for ch in device if ch.isdigit())
    return int(digits) if digits else None
