"""Correctness checks of the benchmark's outputs.

Each check returns a list of failure messages (empty = pass), so a run
can count every failure against the number attempted instead of
stopping at the first. ``test_bench.py`` feeds each check a perturbed
input to show it can fail.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

#: tier-1's tolerances for trainer weights against ReferenceGCN.
REFERENCE_RTOL = 5e-3
REFERENCE_ATOL = 5e-5
#: simulated times are rebuilt from an absolute clock each epoch, so the
#: same schedule reads equal up to float rounding of that clock.
SIM_RTOL = 1e-9


def check_weights_match(trainer_weights: Sequence[np.ndarray],
                        reference_weights: Sequence[np.ndarray]) -> List[str]:
    """Trainer weights equal the reference's at tier-1 tolerances."""
    if len(trainer_weights) != len(reference_weights):
        return [f"{len(trainer_weights)} weight arrays vs "
                f"{len(reference_weights)} in the reference"]
    failures = []
    for layer, (a, b) in enumerate(zip(trainer_weights, reference_weights)):
        if a.shape != b.shape:
            failures.append(f"layer {layer}: shape {a.shape} vs {b.shape}")
        elif not np.allclose(a, b, rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL):
            failures.append(f"layer {layer}: max error "
                            f"{float(np.abs(a - b).max()):.3g} vs reference")
    return failures


def check_finite_losses(losses: Sequence[float]) -> List[str]:
    """Every measured training loss is a finite number."""
    bad = [i for i, loss in enumerate(losses)
           if loss is None or not math.isfinite(loss)]
    return [f"epoch {i}: non-finite loss {losses[i]}" for i in bad[:5]]


def check_constant_epochs(epoch_times: Sequence[float]) -> List[str]:
    """The same schedule takes the same simulated time every epoch."""
    if not epoch_times:
        return ["no epochs"]
    lo, hi = min(epoch_times), max(epoch_times)
    if lo <= 0 or hi - lo > SIM_RTOL * hi:
        return [f"simulated epoch time varies: {lo!r} .. {hi!r}"]
    return []


def check_path_tiles_epoch(path_seconds: float, epoch_time: float) -> List[str]:
    """The critical path's steps sum to the epoch's simulated time."""
    if epoch_time <= 0 or abs(path_seconds - epoch_time) > SIM_RTOL * epoch_time:
        return [f"critical path {path_seconds!r} s does not tile the "
                f"{epoch_time!r} s epoch"]
    return []


def check_logits(logits: Dict[int, np.ndarray], request_ids: Sequence[int],
                 num_classes: int) -> List[str]:
    """Every request got finite logits of shape (1, classes)."""
    failures = []
    for rid in request_ids:
        out = logits.get(rid)
        if out is None:
            failures.append(f"request {rid}: no logits")
        elif out.shape != (1, num_classes):
            failures.append(f"request {rid}: logits shape {out.shape}")
        elif not np.isfinite(out).all():
            failures.append(f"request {rid}: non-finite logits")
    return failures


def check_bitwise(served: np.ndarray, cold: np.ndarray) -> List[str]:
    """A long-running engine answers exactly as a freshly built one."""
    if served.shape != cold.shape:
        return [f"logits shape {served.shape} vs cold {cold.shape}"]
    if not np.array_equal(served, cold):
        rows = int((served != cold).any(axis=1).sum())
        return [f"{rows} of {served.shape[0]} rows differ from a cold engine"]
    return []
