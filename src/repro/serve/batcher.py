"""Admission queue with work-conserving micro-batching.

The serving engine answers queries with a *partial* multi-stage SpMM
pass; one pass over ``B`` coalesced requests shares the frontier
gather, the ``HW`` GeMM and the kernel-launch overheads across all of
them.

Dispatch rule (deterministic, simulated-clock driven): a batch leaves
the queue at

``max(server_free, first_arrival)``

and takes every request that has arrived by then, up to
``max_batch_size``. An idle engine never holds a request back, so a
lone request pays no queueing delay; while the engine is busy, arrivals
pile up and drain as larger batches, which is how the system degrades
gracefully under overload instead of falling behind per-request. This
is the rule of Triton's dynamic batcher at its default queue delay of
0, and the idea behind Orca's iteration-level scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.serve.workload import InferenceRequest


@dataclass(frozen=True)
class MicroBatch:
    """One admitted batch, ready for a single partial-SpMM pass."""

    batch_id: int
    requests: Tuple[InferenceRequest, ...]
    #: simulated time the batch starts executing.
    dispatch_time: float
    #: arrived-but-unserved requests at dispatch (this batch included) —
    #: the queue-depth sample the SLO metrics aggregate.
    queue_depth: int

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def vertices(self) -> Tuple[int, ...]:
        """Concatenated target vertices of every request (with repeats)."""
        return tuple(v for r in self.requests for v in r.vertices)


class MicroBatcher:
    """Deterministic micro-batch former over a fixed request stream.

    The server drives it as a pull loop::

        while (batch := batcher.next_batch(server_free)) is not None:
            server_free = execute(batch)

    ``server_free`` feeds back the engine's completion time, so batch
    sizes respond to service latency: requests that arrive while a
    batch executes ride the next one.
    """

    def __init__(
        self,
        requests: Sequence[InferenceRequest],
        max_batch_size: int,
    ):
        if max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        self.max_batch_size = int(max_batch_size)
        self._requests: List[InferenceRequest] = sorted(
            requests, key=lambda r: (r.arrival, r.request_id)
        )
        self._cursor = 0
        self._next_batch_id = 0

    @property
    def pending(self) -> int:
        """Requests not yet handed out."""
        return len(self._requests) - self._cursor

    def next_batch(self, server_free: float) -> Optional[MicroBatch]:
        """Form the next batch given the engine frees up at ``server_free``."""
        if self._cursor >= len(self._requests):
            return None
        requests = self._requests
        i = self._cursor
        dispatch = max(server_free, requests[i].arrival)
        # everything that has arrived by the dispatch instant is queued;
        # the batch takes the oldest max_batch_size of them.
        arrived_end = i
        while (
            arrived_end < len(requests)
            and requests[arrived_end].arrival <= dispatch
        ):
            arrived_end += 1
        take = min(arrived_end - i, self.max_batch_size)
        batch = MicroBatch(
            batch_id=self._next_batch_id,
            requests=tuple(requests[i : i + take]),
            dispatch_time=dispatch,
            queue_depth=arrived_end - i,
        )
        self._cursor = i + take
        self._next_batch_id += 1
        return batch
