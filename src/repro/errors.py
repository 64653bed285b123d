"""Exception hierarchy for the MG-GCN reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the common failure classes (device OOM, invalid
partition, shape mismatches, scheduling bugs).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class DeviceError(ReproError):
    """Base class for virtual-device failures."""


class DeviceOutOfMemoryError(DeviceError):
    """Raised when an allocation would exceed a device's memory capacity.

    Mirrors ``cudaErrorMemoryAllocation``: the paper's Figures 5/10/12 mark
    configurations that run out of memory, and the benchmarks reproduce
    those cells by catching this exception.
    """

    def __init__(self, device: str, requested: int, in_use: int, capacity: int):
        self.device = device
        self.requested = requested
        self.in_use = in_use
        self.capacity = capacity
        super().__init__(
            f"{device}: out of memory: requested {requested} B with "
            f"{in_use} B in use of {capacity} B capacity"
        )


class AllocationError(DeviceError):
    """Raised on invalid allocator usage (double free, foreign handle)."""


class StreamError(DeviceError):
    """Raised on invalid stream/event usage (e.g. waiting on an unrecorded event)."""


class ShapeError(ReproError):
    """Raised when tensor/matrix shapes are incompatible for an operation."""


class DTypeError(ReproError):
    """Raised when tensor dtypes are incompatible for an operation."""


class ModeError(ReproError):
    """Raised when mixing FUNCTIONAL and SYMBOLIC tensors in one kernel."""


class PartitionError(ReproError):
    """Raised for malformed partition vectors or inconsistent tilings."""


class CommunicationError(ReproError):
    """Raised for invalid collective arguments (rank mismatch, buffer sizes)."""


class CollectiveMismatchError(CommunicationError):
    """Raised when the ranks of a collective disagree on op or shape.

    On real NCCL such a rendezvous mismatch silently corrupts data or
    deadlocks; the simulation turns it into an immediate, diagnosable
    error listing each rank's view of the call.
    """


class CollectiveTimeoutError(CommunicationError):
    """Raised when a collective exhausts its retry budget.

    Mirrors NCCL's watchdog timeout: the op was issued, some
    participant never arrived (transient link/collective fault), and
    every retry attempt failed.
    """

    def __init__(self, op: str, attempts: int, elapsed: float):
        self.op = op
        self.attempts = attempts
        self.elapsed = elapsed
        super().__init__(
            f"collective {op!r} timed out after {attempts} attempt(s) "
            f"({elapsed:.6f} s on the simulated timeline)"
        )


class DeviceFailedError(DeviceError):
    """Raised when an op or collective touches a permanently failed device.

    ``failed_at`` is the simulated time of the injected failure,
    ``detected_at`` the simulated time at which the failure became
    observable (op submission, or collective timeout expiry) — elastic
    recovery restarts the clock from ``detected_at``.
    """

    def __init__(self, device: str, rank: int, failed_at: float, detected_at: float):
        self.device = device
        self.rank = rank
        self.failed_at = failed_at
        self.detected_at = detected_at
        super().__init__(
            f"{device} (rank {rank}) failed at t={failed_at:.6f}s "
            f"(detected at t={detected_at:.6f}s)"
        )


class RecoveryError(ReproError):
    """Raised when elastic recovery itself cannot proceed (no survivors,
    failure budget exhausted, unrecoverable mode)."""


class CheckpointError(ReproError):
    """Raised when a checkpoint file is corrupt (checksum mismatch,
    truncated payload)."""


class TopologyError(ReproError):
    """Raised when a machine topology is malformed or a route is missing."""


class DatasetError(ReproError):
    """Raised for unknown dataset names or invalid generator parameters."""


class ConfigurationError(ReproError):
    """Raised for invalid trainer/model configuration."""


class MutationError(ReproError):
    """Raised for invalid graph mutations (edge endpoints out of range,
    operations touching removed vertices, malformed batches)."""


class PlanError(ReproError):
    """Raised when an execution plan cannot be captured or replayed
    (capture attempted under an active fault plan, replay of a finalized
    plan against a changed world, ...)."""
