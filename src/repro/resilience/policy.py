"""Retry and recovery policies.

:class:`RetryPolicy` governs transiently failing collectives (how many
attempts, how the backoff grows); :class:`RecoveryPolicy` governs what
the elastic trainer does when a device permanently dies (how often to
checkpoint, how many failures to absorb, how recovery work is costed on
the simulated timeline).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_COLLECTIVE_TIMEOUT,
    DEFAULT_HOST_BANDWIDTH,
    DEFAULT_MAX_RETRIES,
)
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry budget for transient collective faults."""

    max_retries: int = DEFAULT_MAX_RETRIES
    backoff_base: float = DEFAULT_BACKOFF_BASE
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0:
            raise ConfigurationError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )

    def backoff(self, attempt: int) -> float:
        """Delay before retrying after failed attempt ``attempt`` (0-based)."""
        if attempt < 0:
            raise ConfigurationError(f"negative attempt index {attempt}")
        return self.backoff_base * self.backoff_multiplier**attempt

    def total_backoff(self, attempts: int) -> float:
        """Cumulative backoff charged across ``attempts`` failed attempts."""
        return sum(self.backoff(k) for k in range(attempts))


@dataclass(frozen=True)
class RecoveryPolicy:
    """Elastic-recovery behaviour of :class:`~repro.resilience.recovery.ElasticTrainer`."""

    #: checkpoint the surviving-replica state every N completed epochs
    #: (1 = every epoch boundary; larger values trade replay work for
    #: less checkpoint traffic).
    checkpoint_every: int = 1
    #: absorb at most this many permanent device failures before giving up.
    max_failures: int = 3
    #: host<->device staging bandwidth used to cost the checkpoint
    #: restore and graph re-partition events, B/s.
    host_bandwidth: float = DEFAULT_HOST_BANDWIDTH
    #: watchdog charged when a collective detects a dead peer, seconds.
    detection_timeout: float = DEFAULT_COLLECTIVE_TIMEOUT

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.max_failures < 0:
            raise ConfigurationError(
                f"max_failures must be >= 0, got {self.max_failures}"
            )
        if self.host_bandwidth <= 0:
            raise ConfigurationError(
                f"host_bandwidth must be > 0, got {self.host_bandwidth}"
            )
        if self.detection_timeout < 0:
            raise ConfigurationError(
                f"detection_timeout must be >= 0, got {self.detection_timeout}"
            )
