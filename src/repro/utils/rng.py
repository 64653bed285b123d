"""Deterministic RNG plumbing.

All randomness in the library flows through :class:`numpy.random.Generator`
objects created here, so that every experiment is reproducible from a single
integer seed. Components that need several independent streams (e.g. the
planted-partition generator's label, edge and feature phases) use
:func:`split_generator`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.config import DEFAULT_SEED

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` maps to the library default seed (NOT entropy from the OS) so
    that un-seeded runs are still reproducible; pass an explicit generator
    to opt into externally controlled randomness.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def split_generator(rng: np.random.Generator, n: int) -> list:
    """Split ``rng`` into ``n`` statistically independent child generators.

    Children are derived by spawning seeds from the parent stream; the
    parent remains usable afterwards.
    """
    if n < 0:
        raise ValueError(f"cannot split into {n} generators")
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
