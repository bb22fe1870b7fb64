"""Deterministic seed derivation.

Every stochastic stage derives its generator from a master seed plus an
integer path, via numpy's SeedSequence spawn keys. Replications therefore
reproduce bit-identically regardless of execution order or worker count,
and the worker pools size themselves with available_cpus.
"""

from __future__ import annotations

import operator
import os

import numpy as np

from .errors import ParameterError

# Stream tags, one per independent random stage. Fixed constants: changing
# them changes every derived stream, which silently breaks reproducibility
# of recorded runs.
STREAM_COVARIATES = 1
STREAM_SHARES = 2
STREAM_PROJECTION = 3
STREAM_DIAGNOSTIC = 4
STREAM_RESTARTS = 5


def check_seed(seed) -> None:
    """Reject a seed that is not an integer in [0, 2**64); numpy integers
    pass, floats do not (int() would truncate them to another seed)."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if not 0 <= value < 2 ** 64:
        raise ParameterError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


def seed_sequence(master_seed: int, *path: int) -> np.random.SeedSequence:
    """SeedSequence for the stage identified by an integer path under master_seed."""
    return np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(seed_sequence(master_seed, *path))


def derive_seed(master_seed: int, *path: int) -> int:
    """Collapse a derived stream into a single 64-bit integer seed."""
    hi, lo = seed_sequence(master_seed, *path).generate_state(2, np.uint32)
    return (int(hi) << 32) | int(lo)


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has
    one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
