"""Deterministic RNG streams.

Philox is counter based: the stream named by (seed, path) is the same no
matter when or on which thread it is created. Every stochastic routine in
the package gets its generator from rng_for, which is why concurrent and
serial runs of the same command are bit-identical.
"""

import numpy as np

from .errors import UsageError, check_integer


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the stream (seed, *path).

    path entries are small non-negative integers naming the consumer,
    e.g. (restart,) inside k-means or (s_index, perm_index) inside gap
    tuning. Distinct paths give statistically independent streams. A
    non-integral or negative seed names no stream and raises UsageError.
    """
    if check_integer("seed", seed, UsageError) < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(x) for x in path))
    return np.random.Generator(np.random.Philox(ss))


def spawn_seed(seed: int, *path: int) -> int:
    """Mint a 63-bit child seed for code that wants an integer seed."""
    return int(rng_for(seed, *path).integers(0, 2**63))
