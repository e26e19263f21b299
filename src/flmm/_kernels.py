"""Bulk splitmix64 kernels in vectorized numpy.

The counter-based stream is computed with uint64 arithmetic (wraparound is
the semantics we want, so overflow warnings are silenced locally).
mix_counters draws one row of outputs per start state; bulk_mix is its
one-row case, and the Gaussian rows of rng use it directly.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

# There is no jitted path. The benchmark's run record still reads this flag.
USING_NUMBA = False


def mix_counters(starts, n: int) -> np.ndarray:
    """(len(starts), n) splitmix64 outputs: row i holds the n outputs that
    follow state starts[i]."""
    with np.errstate(over="ignore"):
        idx = np.arange(1, n + 1, dtype=np.uint64)
        z = np.asarray(starts, dtype=np.uint64)[:, None] + idx * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def bulk_mix(state: np.uint64, n: int) -> np.ndarray:
    """n consecutive splitmix64 outputs starting after ``state``."""
    return mix_counters([np.uint64(state)], n)[0]


def to_uniform(u: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1): high 53 bits of each output scaled by 2^-53."""
    return (u >> np.uint64(11)).astype(np.float64) * 2.0**-53

