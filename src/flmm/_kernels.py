"""Bulk splitmix64 kernels: numba-jitted loop with a pure numpy fallback.

The numpy path computes the counter-based stream with vectorized uint64
arithmetic (wraparound is the semantics we want, so overflow warnings are
silenced locally). Both paths are bit-identical. mix_counters, the numpy
path's core, draws one row of outputs per start state; the Gaussian rows of
rng use it directly.
Selection: FLMM_NO_NUMBA=1 forces numpy, otherwise numba is used when
importable.
"""

from __future__ import annotations

import os

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def mix_counters(starts, n: int) -> np.ndarray:
    """(len(starts), n) splitmix64 outputs: row i holds the n outputs that
    follow state starts[i]."""
    with np.errstate(over="ignore"):
        idx = np.arange(1, n + 1, dtype=np.uint64)
        z = np.asarray(starts, dtype=np.uint64)[:, None] + idx * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def _bulk_mix_numpy(state: np.uint64, n: int) -> np.ndarray:
    return mix_counters([state], n)[0]


USING_NUMBA = False

if os.environ.get("FLMM_NO_NUMBA", "") not in ("1", "true", "yes"):
    try:
        from numba import njit

        @njit(cache=True)
        def _bulk_mix_numba(state, n):  # pragma: no cover - jitted
            out = np.empty(n, dtype=np.uint64)
            s = state
            for i in range(n):
                s = s + _GOLDEN
                z = (s ^ (s >> np.uint64(30))) * _M1
                z = (z ^ (z >> np.uint64(27))) * _M2
                out[i] = z ^ (z >> np.uint64(31))
            return out

        USING_NUMBA = True
    except ImportError:
        pass


def bulk_mix(state: np.uint64, n: int) -> np.ndarray:
    """n consecutive splitmix64 outputs starting after ``state``."""
    if USING_NUMBA:
        return _bulk_mix_numba(np.uint64(state), n)
    return _bulk_mix_numpy(np.uint64(state), n)


def to_uniform(u: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1): high 53 bits of each output scaled by 2^-53."""
    return (u >> np.uint64(11)).astype(np.float64) * 2.0**-53


def bulk_uniform(state: np.uint64, n: int) -> np.ndarray:
    """n uniforms in [0, 1) from the outputs that follow ``state``."""
    return to_uniform(bulk_mix(state, n))
