"""Deterministic splitmix64 random stream shared by every component.

Corpora, masks, and DP noise must be bit-reproducible across runs and across
machines, so we do not use numpy's Generator. The stream is counter-based:
state_i = seed + i * GOLDEN (mod 2^64), output = mix(state_i), which lets the
bulk paths vectorize. Gaussians and the swap indices of a shuffle are drawn
in one bulk call each; each advances the state by exactly the number of
outputs it consumed, as drawing them one at a time would. There is no scalar
draw: callers that need a few outputs mix them with bulk_mix, and callers
that need uniforms convert outputs with to_uniform (the pair masks of
``privacy``).

Because a state fixes every output after it, Gaussians for many places in
one stream are drawn together: gaussian_rows takes the state each row starts
from and returns all the rows from one Box-Muller pass, the only one in the
package. SplitMix64.gaussians is its one-row case. A corpus reads its
per-record draws from bulk_mix windows of its stream, notes where each
record's image noise starts, then draws all that noise at once.

The bulk kernels live in ``_kernels``, in vectorized numpy: shuffles,
Gaussian rows and pair masks all mix on a counter array.
"""

from __future__ import annotations

import numpy as np

from flmm._kernels import bulk_mix, mix_counters, to_uniform

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = 0xFFFFFFFFFFFFFFFF

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """splitmix64 stream with bulk Box-Muller Gaussians and shuffles."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def gaussians(self, n: int) -> np.ndarray:
        """n Gaussians; advances the stream by gaussian_outputs(n)."""
        out = gaussian_rows([self.state], n)[0]
        self.skip(gaussian_outputs(n))
        return out

    def skip(self, n: int) -> None:
        """Advance the stream by n outputs without drawing them."""
        self.state = (self.state + n * GOLDEN) & MASK64

    def normal_matrix(self, rows: int, cols: int, std: float = 1.0) -> np.ndarray:
        return self.gaussians(rows * cols).reshape(rows, cols) * std

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates using the stream.

        Step i (from len - 1 down to 1) swaps items[i] with items[j], where
        j is the stream's next output mod i + 1. All len - 1 outputs are
        drawn with one bulk_mix, and the state advances by len - 1.
        """
        n = len(items)
        if n < 2:
            return
        js = bulk_mix(np.uint64(self.state), n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
        self.skip(n - 1)
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            items[i], items[j] = items[j], items[i]


def gaussian_outputs(n: int) -> int:
    """Stream outputs that n Gaussians consume: Box-Muller uses whole pairs."""
    return 2 * ((n + 1) // 2)


def gaussian_rows(starts, n: int) -> np.ndarray:
    """(len(starts), n) Gaussians; row i is what SplitMix64(starts[i])
    .gaussians(n) returns. ``starts`` holds stream states, 0 <= s < 2^64.

    Box-Muller on consecutive uniform pairs: the first of a pair sets the
    radius, the second the angle, and the pair gives a cosine and a sine.
    """
    m = gaussian_outputs(n) // 2
    u = to_uniform(mix_counters(starts, 2 * m))
    r = np.where(u[:, 0::2] == 0.0, 2.0**-53, u[:, 0::2])  # cheap guard, p ~ 2^-53
    ang = 2.0 * np.pi * u[:, 1::2]
    del u
    # in place from here: each array is held once, with the same bits
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    out = np.empty((len(starts), 2 * m))
    np.multiply(r, np.cos(ang), out=out[:, 0::2])
    np.multiply(r, np.sin(ang), out=out[:, 1::2])
    return out[:, :n]


def mix_seed(*parts: int) -> int:
    """Derive a child seed from (seed, round, party-hash, ...) components."""
    acc = 0
    for p in parts:
        acc = _mix((acc + GOLDEN + (p & MASK64)) & MASK64)
    return acc


def hash_text(s: str) -> int:
    acc = 0
    for b in s.encode():
        acc = _mix((acc ^ b) + GOLDEN & MASK64)
    return acc


__all__ = ["SplitMix64", "gaussian_outputs", "gaussian_rows", "mix_seed", "hash_text",
           "bulk_mix", "GOLDEN", "MASK64"]
