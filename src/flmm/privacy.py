"""Privacy mechanisms: DP noise on uploads and a pairwise-mask
secure-aggregation simulation.

A run applies gaussian_mechanism when [privacy] dp_enabled is set, and each
client masks its own update with apply_pairwise_masks when masking_enabled
is set. The joint form of that masking, which masks every party's update in
one call, and an output blacklist filter are no run's code;
``tests/support.py`` keeps them as oracles.

The masking simulation preserves the functional contract (the server learns
only the sum of client deltas); real key agreement and crypto are out of
scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from flmm.aggregation import ClientUpdate
from flmm.errors import MaskingError, NumericError, RangeError
from flmm.rng import SplitMix64, hash_text, mix_counters, mix_seed, to_uniform


@dataclass(frozen=True)
class PrivacyConfig:
    dp_enabled: bool = False
    clip_norm: float = 1.0
    noise_std: float = 0.0
    masking_enabled: bool = False

    def __post_init__(self):
        # both comparisons are false for nan
        if not 0.0 < self.clip_norm < math.inf:
            raise RangeError(f"clip_norm = {self.clip_norm}: must be finite and above 0")
        if not 0.0 <= self.noise_std < math.inf:
            raise RangeError(f"noise_std = {self.noise_std}: must be finite and at least 0")


def gaussian_mechanism(update: ClientUpdate, cfg: PrivacyConfig,
                       seed: int) -> ClientUpdate:
    """Clip the flattened deltas to L2 norm clip_norm, add N(0, noise_std^2)."""
    names = sorted(update.deltas)
    flat = np.concatenate([update.deltas[n].ravel() for n in names])
    if not np.all(np.isfinite(flat)):
        raise NumericError("non-finite deltas")
    norm = float(np.linalg.norm(flat))
    scale = min(1.0, cfg.clip_norm / norm) if norm > 0 else 1.0
    flat = flat * scale
    if cfg.noise_std > 0:
        rng = SplitMix64(seed)
        flat = flat + cfg.noise_std * rng.gaussians(flat.size)
    return replace(update, deltas=_blocks_of(flat, update.deltas, names))


def _blocks_of(flat: np.ndarray, like: dict, names: list) -> dict:
    """``flat`` cut into ``names``' blocks, one after another, each shaped
    as in ``like``."""
    ends = np.cumsum([like[n].size for n in names])[:-1]
    return {n: part.reshape(like[n].shape)
            for n, part in zip(names, np.split(flat, ends))}


# Fixed-point grid for masking. Deltas and masks are snapped to multiples of
# 2**-GRID_BITS before any mask is applied, so every addition below is an
# exact integer operation inside the float64 mantissa and the masks cancel
# with zero floating-point tolerance. The snapping error (<= 2**-41 per
# entry) is far below every aggregation tolerance in use.
GRID_BITS = 40
_GRID = float(2 ** GRID_BITS)


def _pair_masks(seeds: list, size: int) -> np.ndarray:
    """One pair mask per seed, as rows of one draw: row k is ``size``
    uniforms on [-1, 1) from SplitMix64(seeds[k]), snapped to the fixed-point
    grid. A mask over several blocks covers them one after another, in
    sorted name order."""
    u = to_uniform(mix_counters(seeds, size))
    return np.round((2.0 * u - 1.0) * _GRID) / _GRID


def apply_pairwise_masks(update: ClientUpdate, party_ids: list[str],
                         round_seed: int) -> ClientUpdate:
    """Client-side view of pairwise masking.

    Each client derives the shared pair masks from (round_seed, pair ids)
    alone, so no coordination beyond knowing the participant list is needed.
    The quantized deltas are laid flat, and all of a party's pair masks are
    drawn at once and added to them in party order; each pair's mask is
    added to one party and subtracted from the other, so over all of
    ``party_ids`` the masks cancel. An update from a party outside
    ``party_ids`` raises MaskingError: no listed party would cancel its
    masks.
    """
    ordered = sorted(party_ids)
    if len(ordered) < 2:
        raise MaskingError("pairwise masking needs at least two clients")
    me = update.client_id
    if me not in ordered:
        raise MaskingError(f"party {me!r} is not among the masked parties")
    names = sorted(update.deltas)
    flat = np.concatenate([update.deltas[n].ravel() for n in names])
    flat = np.round(flat * _GRID) / _GRID  # snapped onto the grid
    others = [p for p in ordered if p != me]
    seeds = [mix_seed(round_seed, *map(hash_text, sorted((me, p)))) for p in others]
    for other, mask in zip(others, _pair_masks(seeds, flat.size)):
        flat += mask if me < other else -mask
    return replace(update, deltas=_blocks_of(flat, update.deltas, names))

