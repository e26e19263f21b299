"""Privacy mechanisms: DP noise on uploads, pairwise-mask secure-aggregation
simulation, and output blacklist filtering.

A run applies gaussian_mechanism when [privacy] dp_enabled is set, and each
client masks its own update with apply_pairwise_masks when masking_enabled
is set. pairwise_mask, the joint form of that masking, and output_filter
are library functions that no run calls; blacklist and refusal_sequence are
PrivacyConfig fields for output_filter, not config keys.

The masking simulation preserves the functional contract (the server learns
only the sum of client deltas); real key agreement and crypto are out of
scope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from flmm.aggregation import ClientUpdate
from flmm.errors import MaskingError, NumericError
from flmm.rng import SplitMix64, hash_text, mix_counters, mix_seed, to_uniform


@dataclass(frozen=True)
class PrivacyConfig:
    dp_enabled: bool = False
    clip_norm: float = 1.0
    noise_std: float = 0.0
    masking_enabled: bool = False
    blacklist: frozenset = frozenset()
    refusal_sequence: tuple = (0,)

    def __post_init__(self):
        if self.dp_enabled and self.clip_norm <= 0:
            raise NumericError("clip_norm must be positive when DP is enabled")


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


def quantize_deltas(deltas: dict) -> dict:
    """Snap each delta matrix onto the masking fixed-point grid."""
    return {n: np.round(m * _GRID) / _GRID for n, m in deltas.items()}


def _pair_masks(seeds: list, size: int) -> np.ndarray:
    """One pair mask per seed, as rows of one draw: row k is ``size``
    uniforms on [-1, 1) from SplitMix64(seeds[k]), snapped to the fixed-point
    grid. A mask over several blocks covers them one after another, in
    sorted name order."""
    u = to_uniform(mix_counters(seeds, size))
    return np.round((2.0 * u - 1.0) * _GRID) / _GRID


def pairwise_mask(updates: list[ClientUpdate], round_seed: int) -> list[ClientUpdate]:
    """Additive masking: each ordered pair (i < j) shares a mask added to i
    and subtracted from j, so the element-wise sum is bit-exactly preserved."""
    if len(updates) < 2:
        raise MaskingError("pairwise masking needs at least two clients")
    ordered = sorted(updates, key=lambda u: u.client_id)
    masked = {u.client_id: quantize_deltas(u.deltas) for u in ordered}
    for i, ui in enumerate(ordered):
        for uj in ordered[i + 1:]:
            shared = [n for n in sorted(ui.deltas) if n in uj.deltas]
            seed = mix_seed(round_seed, hash_text(ui.client_id), hash_text(uj.client_id))
            mask = _pair_masks([seed], sum(ui.deltas[n].size for n in shared))[0]
            for name, m in _blocks_of(mask, ui.deltas, shared).items():
                masked[ui.client_id][name] += m
                masked[uj.client_id][name] -= m
    return [replace(u, deltas=masked[u.client_id]) for u in ordered]


def apply_pairwise_masks(update: ClientUpdate, party_ids: list[str],
                         round_seed: int) -> ClientUpdate:
    """Client-side view of pairwise masking.

    Each client derives the shared pair masks from (round_seed, pair ids)
    alone, so no coordination beyond knowing the participant list is needed.
    Applying this to every participant's update is bit-identical to the
    joint ``pairwise_mask``. All of a party's pair masks are drawn at once
    and added, in party order, to its quantized deltas laid flat.
    """
    ordered = sorted(party_ids)
    if len(ordered) < 2:
        raise MaskingError("pairwise masking needs at least two clients")
    me = update.client_id
    names = sorted(update.deltas)
    flat = np.concatenate([update.deltas[n].ravel() for n in names])
    flat = np.round(flat * _GRID) / _GRID  # quantize_deltas, laid flat
    others = [p for p in ordered if p != me]
    seeds = [mix_seed(round_seed, *map(hash_text, sorted((me, p)))) for p in others]
    for other, mask in zip(others, _pair_masks(seeds, flat.size)):
        flat += mask if me < other else -mask
    return replace(update, deltas=_blocks_of(flat, update.deltas, names))


def output_filter(caption: list[int], cfg: PrivacyConfig) -> tuple[list[int], bool]:
    """Replace any caption containing a blacklisted token by the refusal
    sequence; returns (caption, blocked)."""
    if any(t in cfg.blacklist for t in caption):
        return list(cfg.refusal_sequence), True
    return list(caption), False
