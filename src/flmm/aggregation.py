"""Fusion of adapter-only client updates.

``aggregate`` fuses updates for the server, ``federated_train`` and Shapley
replay alike, with one of three strategies: sample-weighted averaging,
product-space re-factorization, or staleness-weighted async mixing. A masked
plan must average, with unit weights: pair masks cancel only in a plain sum.
Summation runs in sorted-client order, so results are bit-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from flmm.errors import (
    FactorizationError,
    FutureVersionError,
    NumericError,
    PlanError,
    ShapeError,
    StalenessError,
)
from flmm.model import AdapterPair, ModelSnapshot, TowerParams
from flmm.rng import SplitMix64

BLOCK_NAMES = ("vision.a", "vision.b", "text.a", "text.b", "bridge")

SYNC_AVG = "sync_avg"
PRODUCT_REFACTOR = "product_refactor"
ASYNC_MIX = "async_mix"
STRATEGIES = (SYNC_AVG, PRODUCT_REFACTOR, ASYNC_MIX)


@dataclass(frozen=True)
class ClientUpdate:
    """Adapter deltas from one party; the only payload that crosses the wire."""

    client_id: str
    base_version: int
    deltas: dict  # block name -> matrix
    sample_count: int
    submitted_round: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise ShapeError("sample_count must be >= 1")
        for name, m in self.deltas.items():
            if name not in BLOCK_NAMES:
                raise PlanError(f"unknown block {name!r}")
            if not np.isfinite(m).all():
                raise NumericError(f"non-finite values in block {name!r}")


@dataclass(frozen=True)
class AggregationPlan:
    strategy: str = SYNC_AVG
    block_mask: frozenset = frozenset(BLOCK_NAMES)
    staleness_exponent: float = 0.5
    mixing_rate: float = 0.5
    masking_enabled: bool = False

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise PlanError(f"unknown strategy {self.strategy!r}")
        if not self.block_mask:
            raise PlanError("block mask must be non-empty")
        bad = set(self.block_mask) - set(BLOCK_NAMES)
        if bad:
            raise PlanError(f"unknown blocks in mask: {sorted(bad)}")
        if not 0.0 < self.mixing_rate <= 1.0:
            raise PlanError("mixing_rate must be in (0, 1]")
        if not 0.0 <= self.staleness_exponent < math.inf:  # false for nan
            raise PlanError("staleness_exponent must be finite and >= 0")
        if self.masking_enabled and self.strategy != SYNC_AVG:
            raise PlanError(f"masking needs sync_avg, not {self.strategy}")


def snapshot_blocks(snapshot: ModelSnapshot) -> dict:
    """Trainable blocks of a snapshot, copied."""
    blocks = {
        "vision.a": snapshot.vision.adapter.a.copy(),
        "vision.b": snapshot.vision.adapter.b.copy(),
        "text.a": snapshot.text.adapter.a.copy(),
        "text.b": snapshot.text.adapter.b.copy(),
    }
    if snapshot.bridge is not None:
        blocks["bridge"] = snapshot.bridge.copy()
    return blocks


def fedavg_adapters(updates: list[ClientUpdate], plan: AggregationPlan) -> dict:
    """Sample-count-weighted mean of deltas, per block in the mask; a masked
    plan weights every update 1."""
    if not updates:
        raise StalenessError("no updates to aggregate")
    versions = {u.base_version for u in updates}
    if len(versions) > 1:
        raise StalenessError(f"mixed base versions {sorted(versions)}; use async_mix")
    ordered = sorted(updates, key=lambda u: u.client_id)
    unit = plan.masking_enabled
    total = len(ordered) if unit else sum(u.sample_count for u in ordered)
    out = {}
    for name in sorted(plan.block_mask):
        present = [u for u in ordered if name in u.deltas]
        if not present:
            continue
        acc = np.zeros_like(present[0].deltas[name])
        for u in present:
            acc = acc + (1 if unit else u.sample_count) * u.deltas[name]
        out[name] = acc / total
    return out


def product_mean(updates: list[ClientUpdate], tower: str,
                 scale: float) -> np.ndarray:
    """Sample-weighted mean of the clients' product-space deltas scale*B@A."""
    if not updates:
        raise StalenessError("no updates to refactor")
    a_name, b_name = f"{tower}.a", f"{tower}.b"
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = sum(u.sample_count for u in ordered)
    m = None
    for u in ordered:
        if a_name not in u.deltas or b_name not in u.deltas:
            raise ShapeError(f"update {u.client_id!r} missing {tower} factors")
        dw = scale * (u.deltas[b_name] @ u.deltas[a_name])
        m = dw * u.sample_count if m is None else m + dw * u.sample_count
    return m / total


def refactor_matrix(m: np.ndarray, rank: int, scale: float, tol: float = 1e-10,
                    max_iters: int = 500) -> tuple[np.ndarray, np.ndarray]:
    """Best rank-r factors (a, b) with scale * b @ a ~ m, by subspace iteration."""
    d_out, _ = m.shape
    rng = SplitMix64(0xF1CA)
    q = rng.normal_matrix(d_out, rank)
    q, _ = np.linalg.qr(q)
    mmT = m @ m.T
    prev = -1.0
    for _ in range(max_iters):
        q, _ = np.linalg.qr(mmT @ q)
        captured = float(np.linalg.norm(q.T @ m))
        if abs(captured - prev) <= tol * max(1.0, captured):
            b = q
            a = (q.T @ m) / scale
            return a, b
        prev = captured
    residual = float(np.linalg.norm(m - q @ (q.T @ m)))
    raise FactorizationError(f"subspace iteration did not converge in {max_iters} steps",
                             residual)


def async_mix(server_blocks: dict, update: ClientUpdate, current_version: int,
              plan: AggregationPlan, server_at_base: dict) -> dict:
    """Staleness-weighted blend of a (possibly stale) update into the server.

    beta_t = mixing_rate * (1 + staleness)^(-staleness_exponent);
    new = (1 - beta_t) * server + beta_t * (server_at_base + delta),
    where server_at_base holds the blocks of the update's base model.
    """
    if update.base_version > current_version:
        raise FutureVersionError(
            f"update base {update.base_version} > server version {current_version}")
    tau = current_version - update.base_version
    beta = plan.mixing_rate * (1.0 + tau) ** (-plan.staleness_exponent)
    out = dict(server_blocks)
    for name in sorted(plan.block_mask):
        if name not in update.deltas or name not in server_blocks:
            continue
        client_state = server_at_base[name] + update.deltas[name]
        out[name] = (1.0 - beta) * server_blocks[name] + beta * client_state
    return out


def aggregate(plan: AggregationPlan, snapshot: ModelSnapshot, updates,
              history) -> ModelSnapshot:
    """Fuse one round's updates into ``snapshot``; returns the next version.

    sync_avg and product_refactor need every update based on ``snapshot``.
    async_mix mixes the updates in client order, each against its base model
    ``history[base_version]``; no other strategy reads ``history``.
    """
    base = snapshot_blocks(snapshot)
    if plan.strategy == ASYNC_MIX:
        result = base
        for u in sorted(updates, key=lambda u: u.client_id):
            result = async_mix(result, u, snapshot.version, plan,
                               snapshot_blocks(history[u.base_version]))
        result = {n: result[n] for n in plan.block_mask if n in result}
    else:
        stale = sorted({u.base_version for u in updates} - {snapshot.version})
        if stale:
            raise StalenessError(f"bases {stale} != version {snapshot.version}")
        if plan.strategy == PRODUCT_REFACTOR:
            result = _refactored_blocks(plan, snapshot, base, updates)
        else:
            delta = fedavg_adapters(updates, plan)
            result = {n: base[n] + d for n, d in delta.items()}
    return apply_block_mask(result, snapshot)


def _refactored_blocks(plan: AggregationPlan, snapshot: ModelSnapshot,
                       base: dict, updates) -> dict:
    """New adapter factors approximating the old product plus the averaged
    product-space delta; the bridge (full-rank) still averages elementwise."""
    result = {}
    for tower, adapter in (("vision", snapshot.vision.adapter),
                           ("text", snapshot.text.adapter)):
        scale = adapter.alpha / adapter.rank
        m = scale * (base[f"{tower}.b"] @ base[f"{tower}.a"]) \
            + product_mean(updates, tower, scale)
        result[f"{tower}.a"], result[f"{tower}.b"] = \
            refactor_matrix(m, adapter.rank, scale)
    bridged = [u for u in updates if "bridge" in u.deltas]
    if "bridge" in plan.block_mask and bridged:
        delta = fedavg_adapters(bridged, replace(plan, block_mask=frozenset({"bridge"})))
        result["bridge"] = base["bridge"] + delta["bridge"]
    return {n: m for n, m in result.items() if n in plan.block_mask}


def apply_block_mask(result: dict, snapshot: ModelSnapshot) -> ModelSnapshot:
    """Write aggregated blocks into the snapshot; bump the version by one."""
    bad = set(result) - set(BLOCK_NAMES)
    if bad:
        raise PlanError(f"unknown blocks: {sorted(bad)}")
    return with_blocks(snapshot, result, snapshot.version + 1)


def with_blocks(snapshot: ModelSnapshot, blocks: dict, version: int) -> ModelSnapshot:
    """The snapshot at ``version``, with each named trainable block replaced;
    frozen weights, alpha and temperature are shared with ``snapshot``."""
    vision, text = snapshot.vision, snapshot.text
    v_ad, t_ad = vision.adapter, text.adapter
    return ModelSnapshot(
        vision=TowerParams(vision.w_base, AdapterPair(
            blocks.get("vision.a", v_ad.a), blocks.get("vision.b", v_ad.b),
            v_ad.rank, v_ad.alpha)),
        text=TowerParams(text.w_base, AdapterPair(
            blocks.get("text.a", t_ad.a), blocks.get("text.b", t_ad.b),
            t_ad.rank, t_ad.alpha)),
        token_embed=snapshot.token_embed,
        bridge=blocks.get("bridge", snapshot.bridge),
        temperature=snapshot.temperature,
        version=version,
    )
