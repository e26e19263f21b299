"""Fusion of adapter-only client updates.

``aggregate_stack`` is the one fusion step. It fuses a round's updates into C
models at once: each block is a (C, r, c) stack, and a membership matrix says
which updates join which row. Shapley replay runs it with one row per
coalition; ``aggregate``, for the server and ``federated_train``, is its
one-row slice. There are three strategies: sample-weighted averaging,
product-space re-factorization, or staleness-weighted async mixing. A masked
plan must average, with unit weights: pair masks cancel only in a plain sum.
Summation runs in sorted-client order, and a row with nothing to add keeps
its blocks by a masked select, never by adding a zero delta (which could
turn -0.0 into +0.0), so every row has the bits of fusing that model on its
own.

Blocks here are the block dicts of ``model`` (BLOCK_NAMES, snapshot_blocks,
with_blocks); a ClientUpdate's deltas are one. Its SUBMIT and round-log
form is ``protocol.update_message``.
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
from flmm.model import BLOCK_NAMES, LORA_SCALE, ModelSnapshot, snapshot_blocks, with_blocks
from flmm.rng import SplitMix64

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


def fedavg_adapters(updates: list[ClientUpdate], plan: AggregationPlan,
                    weights=None) -> dict:
    """Weighted mean of deltas, per block in the mask: summed in sorted
    client order, then divided by the integer weight total.

    ``weights`` holds one integer per update, in the order of ``updates``. It
    defaults to the server's row: sample counts, or 1 each under a masked
    plan. A (C, k) matrix averages C coalitions at once into (C, r, c)
    blocks; a zero weight leaves the update out of that row, and a row of
    zeros gets zero deltas, which the caller must not add.
    """
    if not updates:
        raise StalenessError("no updates to aggregate")
    versions = {u.base_version for u in updates}
    if len(versions) > 1:
        raise StalenessError(f"mixed base versions {sorted(versions)}; use async_mix")
    w = _server_weights(updates, plan) if weights is None else np.asarray(weights)
    total = w.sum(axis=-1)
    total = np.where(total == 0, 1, total)[..., None, None]
    order = sorted(range(len(updates)), key=lambda j: updates[j].client_id)
    column = {j: w[..., j, None, None] for j in order}
    out = {}
    for name in sorted(plan.block_mask):
        present = [j for j in order if name in updates[j].deltas]
        if not present:
            continue
        acc = np.zeros(w.shape[:-1] + updates[present[0]].deltas[name].shape)
        for j in present:
            acc = acc + column[j] * updates[j].deltas[name]
        out[name] = acc / total
    return out


def _server_weights(updates: list[ClientUpdate], plan: AggregationPlan) -> np.ndarray:
    """One weight per update: its sample count, or 1 under a masked plan."""
    return np.array([1 if plan.masking_enabled else u.sample_count for u in updates])


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

    The one-row slice of ``aggregate_stack``: ``history`` maps each version
    to its snapshot; only the bases the updates name are read.
    """
    def stacked(s: ModelSnapshot) -> dict:
        return {n: m[None] for n, m in snapshot_blocks(s).items()}

    past = {u.base_version: stacked(history[u.base_version]) for u in updates} \
        if plan.strategy == ASYNC_MIX else {}
    fused = aggregate_stack(plan, snapshot.version, stacked(snapshot), updates,
                            np.ones((1, len(updates)), dtype=bool), past)
    return apply_block_mask({n: fused[n][0] for n in plan.block_mask if n in fused},
                            snapshot)


def aggregate_stack(plan: AggregationPlan, version: int, blocks: dict,
                    updates, member, history) -> dict:
    """Fuse one round's updates into C models at once; returns their next
    blocks, stacked the same way.

    ``blocks`` maps each block name to a (C, r, c) array whose row i is model
    i's block. ``member[i, j]`` is true when ``updates[j]`` joins row i's
    round. Every row is at ``version``; sync_avg and product_refactor need
    every joining update based on it. async_mix mixes the updates in client
    order, each against its base blocks ``history[base_version]``, stacked
    like ``blocks``; no other strategy reads ``history``. A row with nothing
    to add keeps its blocks bit for bit.
    """
    if not updates:
        raise StalenessError("no updates to aggregate")
    member = np.asarray(member, dtype=bool)
    joined = member.any(axis=0)
    updates = [u for u, j in zip(updates, joined) if j]
    member = member[:, joined]
    if plan.strategy == ASYNC_MIX:
        out = dict(blocks)
        for j in sorted(range(len(updates)), key=lambda j: updates[j].client_id):
            u = updates[j]
            mixed = async_mix(out, u, version, plan, history[u.base_version])
            out = {n: m if m is out[n] else np.where(member[:, j, None, None], m, out[n])
                   for n, m in mixed.items()}
        return out
    stale = sorted({u.base_version for u in updates} - {version})
    if stale:
        raise StalenessError(f"bases {stale} != version {version}")
    if plan.strategy == PRODUCT_REFACTOR:
        out = {n: m.copy() if n in plan.block_mask else m for n, m in blocks.items()}
        for i in np.flatnonzero(member.any(axis=1)):
            subset = [u for u, j in zip(updates, member[i]) if j]
            base = {n: m[i].copy() for n, m in blocks.items()}
            for n, m in _refactored_blocks(plan, base, subset).items():
                out[n][i] = m
        return out
    weights = np.where(member, _server_weights(updates, plan), 0)
    out = dict(blocks)
    for n, new in fedavg_adapters(updates, plan, weights).items():
        adds = member[:, [n in u.deltas for u in updates]].any(axis=1)
        # in place, so a replay holds no third stack; copyto acts as np.where
        new += blocks[n]
        np.copyto(new, blocks[n], where=~adds[:, None, None])
        out[n] = new
    return out


def _refactored_blocks(plan: AggregationPlan, base: dict, updates) -> dict:
    """New adapter factors approximating the old product plus the averaged
    product-space delta; the bridge (full-rank) still averages elementwise."""
    result = {}
    for tower in ("vision", "text"):
        a, b = base[f"{tower}.a"], base[f"{tower}.b"]
        m = LORA_SCALE * (b @ a) + product_mean(updates, tower, LORA_SCALE)
        result[f"{tower}.a"], result[f"{tower}.b"] = \
            refactor_matrix(m, a.shape[0], LORA_SCALE)
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

