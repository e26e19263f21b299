"""Server-side fusion of adapter-only client updates.

Four strategies: synchronous sample-weighted averaging, product-space
re-factorization, asynchronous staleness-weighted mixing, and chained
scheduling. Summation always runs in sorted-client order so results are
bit-deterministic regardless of arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass

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
CHAINED = "chained"
STRATEGIES = (SYNC_AVG, PRODUCT_REFACTOR, ASYNC_MIX, CHAINED)


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
    chain_order: tuple = ()

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
        if self.staleness_exponent < 0.0:
            raise PlanError("staleness_exponent must be >= 0")
        if self.strategy == CHAINED and not self.chain_order:
            raise PlanError("chained strategy needs a client ordering")


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
    """Sample-count-weighted mean of deltas, per block in the mask."""
    if not updates:
        raise StalenessError("no updates to aggregate")
    versions = {u.base_version for u in updates}
    if len(versions) > 1:
        raise StalenessError(f"mixed base versions {sorted(versions)}; use async_mix")
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = sum(u.sample_count for u in ordered)
    out = {}
    for name in sorted(plan.block_mask):
        present = [u for u in ordered if name in u.deltas]
        if not present:
            continue
        acc = np.zeros_like(present[0].deltas[name])
        for u in present:
            acc = acc + u.sample_count * u.deltas[name]
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


def product_refactor(updates: list[ClientUpdate], tower: str, rank: int,
                     alpha: float, tol: float = 1e-10,
                     max_iters: int = 500) -> tuple[np.ndarray, np.ndarray]:
    """Average adapter deltas in product space, then re-factorize to rank r.

    Computes M = weighted mean of (alpha/r) * B_i @ A_i and returns (a, b)
    such that (alpha/r) * b @ a is the best rank-r approximation of M,
    found by orthogonal (subspace) iteration rather than a dense
    decomposition.
    """
    scale = alpha / rank
    m = product_mean(updates, tower, scale)
    return refactor_matrix(m, rank, scale, tol, max_iters)


def async_mix(server_blocks: dict, update: ClientUpdate, current_version: int,
              plan: AggregationPlan, server_at_base: dict) -> dict:
    """Staleness-weighted blend of a (possibly stale) update into the server.

    beta_t = mixing_rate * (1 + staleness)^(-staleness_exponent);
    new = (1 - beta_t) * server + beta_t * (server_at_base + delta).
    server_at_base comes from the round log (the orchestrator's history).
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


def chained_schedule(clients: list[str], rounds: int) -> list[tuple[int, str]]:
    """Round-robin hand-off: one active client per step, rounds full passes."""
    if not clients:
        raise PlanError("chained schedule needs at least one client")
    return [(p * len(clients) + i, c)
            for p in range(rounds) for i, c in enumerate(clients)]


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
