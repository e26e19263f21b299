"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from flmm.aggregation import (
    apply_block_mask,
    async_mix,
    product_mean,
    refactor_matrix,
    snapshot_blocks,
)
from flmm.model import AdapterPair, ModelSnapshot, TowerParams, init_snapshot
from flmm.rng import SplitMix64

SMALL = dict(d_v=8, d_t=8, d_emb=4, rank=2, vocab=16)


def small_snapshot(seed: int, with_bridge: bool = True,
                   temperature: float = 0.5) -> ModelSnapshot:
    """Small random snapshot with nonzero adapters and a perturbed bridge."""
    s = init_snapshot(seed, temperature=temperature, with_bridge=with_bridge, **SMALL)
    rng = SplitMix64(seed + 1)
    va = replace(s.vision.adapter, a=rng.normal_matrix(2, 8, 0.3),
                 b=rng.normal_matrix(4, 2, 0.3))
    ta = replace(s.text.adapter, a=rng.normal_matrix(2, 8, 0.3),
                 b=rng.normal_matrix(4, 2, 0.3))
    s = replace(s, vision=replace(s.vision, adapter=va),
                text=replace(s.text, adapter=ta))
    if with_bridge:
        s = replace(s, bridge=np.eye(4) + rng.normal_matrix(4, 4, 0.1))
    return s


def identity_snapshot(d: int = 4, vocab: int = 16, with_bridge: bool = False,
                      temperature: float = 1.0) -> ModelSnapshot:
    """Identity bases and zero adapters: encoders reduce to normalization."""
    rng = SplitMix64(0)
    tok = rng.normal_matrix(vocab, d)
    zero = AdapterPair(a=np.zeros((1, d)), b=np.zeros((d, 1)), rank=1, alpha=2.0)
    return ModelSnapshot(
        vision=TowerParams(w_base=np.eye(d), adapter=zero),
        text=TowerParams(w_base=np.eye(d), adapter=zero),
        token_embed=tok,
        bridge=np.eye(d) if with_bridge else None,
        temperature=temperature,
        version=0,
    )


def random_batch(seed: int, n: int = 4, d_v: int = 8, vocab: int = 16,
                 caption_len: int = 3):
    rng = SplitMix64(seed)
    return [(rng.gaussians(d_v),
             [int(rng.next_u64() % vocab) for _ in range(caption_len)])
            for _ in range(n)]


def perturbed(s: ModelSnapshot, block: str, i: int, j: int, eps: float) -> ModelSnapshot:
    """Snapshot with one trainable entry nudged by eps."""
    if block == "vision.a":
        a = s.vision.adapter.a.copy(); a[i, j] += eps
        return replace(s, vision=replace(s.vision, adapter=replace(s.vision.adapter, a=a)))
    if block == "vision.b":
        b = s.vision.adapter.b.copy(); b[i, j] += eps
        return replace(s, vision=replace(s.vision, adapter=replace(s.vision.adapter, b=b)))
    if block == "text.a":
        a = s.text.adapter.a.copy(); a[i, j] += eps
        return replace(s, text=replace(s.text, adapter=replace(s.text.adapter, a=a)))
    if block == "text.b":
        b = s.text.adapter.b.copy(); b[i, j] += eps
        return replace(s, text=replace(s.text, adapter=replace(s.text.adapter, b=b)))
    if block == "bridge":
        br = s.bridge.copy(); br[i, j] += eps
        return replace(s, bridge=br)
    raise ValueError(block)


def grad_blocks(grads):
    out = {"vision.a": grads.d_vision_a, "vision.b": grads.d_vision_b,
           "text.a": grads.d_text_a, "text.b": grads.d_text_b}
    if grads.d_bridge is not None:
        out["bridge"] = grads.d_bridge
    return out


def grads_bytes(loss, grads) -> tuple:
    """A loss and its gradient blocks as bytes, for exact comparison."""
    return (np.float64(loss).tobytes(),) + tuple(
        None if b is None else b.tobytes()
        for b in (grads.d_vision_a, grads.d_vision_b, grads.d_text_a, grads.d_text_b,
                  grads.d_bridge))


def check_grads_fd(snapshot, loss_fn, grads, step: float = 1e-5,
                   rtol: float = 1e-4, atol: float = 1e-7,
                   blocks=None) -> float:
    """Central finite differences on every trainable entry.

    loss_fn(snapshot) -> float must recompute the same loss the gradients
    were taken from. ``blocks`` restricts the check (e.g. to skip stop-grad
    blocks whose analytic derivative is zero by definition). Returns the
    worst relative error seen.
    """
    worst = 0.0
    for name, g in grad_blocks(grads).items():
        if blocks is not None and name not in blocks:
            continue
        for i in range(g.shape[0]):
            for j in range(g.shape[1]):
                lo = loss_fn(perturbed(snapshot, name, i, j, -step))
                hi = loss_fn(perturbed(snapshot, name, i, j, +step))
                fd = (hi - lo) / (2 * step)
                err = abs(fd - g[i, j])
                rel = err / max(abs(fd), abs(g[i, j]), atol / rtol)
                worst = max(worst, rel)
                assert err <= atol or rel <= rtol, \
                    f"{name}[{i},{j}]: analytic {g[i, j]:.3e} vs fd {fd:.3e}"
    return worst


# ---------------------------------------------------------------------------
# Per-coalition replay oracle: one coalition at a time, each round fused by
# its own loop over the coalition's updates, with no stacking and no weights
# of zero.
# ---------------------------------------------------------------------------

def oracle_fedavg(updates, plan) -> dict:
    """Sample-weighted mean per block (unit weights when masked), summed in
    sorted client order over the updates that hold the block."""
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


def oracle_aggregate(plan, snapshot: ModelSnapshot, updates, history) -> ModelSnapshot:
    """One round of fusion for one coalition."""
    base = snapshot_blocks(snapshot)
    if plan.strategy == "async_mix":
        result = base
        for u in sorted(updates, key=lambda u: u.client_id):
            result = async_mix(result, u, snapshot.version, plan,
                               snapshot_blocks(history[u.base_version]))
    elif plan.strategy == "product_refactor":
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
            bridge_only = replace(plan, block_mask=frozenset({"bridge"}))
            result["bridge"] = base["bridge"] + oracle_fedavg(bridged, bridge_only)["bridge"]
    else:
        result = {n: base[n] + d for n, d in oracle_fedavg(updates, plan).items()}
    return apply_block_mask({n: m for n, m in result.items() if n in plan.block_mask},
                            snapshot)


def oracle_replay_coalition(initial: ModelSnapshot, rounds, coalition) -> ModelSnapshot:
    """Re-aggregate one coalition's logged updates round by round; a round it
    sat out only advances the version."""
    model = initial
    history = {model.version: model}
    for rec in rounds:
        subset = [u for u in rec.updates if u.client_id in coalition]
        model = oracle_aggregate(rec.plan, model, subset, history) if subset \
            else apply_block_mask({}, model)
        history[model.version] = model
    return model
