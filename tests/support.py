"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import flmm.training
from flmm.aggregation import (
    apply_block_mask,
    async_mix,
    product_mean,
    refactor_matrix,
)
from flmm.dataquality import (
    CLASS_TOKEN_BASE,
    HAZARD_TOKEN,
    SAFE_TOKEN,
    SENSITIVE_TOKENS,
    SceneRecord,
    Truth,
    caption_template,
    class_hazard,
    class_prototype,
)
from flmm.errors import SpecError
from flmm.fusion import compose_losses, text_anchor_loss_and_grads
from flmm.model import (
    BLOCK_NAMES,
    AdapterPair,
    ModelSnapshot,
    PairBatch,
    TowerParams,
    _text_backward,
    _vision_backward,
    contrastive_loss_and_grads,
    init_snapshot,
    pair_batch,
    pair_forward,
    sgd_step,
    snapshot_blocks,
    with_blocks,
)
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
    m = snapshot_blocks(s)[block]
    m[i, j] += eps
    return with_blocks(s, {block: m}, s.version)


def grads_bytes(loss, grads) -> tuple:
    """A loss and its gradient blocks as bytes, for exact comparison."""
    return (np.float64(loss).tobytes(),) + tuple(
        (n, grads[n].tobytes()) for n in BLOCK_NAMES if n in grads)


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
    for name, g in grads.items():
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


# ---------------------------------------------------------------------------
# Record-by-record corpus and per-call training oracles: each record draws
# its own image noise in turn, and local_train prepares its corpus and
# gathers each batch's rows on every call.
# ---------------------------------------------------------------------------

def oracle_gaussians(rng: SplitMix64, n: int) -> np.ndarray:
    """n Gaussians by Box-Muller on consecutive pairs of scalar uniforms."""
    m = (n + 1) // 2
    u = np.array([rng.next_uniform() for _ in range(2 * m)])
    u1 = u[0::2]
    u2 = u[1::2]
    u1 = np.where(u1 == 0.0, 2.0**-53, u1)
    r = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * np.pi * u2
    out = np.empty(2 * m)
    out[0::2] = r * np.cos(ang)
    out[1::2] = r * np.sin(ang)
    return out[:n]


def oracle_generate_corpus(spec) -> list:
    """The corpus drawn record by record, each record's noise in its turn."""
    rng = SplitMix64(spec.seed)
    pool = spec.scene_class_pool
    tags_in_play = [t for t, r in sorted(spec.corruption_rates.items()) if r > 0]
    if "mismatched" in tags_in_play and len(pool) < 2:
        raise SpecError("mismatched corruption needs at least two scene classes")
    records = []
    for i in range(spec.size):
        cls = pool[rng.next_u64() % len(pool)]
        hazard = class_hazard(cls)
        image = class_prototype(cls, spec.d_v) + 0.1 * oracle_gaussians(rng, spec.d_v)
        pristine = caption_template(cls, hazard)
        labels = (CLASS_TOKEN_BASE + cls, HAZARD_TOKEN if hazard else SAFE_TOKEN)

        u = rng.next_uniform()
        tag = None
        acc = 0.0
        for t in tags_in_play:
            acc += spec.corruption_rates[t]
            if u < acc:
                tag = t
                break

        caption = pristine
        if tag == "mismatched":
            other = pool[(pool.index(cls) + 1 + rng.next_u64() % (len(pool) - 1))
                         % len(pool)]
            caption = caption_template(other, class_hazard(other))
        elif tag == "sensitive_noise":
            noise = sorted(SENSITIVE_TOKENS)
            ins = (noise[rng.next_u64() % len(noise)], noise[rng.next_u64() % len(noise)])
            pos = rng.next_u64() % (len(pristine) + 1)
            caption = pristine[:pos] + ins + pristine[pos:]
        elif tag == "labels_only":
            caption = ()
        elif tag == "too_short":
            caption = pristine[:2]

        records.append(SceneRecord(
            id=f"{spec.party}-{i:05d}",
            party=spec.party,
            image=image,
            caption=caption,
            object_labels=labels,
            corruption=frozenset() if tag is None else frozenset({tag}),
            truth=Truth(scene_class=cls, hazard=hazard, pristine_caption=pristine),
        ))
    return records


def corpus_bytes(records) -> list:
    """Every field of every record, images as bytes, for exact comparison."""
    return [(r.id, r.party, r.image.dtype.str, r.image.shape, r.image.tobytes(),
             r.caption, r.object_labels, r.corruption, r.truth, r.quality_score)
            for r in records]


def oracle_local_train(model, records, cfg, seed):
    """Prepares the usable corpus on every call and gathers each batch's rows
    from it by index."""
    usable = [r for r in records if r.caption]
    if len(usable) < 2:
        return model
    corpus = pair_batch(model, [(r.image, r.caption) for r in usable])
    rng = SplitMix64(seed)
    for _ in range(cfg.epochs):
        order = list(range(len(usable)))
        rng.shuffle(order)
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if len(idx) < 2:
                continue
            fwd = pair_forward(model, PairBatch(corpus.xs[idx], corpus.ts[idx]))
            parts = [contrastive_loss_and_grads(model, fwd)]
            if cfg.anchor_mu > 0:
                parts.append(text_anchor_loss_and_grads(model, fwd, cfg.anchor_mu))
            _, grads = compose_losses(parts)
            model = sgd_step(model, grads, cfg.lr)
    return model


def count_pair_batches(monkeypatch) -> list:
    """Records the size of every corpus training featurizes."""
    calls = []
    original = flmm.training.pair_batch

    def counted(model, batch):
        calls.append(len(batch))
        return original(model, batch)

    monkeypatch.setattr(flmm.training, "pair_batch", counted)
    return calls


# ---------------------------------------------------------------------------
# Loss oracles in numpy's high-level spelling: np.linalg.norm, np.mean,
# np.squeeze and fancy-indexed diagonals.
# ---------------------------------------------------------------------------

def oracle_contrastive(snapshot, fwd):
    """Symmetric InfoNCE and its gradients from a PairForward."""
    n = len(fwd)
    tau = snapshot.temperature
    s = (fwd.z_v @ fwd.z_t.T) / tau
    d = np.arange(n)
    diag = s[d, d]
    probs, ces = [], []
    for axis in (1, 0):
        m = s.max(axis=axis, keepdims=True)
        e = np.exp(s - m)
        total = e.sum(axis=axis, keepdims=True)
        lse = np.squeeze(m, axis=axis) + np.log(np.squeeze(total, axis=axis))
        probs.append(e / total)
        ces.append(float(np.mean(lse - diag)))
    p_row, p_col = probs
    g = p_row + p_col
    g[d, d] = p_row[d, d] - 1.0 + p_col[d, d] - 1.0
    g /= 2.0 * n
    grads = _vision_backward(snapshot, fwd.cache_v, (g @ fwd.z_t) / tau)
    grads.update(_text_backward(snapshot, fwd.cache_t, (g.T @ fwd.z_v) / tau))
    return float(0.5 * (ces[0] + ces[1])), grads


def oracle_anchor(snapshot, fwd, mu):
    """mu * mean ||z_v - z_t||^2 and its vision-side gradients."""
    diff = fwd.z_v - fwd.z_t
    loss = mu * float(np.mean(np.sum(diff * diff, axis=1)))
    grads = _vision_backward(snapshot, fwd.cache_v, (2.0 * mu / len(fwd)) * diff)
    grads["text.a"] = np.zeros_like(snapshot.text.adapter.a)
    grads["text.b"] = np.zeros_like(snapshot.text.adapter.b)
    return loss, grads
