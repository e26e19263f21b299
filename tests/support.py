"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import os
import struct
import sys
import zlib
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np

import flmm.orchestrator
import flmm.simulate
import flmm.training
from flmm.aggregation import (
    aggregate,
    apply_block_mask,
    async_mix,
    product_mean,
    refactor_matrix,
)
from flmm.client import TrainingJob
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
from flmm.errors import FlmmError, IdentityError, MaskingError, SpecError
from flmm.fusion import compose_losses, text_anchor_loss_and_grads
from flmm.model import (
    BLOCK_NAMES,
    FORMAT_VERSION,
    LORA_SCALE,
    MAGIC,
    ModelSnapshot,
    PairBatch,
    _pack_matrix,
    _text_backward,
    _text_forward,
    _vision_backward,
    _vision_forward,
    contrastive_loss_and_grads,
    init_snapshot,
    pair_batch,
    pair_forward,
    save_snapshot,
    sgd_step,
    snapshot_blocks,
    with_blocks,
)
from flmm.privacy import _GRID, _blocks_of, _pair_masks
from flmm.rng import GOLDEN, MASK64, SplitMix64, _mix, bulk_mix, hash_text, mix_seed, \
    to_uniform
from flmm.training import local_train, make_update

SMALL = dict(d_v=8, d_t=8, d_emb=4, rank=2, vocab=16)


def small_snapshot(seed: int, with_bridge: bool = True,
                   temperature: float = 0.5) -> ModelSnapshot:
    """Small random snapshot with nonzero adapters and a perturbed bridge."""
    s = init_snapshot(seed, temperature=temperature, with_bridge=with_bridge, **SMALL)
    rng = SplitMix64(seed + 1)
    blocks = {"vision.a": rng.normal_matrix(2, 8, 0.3), "vision.b": rng.normal_matrix(4, 2, 0.3),
              "text.a": rng.normal_matrix(2, 8, 0.3), "text.b": rng.normal_matrix(4, 2, 0.3)}
    if with_bridge:
        blocks["bridge"] = np.eye(4) + rng.normal_matrix(4, 4, 0.1)
    return with_blocks(s, blocks, s.version)


def identity_snapshot(d: int = 4, vocab: int = 16, with_bridge: bool = False,
                      temperature: float = 1.0) -> ModelSnapshot:
    """Identity bases and zero adapters: encoders reduce to normalization."""
    rng = SplitMix64(0)
    tok = rng.normal_matrix(vocab, d)
    blocks = {"vision.a": np.zeros((1, d)), "vision.b": np.zeros((d, 1)),
              "text.a": np.zeros((1, d)), "text.b": np.zeros((d, 1))}
    if with_bridge:
        blocks["bridge"] = np.eye(d)
    return ModelSnapshot(w_v=np.eye(d), w_t=np.eye(d), token_embed=tok, blocks=blocks,
                         temperature=temperature)


def checkpoint_bytes(matrices, bridge=None, temperature: float = 0.1,
                     version: int = 0) -> bytes:
    """A CRC-valid checkpoint written field by field, with no shape check:
    the seven matrices in save_snapshot's order, then the optional bridge."""
    body = MAGIC + struct.pack("<H", FORMAT_VERSION) \
        + b"".join(_pack_matrix(m) for m in matrices) \
        + (b"\x00" if bridge is None else b"\x01" + _pack_matrix(bridge)) \
        + struct.pack("<dQ", temperature, version)
    return body + struct.pack("<I", zlib.crc32(body))


def checkpoint_fields(s: ModelSnapshot) -> list:
    """The seven matrices a checkpoint stores before the bridge, in order."""
    b = s.blocks
    return [s.w_v, b["vision.a"], b["vision.b"], s.w_t, b["text.a"], b["text.b"],
            s.token_embed]


def malformed_checkpoints() -> dict:
    """CRC-valid checkpoints of init_snapshot(5) whose blocks do not fit its
    frozen weights (8-row w_v, rank 2), and one with bytes after its version
    field."""
    s = init_snapshot(5)
    short_b = checkpoint_fields(s)
    short_b[2] = np.zeros((7, 2))
    junk = save_snapshot(s)[:-4] + b"junk"
    return {"bridge_5x5": checkpoint_bytes(checkpoint_fields(s), np.eye(5)),
            "vision_b_7_rows": checkpoint_bytes(short_b, s.blocks["bridge"]),
            "trailing_junk": junk + struct.pack("<I", zlib.crc32(junk))}


def random_batch(seed: int, n: int = 4, d_v: int = 8, vocab: int = 16,
                 caption_len: int = 3):
    rng = ScalarStream(seed)
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
        for tower in ("vision", "text"):
            rank = base[f"{tower}.a"].shape[0]
            m = LORA_SCALE * (base[f"{tower}.b"] @ base[f"{tower}.a"]) \
                + product_mean(updates, tower, LORA_SCALE)
            result[f"{tower}.a"], result[f"{tower}.b"] = \
                refactor_matrix(m, rank, LORA_SCALE)
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
# its own image noise in turn, local_train prepares its corpus and gathers
# each batch's rows on every call, and federated_train trains one party
# after another.
# ---------------------------------------------------------------------------

class ScalarStream(SplitMix64):
    """The stream drawn one output at a time, as the splitmix64 reference
    does: the oracle for every bulk draw, and a source of test data."""

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return _mix(self.state)

    def next_uniform(self) -> float:
        # 53-bit mantissa in [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53


def oracle_gaussians(rng: ScalarStream, n: int) -> np.ndarray:
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
    rng = ScalarStream(spec.seed)
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


def oracle_federated_train(model, corpora_by_party, cfg, rounds, plan, seed):
    """Synchronous rounds, each party trained on its own by
    oracle_local_train in sorted party order; a party below 2 usable records
    sits out."""
    for r in range(rounds):
        updates = []
        for party in sorted(corpora_by_party):
            records = corpora_by_party[party]
            usable = [rec for rec in records if rec.caption]
            if len(usable) < 2:
                continue
            trained = oracle_local_train(model, records, cfg,
                                         mix_seed(seed, r, hash_text(party)))
            updates.append(make_update(model, trained, party, len(usable), r))
        if updates:
            model = aggregate(plan, model, updates, {model.version: model})
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


def spy_local_train(monkeypatch) -> list:
    """Records (records, cfg, seed) for every local_train call, through every
    flmm module that imported the name."""
    calls = []
    original = flmm.training.local_train

    def spy(model, records, cfg, seed):
        calls.append((records, cfg, seed))
        return original(model, records, cfg, seed)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "flmm" and getattr(module, "local_train", None) is original:
            monkeypatch.setattr(module, "local_train", spy)
    return calls


# ---------------------------------------------------------------------------
# Pass oracle: every agent takes its job (POLL) in party order, each job
# trains alone in a one-row local_train call, and then every agent finishes
# its own (SUBMIT) in party order, for every strategy: run_simulation's
# pass, unstacked.
# ---------------------------------------------------------------------------

def oracle_train_batch(agents) -> bool:
    """One pass: all takes, one local_train per job, then all finishes."""
    taken = [(agent, agent.take()) for agent in agents]
    jobs = [(agent, job) for agent, job in taken if isinstance(job, TrainingJob)]
    trained = [local_train(job.model, job.data, job.cfg, job.seed) for _, job in jobs]
    return any([agent.finish(job, t) == "ACK" for (agent, job), t in zip(jobs, trained)])


def run_sequential(cfg, out_dir: str, **kwargs):
    """run_simulation with every job of a pass trained on its own."""
    with mock.patch.object(flmm.simulate, "train_batch", oracle_train_batch):
        return flmm.simulate.run_simulation(cfg, out_dir, **kwargs)


def run_artifacts(out_dir: str) -> dict:
    """What a run wrote: final.ckpt and updates.seg as bytes, and each round
    record without its timing and the CRC chain it moves."""
    log_dir = os.path.join(out_dir, "log")
    with open(os.path.join(out_dir, "final.ckpt"), "rb") as f:
        final = f.read()
    with open(os.path.join(log_dir, "updates.seg"), "rb") as f:
        updates = f.read()
    records = [{k: v for k, v in rec.items() if k not in ("duration", "crc", "prev_crc")}
               for rec in flmm.orchestrator.RoundLog(log_dir).verify()]
    return {"final.ckpt": final, "updates.seg": updates, "records": records}


def logged_spans(log_dir: str) -> dict:
    """(round, party) -> (offset, length) of each update frame a round record
    names in updates.seg, read off its ``updates=`` field."""
    spans = {}
    for rec in flmm.orchestrator.RoundLog(log_dir).verify():
        parties = [kv.split(":")[0] for kv in rec["contributors"].split(",") if kv]
        ranges = [s for s in rec["updates"].split(",") if s]
        assert len(ranges) in (0, len(parties)), rec
        for party, span in zip(parties, ranges):
            offset, length, _ = span.split(":")
            spans[int(rec["round"]), party] = (int(offset), int(length))
    return spans


def logged_frames(log_dir: str) -> dict:
    """(round, party) -> the bytes of each update frame a round record names."""
    with open(os.path.join(log_dir, "updates.seg"), "rb") as f:
        seg = f.read()
    return {key: seg[offset:offset + length]
            for key, (offset, length) in logged_spans(log_dir).items()}


def relog(log_dir: str, round_num: int, drop: tuple = (), **changes) -> None:
    """Rewrite the round log through ``RoundLog.append``, so every CRC and
    the chain stay valid, with round ``round_num``'s record taking
    ``changes`` and losing the fields named in ``drop``."""
    records = flmm.orchestrator.RoundLog(log_dir).verify()
    os.remove(os.path.join(log_dir, "rounds.log"))
    log = flmm.orchestrator.RoundLog(log_dir)
    for rec in records:
        fields = {k: v for k, v in rec.items() if k not in ("crc", "prev_crc")}
        if int(fields["round"]) == round_num:
            fields.update(changes)
            for name in drop:
                del fields[name]
        log.append(fields)


def relog_with_wrong_blocks(log_dir: str, round_num: int) -> None:
    """``relog`` round ``round_num`` with the ``blocks=`` of the record after it."""
    records = flmm.orchestrator.RoundLog(log_dir).verify()
    rounds = [int(rec["round"]) for rec in records]
    relog(log_dir, round_num, blocks=records[rounds.index(round_num) + 1]["blocks"])


def relog_update(log_dir: str, round_num: int, party: str, frame: bytes) -> None:
    """Append ``frame`` to updates.seg and ``relog`` round ``round_num`` so
    that ``party``'s range names it, with its length and a matching CRC."""
    path = os.path.join(log_dir, "updates.seg")
    offset = os.path.getsize(path)
    with open(path, "ab") as f:
        f.write(frame)
    record = next(rec for rec in flmm.orchestrator.RoundLog(log_dir).verify()
                  if int(rec["round"]) == round_num)
    parties = [kv.split(":")[0] for kv in record["contributors"].split(",") if kv]
    spans = record["updates"].split(",")
    spans[parties.index(party)] = f"{offset}:{len(frame)}:{zlib.crc32(frame):08x}"
    relog(log_dir, round_num, updates=",".join(spans))


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
    grads["text.a"] = np.zeros_like(snapshot.blocks["text.a"])
    grads["text.b"] = np.zeros_like(snapshot.blocks["text.b"])
    return loss, grads


# ---------------------------------------------------------------------------
# Library oracles that no run calls: distillation toward a consensus over a
# public probe set, the joint form of pairwise masking, an output blacklist
# filter, bulk uniforms and the caption bank of an eval set.
# ---------------------------------------------------------------------------

# Token ids no corpus holds (see ``flmm.dataquality``), used by the filter.
REFUSAL_TOKEN = 0
BLACKLIST_TOKENS = frozenset({58, 59})


class EmptyProbeError(FlmmError):
    """Probe set with no items."""


@dataclass(frozen=True)
class ProbeItem:
    modality: str  # "image" | "text"
    item_id: str
    image: np.ndarray | None = None
    tokens: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ProbeSet:
    probe_id: str
    items: tuple[ProbeItem, ...]

    def __post_init__(self):
        if not self.items:
            raise EmptyProbeError(f"probe set {self.probe_id!r} has no items")


@dataclass(frozen=True)
class ConsensusMap:
    probe_id: str
    round: int
    embeddings: dict  # item_id -> unit-norm target; items absent add no loss


def distillation_loss_and_grads(snapshot: ModelSnapshot, probe: ProbeSet,
                                consensus: ConsensusMap, lam: float
                                ) -> tuple[float, dict]:
    """lam * mean ||z_item - c_item||^2 over the items the consensus holds:
    the text anchor's pull, over both towers, toward a consensus map."""
    if consensus.probe_id != probe.probe_id:
        raise IdentityError(f"consensus for {consensus.probe_id!r}, probe is {probe.probe_id!r}")
    grads = {n: np.zeros_like(m) for n, m in snapshot.blocks.items()}
    if lam == 0.0:
        return 0.0, grads
    halves = [[it for it in probe.items
               if it.modality == modality and it.item_id in consensus.embeddings]
              for modality in ("image", "text")]
    m = len(halves[0]) + len(halves[1])
    loss = 0.0
    for items, forward, backward in zip(halves, (_vision_forward, _text_forward),
                                        (_vision_backward, _text_backward)):
        if not items:
            continue
        z, cache = forward(snapshot, np.stack([it.image for it in items])
                           if items[0].modality == "image"
                           else [list(it.tokens) for it in items])
        diff = z - np.stack([consensus.embeddings[it.item_id] for it in items])
        loss += float(np.sum(diff * diff))
        for n, g in backward(snapshot, cache, (2.0 * lam / m) * diff).items():
            grads[n] = grads[n] + g
    return (lam * loss / m if m else 0.0), grads


def quantize_deltas(deltas: dict) -> dict:
    """Snap each delta matrix onto the masking fixed-point grid."""
    return {n: np.round(m * _GRID) / _GRID for n, m in deltas.items()}


def pairwise_mask(updates, round_seed: int) -> list:
    """Additive masking of every update at once: each ordered pair (i < j)
    shares a mask added to i and subtracted from j, so the element-wise sum
    is bit-exactly preserved. ``privacy.apply_pairwise_masks`` applied to
    each update gives the same bits."""
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


def output_filter(caption, blacklist, refusal_sequence) -> tuple[list[int], bool]:
    """Replace any caption containing a blacklisted token by the refusal
    sequence; returns (caption, blocked)."""
    if any(t in blacklist for t in caption):
        return list(refusal_sequence), True
    return list(caption), False


def uniforms(rng: SplitMix64, n: int) -> np.ndarray:
    """n uniforms on [0, 1) in one bulk draw; advances ``rng`` by n."""
    out = to_uniform(bulk_mix(np.uint64(rng.state), n))
    rng.skip(n)
    return out


def caption_bank(eval_set) -> list[list[int]]:
    """Distinct captions of an eval set, in first-occurrence order."""
    return [list(cap) for cap in dict.fromkeys(tuple(rec.caption) for rec in eval_set)]
