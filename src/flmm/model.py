"""Two-tower vision-language toy model with frozen bases and low-rank adapters.

Only the adapter factors (and the optional bridge) are trainable; everything
else is frozen at construction. All operations are pure: they return new
values and never mutate a snapshot.

The trainable blocks have one form everywhere: a dict from block name
(BLOCK_NAMES; "bridge" only when the model has one) to its matrix.
snapshot_blocks reads it, with_blocks builds a snapshot from it, and a
gradient, an update's deltas and a fused result are all such dicts. The
wire and round-log form of an update is protocol.update_message.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from flmm.errors import (
    BatchError,
    CheckpointError,
    DegenerateInputError,
    EmptyBankError,
    IdentityError,
    NumericError,
    ShapeError,
    VocabularyError,
)
from flmm.rng import SplitMix64

# Default toy dimensions; small enough for exhaustive finite-difference checks.
D_V = 16
D_T = 16
D_EMB = 8
RANK = 2
VOCAB = 64
TEMPERATURE = 0.1


@dataclass(frozen=True)
class AdapterPair:
    """Low-rank factors: effective delta is (alpha / rank) * b @ a."""

    a: np.ndarray  # (rank, d_in)
    b: np.ndarray  # (d_out, rank)
    rank: int
    alpha: float

    def __post_init__(self):
        r, d_in = self.a.shape
        d_out, r2 = self.b.shape
        if r != self.rank or r2 != self.rank:
            raise ShapeError(f"adapter factor shapes {self.a.shape}/{self.b.shape} "
                             f"inconsistent with rank {self.rank}")
        if self.rank < 1 or self.rank > min(d_in, d_out):
            raise ShapeError(f"rank {self.rank} outside [1, min({d_in}, {d_out})]")
        if self.alpha <= 0:
            raise ShapeError("alpha must be positive")

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    def delta(self) -> np.ndarray:
        return self.scale * (self.b @ self.a)

    @staticmethod
    def init(d_in: int, d_out: int, rank: int, rng: SplitMix64,
             alpha: float | None = None) -> "AdapterPair":
        """Fresh adapter: a ~ N(0, 0.02^2), b = 0, so the delta starts at zero."""
        a = rng.normal_matrix(rank, d_in, std=0.02)
        b = np.zeros((d_out, rank))
        return AdapterPair(a=a, b=b, rank=rank, alpha=alpha if alpha is not None else 2.0 * rank)


@dataclass(frozen=True)
class TowerParams:
    """Frozen base weight plus its trainable adapter."""

    w_base: np.ndarray  # (d_emb, d_in), never modified
    adapter: AdapterPair

    def effective(self) -> np.ndarray:
        return self.w_base + self.adapter.delta()


@dataclass(frozen=True)
class ModelSnapshot:
    vision: TowerParams
    text: TowerParams
    token_embed: np.ndarray  # (vocab, d_t), frozen
    bridge: np.ndarray | None  # (d_emb, d_emb) or None
    temperature: float
    version: int = 0

    @property
    def d_emb(self) -> int:
        return self.vision.w_base.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.token_embed.shape[0]


BLOCK_NAMES = ("vision.a", "vision.b", "text.a", "text.b", "bridge")


def _blocks(snapshot: ModelSnapshot) -> dict:
    """The trainable blocks of a snapshot by name, not copied; the bridge
    is absent when the model has none."""
    blocks = {
        "vision.a": snapshot.vision.adapter.a,
        "vision.b": snapshot.vision.adapter.b,
        "text.a": snapshot.text.adapter.a,
        "text.b": snapshot.text.adapter.b,
    }
    if snapshot.bridge is not None:
        blocks["bridge"] = snapshot.bridge
    return blocks


def snapshot_blocks(snapshot: ModelSnapshot) -> dict:
    """Trainable blocks of a snapshot, copied."""
    return {n: m.copy() for n, m in _blocks(snapshot).items()}


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


def init_snapshot(seed: int, d_v: int = D_V, d_t: int = D_T, d_emb: int = D_EMB,
                  rank: int = RANK, vocab: int = VOCAB,
                  temperature: float = TEMPERATURE, with_bridge: bool = True) -> ModelSnapshot:
    """Seeded 'pretrained' snapshot: random frozen bases, zero-delta adapters."""
    rng = SplitMix64(seed)
    w_v = rng.normal_matrix(d_emb, d_v, std=1.0 / np.sqrt(d_v))
    w_t = rng.normal_matrix(d_emb, d_t, std=1.0 / np.sqrt(d_t))
    tok = rng.normal_matrix(vocab, d_t, std=1.0)
    bridge = np.eye(d_emb) if with_bridge else None
    return ModelSnapshot(
        vision=TowerParams(w_base=w_v, adapter=AdapterPair.init(d_v, d_emb, rank, rng)),
        text=TowerParams(w_base=w_t, adapter=AdapterPair.init(d_t, d_emb, rank, rng)),
        token_embed=tok,
        bridge=bridge,
        temperature=temperature,
        version=0,
    )


def check_token_embed(token_embed: np.ndarray, snapshot: ModelSnapshot,
                      what: str) -> None:
    """Raise IdentityError unless the snapshot's token_embed equals the one
    ``what`` was prepared from."""
    if token_embed is not snapshot.token_embed \
            and not np.array_equal(token_embed, snapshot.token_embed):
        raise IdentityError(f"{what} was built from a different token_embed")


def _normalize_rows(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the arithmetic np.linalg.norm(u, axis=1) runs, without its dispatch
    norms = np.sqrt(np.add.reduce(u * u, axis=1))
    if (norms == 0.0).any():
        raise DegenerateInputError("zero vector before normalization")
    return u / norms[:, None], norms


def _vision_forward(snapshot: ModelSnapshot, xs: np.ndarray):
    """Returns (z, cache) for a batch of image vectors, rows of xs."""
    if xs.shape[1] != snapshot.vision.w_base.shape[1]:
        raise ShapeError(f"image dim {xs.shape[1]} != tower input {snapshot.vision.w_base.shape[1]}")
    y = xs @ snapshot.vision.effective().T
    u = y @ snapshot.bridge.T if snapshot.bridge is not None else y
    z, norms = _normalize_rows(u)
    return z, (xs, y, z, norms)


def _text_forward(snapshot: ModelSnapshot, token_lists: list[list[int]]):
    return _text_tower(snapshot, text_features(snapshot, token_lists))


def _text_tower(snapshot: ModelSnapshot, ts: np.ndarray):
    """Returns (z, cache) for rows of text_features."""
    y = ts @ snapshot.text.effective().T
    z, norms = _normalize_rows(y)
    return z, (ts, z, norms)


def text_features(snapshot: ModelSnapshot, token_lists: list[list[int]]) -> np.ndarray:
    """Text-tower inputs: row i is the mean embedding of token_lists[i]'s ids.

    token_embed is frozen, so these rows are fixed for a corpus. The vocabulary
    is checked once over all tokens; the first bad caption in order decides the
    error. Captions of one length are averaged together, which sums the same
    rows in the same order as a per-caption mean, so the bits are the same.
    """
    vocab = snapshot.vocab_size
    by_len: dict[int, list[int]] = {}
    for i, toks in enumerate(token_lists):
        by_len.setdefault(len(toks), []).append(i)
    out = np.empty((len(token_lists), snapshot.token_embed.shape[1]))
    first_bad = len(token_lists)
    for length, rows in by_len.items():
        if length == 0:
            first_bad = min(first_bad, rows[0])
            continue
        ids = np.array([token_lists[i] for i in rows])
        bad = ((ids < 0) | (ids >= vocab)).any(axis=1)
        if bad.any():
            first_bad = min(first_bad, rows[int(np.argmax(bad))])
            continue
        out[rows] = snapshot.token_embed[ids.astype(np.intp, copy=False)].mean(axis=1)
    if first_bad < len(token_lists):
        toks = token_lists[first_bad]
        if len(toks) == 0:
            raise DegenerateInputError("empty token list")
        t = next(t for t in toks if not 0 <= t < vocab)
        raise VocabularyError(f"token id {t} outside vocab of {vocab}")
    return out


@dataclass(frozen=True)
class PairBatch:
    """Aligned (image, caption) pairs as tower inputs: image rows and the
    captions' text features."""

    xs: np.ndarray  # (n, d_v)
    ts: np.ndarray  # (n, d_t), rows of text_features

    def __len__(self) -> int:
        return self.xs.shape[0]


Pairs = list[tuple[np.ndarray, list[int]]]


def pair_batch(snapshot: ModelSnapshot, batch: PairBatch | Pairs) -> PairBatch:
    """The prepared form of a batch; a list of (image, tokens) pairs is converted."""
    if isinstance(batch, PairBatch):
        return batch
    xs = np.stack([np.asarray(x, dtype=np.float64) for x, _ in batch])
    return PairBatch(xs, text_features(snapshot, [t for _, t in batch]))


@dataclass(frozen=True)
class PairForward:
    """Both towers' forward pass over a batch of aligned pairs: the unit
    embeddings and the caches their backward passes read.

    One forward serves every loss of a training step. It is valid only for
    the snapshot it was computed with; a loss given another raises
    IdentityError.
    """

    snapshot: ModelSnapshot
    z_v: np.ndarray  # (n, d_emb)
    cache_v: tuple
    z_t: np.ndarray  # (n, d_emb)
    cache_t: tuple

    def __len__(self) -> int:
        return self.z_v.shape[0]


def pair_forward(snapshot: ModelSnapshot,
                 batch: PairForward | PairBatch | Pairs) -> PairForward:
    """The forward pass of a batch; pairs and a PairBatch are run through both
    towers, a PairForward of this snapshot is returned as it is."""
    if isinstance(batch, PairForward):
        if batch.snapshot is not snapshot:
            raise IdentityError("pair forward was computed with another snapshot")
        return batch
    batch = pair_batch(snapshot, batch)
    z_v, cache_v = _vision_forward(snapshot, batch.xs)
    z_t, cache_t = _text_tower(snapshot, batch.ts)
    return PairForward(snapshot, z_v, cache_v, z_t, cache_t)


def _normalize_backward(dz: np.ndarray, z: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # z = u / |u|  =>  du = (dz - (dz.z) z) / |u|
    dot = np.add.reduce(dz * z, axis=1, keepdims=True)
    return (dz - dot * z) / norms[:, None]


def _vision_backward(snapshot: ModelSnapshot, cache, dz: np.ndarray) -> dict:
    """Gradients w.r.t. the vision adapter factors, and the bridge when the
    model has one, from dL/dz."""
    xs, y, z, norms = cache
    du = _normalize_backward(dz, z, norms)
    dy = du if snapshot.bridge is None else du @ snapshot.bridge
    d_weff = dy.T @ xs
    ad = snapshot.vision.adapter
    grads = {"vision.a": ad.scale * (ad.b.T @ d_weff),
             "vision.b": ad.scale * (d_weff @ ad.a.T)}
    if snapshot.bridge is not None:
        grads["bridge"] = du.T @ y
    return grads


def _text_backward(snapshot: ModelSnapshot, cache, dz: np.ndarray) -> dict:
    """Gradients w.r.t. the text adapter factors from dL/dz."""
    ts, z, norms = cache
    du = _normalize_backward(dz, z, norms)
    d_weff = du.T @ ts
    ad = snapshot.text.adapter
    return {"text.a": ad.scale * (ad.b.T @ d_weff),
            "text.b": ad.scale * (d_weff @ ad.a.T)}


def contrastive_loss_and_grads(snapshot: ModelSnapshot,
                               batch: PairForward | PairBatch | Pairs
                               ) -> tuple[float, dict]:
    """Symmetric InfoNCE over the batch and its analytic gradients, one per
    trainable block, keyed like snapshot_blocks.

    The batch is given as (image, tokens) pairs, a PairBatch, or the
    PairForward that pair_forward computed for it with this snapshot, which
    a training step shares with its other losses.
    """
    n = len(batch)
    if n < 2:
        raise BatchError("contrastive loss needs a batch of at least 2")
    fwd = pair_forward(snapshot, batch)
    z_v, z_t = fwd.z_v, fwd.z_t

    tau = snapshot.temperature
    s = (z_v @ z_t.T) / tau
    diag = s.diagonal()
    # rows: image -> text, cols: text -> image
    p_row, ce_row = _softmax_and_cross_entropy(s, 1, diag)
    p_col, ce_col = _softmax_and_cross_entropy(s, 0, diag)
    loss = 0.5 * (ce_row + ce_col)
    # (p_row - I + p_col - I) / 2n, with the identity applied to the diagonal only
    g = p_row + p_col
    np.fill_diagonal(g, p_row.diagonal() - 1.0 + p_col.diagonal() - 1.0)
    g /= 2.0 * n

    dz_v = (g @ z_t) / tau
    dz_t = (g.T @ z_v) / tau
    grads = _vision_backward(snapshot, fwd.cache_v, dz_v)
    grads.update(_text_backward(snapshot, fwd.cache_t, dz_t))
    return float(loss), grads


def _softmax_and_cross_entropy(s: np.ndarray, axis: int,
                               diag: np.ndarray) -> tuple[np.ndarray, float]:
    """Softmax of s along axis, and the mean cross-entropy of the diagonal
    targets, from one max, exp and sum."""
    m = s.max(axis=axis, keepdims=True)
    e = np.exp(s - m)
    total = e.sum(axis=axis, keepdims=True)
    lse = m.reshape(-1) + np.log(total.reshape(-1))
    return e / total, float(np.add.reduce(lse - diag) / len(diag))


def sgd_step(snapshot: ModelSnapshot, grads: dict, lr: float) -> ModelSnapshot:
    """One descent step on adapters and bridge; frozen weights untouched.

    ``grads`` must hold a finite gradient for each trainable block of the
    snapshot and for no other block.
    """
    for g in grads.values():
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient entries")
    blocks = _blocks(snapshot)
    if grads.keys() != blocks.keys():
        raise ShapeError(f"gradient blocks {sorted(grads)} != the model's "
                         f"{sorted(blocks)}")
    return with_blocks(snapshot, {n: b - lr * grads[n] for n, b in blocks.items()},
                       snapshot.version)


def caption_scores(snapshot: ModelSnapshot, xs: np.ndarray,
                   bank: list[list[int]] | np.ndarray) -> np.ndarray:
    """Score matrix (len(xs), len(bank)) of image-caption alignments.

    The bank is given as token lists, or as their text_features rows.
    """
    if len(bank) == 0:
        raise EmptyBankError("caption bank is empty")
    z_v, _ = _vision_forward(snapshot, np.asarray(xs, dtype=np.float64))
    if not isinstance(bank, np.ndarray):
        bank = text_features(snapshot, [list(c) for c in bank])
    z_bank, _ = _text_tower(snapshot, bank)
    return z_v @ z_bank.T


# ---------------------------------------------------------------------------
# Checkpoint format: "FLMM" magic, u16 format version, matrices in fixed
# order (u32 rows, u32 cols, row-major f64 LE), bridge-present u8, then
# temperature f64, version u64, trailing CRC32 of everything before it.
# ---------------------------------------------------------------------------

MAGIC = b"FLMM"
FORMAT_VERSION = 1


def _pack_matrix(m: np.ndarray) -> bytes:
    rows, cols = m.shape
    return struct.pack("<II", rows, cols) + np.ascontiguousarray(m, dtype="<f8").tobytes()


def save_snapshot(snapshot: ModelSnapshot) -> bytes:
    out = [MAGIC, struct.pack("<H", FORMAT_VERSION)]
    for m in (snapshot.vision.w_base, snapshot.vision.adapter.a, snapshot.vision.adapter.b,
              snapshot.text.w_base, snapshot.text.adapter.a, snapshot.text.adapter.b,
              snapshot.token_embed):
        out.append(_pack_matrix(m))
    if snapshot.bridge is not None:
        out.append(b"\x01")
        out.append(_pack_matrix(snapshot.bridge))
    else:
        out.append(b"\x00")
    out.append(struct.pack("<d", snapshot.temperature))
    out.append(struct.pack("<Q", snapshot.version))
    body = b"".join(out)
    return body + struct.pack("<I", zlib.crc32(body))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError("truncated checkpoint")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def matrix(self) -> np.ndarray:
        rows, cols = struct.unpack("<II", self.take(8))
        flat = np.frombuffer(self.take(8 * rows * cols), dtype="<f8")
        return flat.reshape(rows, cols).astype(np.float64)


def load_snapshot(data: bytes) -> ModelSnapshot:
    if len(data) < 10:
        raise CheckpointError("checkpoint too short")
    body, crc_bytes = data[:-4], data[-4:]
    if struct.unpack("<I", crc_bytes)[0] != zlib.crc32(body):
        raise CheckpointError("checkpoint CRC mismatch")
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise CheckpointError("bad magic")
    (fmt,) = struct.unpack("<H", r.take(2))
    if fmt != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {fmt}")
    w_v, a_v, b_v, w_t, a_t, b_t, tok = (r.matrix() for _ in range(7))
    (bridge_flag,) = r.take(1)
    bridge = r.matrix() if bridge_flag else None
    (temperature,) = struct.unpack("<d", r.take(8))
    (version,) = struct.unpack("<Q", r.take(8))
    # alpha is not stored; reconstruct via the default alpha = 2 * rank convention
    rank_v, rank_t = a_v.shape[0], a_t.shape[0]
    return ModelSnapshot(
        vision=TowerParams(w_base=w_v, adapter=AdapterPair(a_v, b_v, rank_v, 2.0 * rank_v)),
        text=TowerParams(w_base=w_t, adapter=AdapterPair(a_t, b_t, rank_t, 2.0 * rank_t)),
        token_embed=tok,
        bridge=bridge,
        temperature=temperature,
        version=version,
    )


def frozen_checksum(snapshot: ModelSnapshot) -> int:
    """CRC32 over the frozen blocks; must survive any training/aggregation."""
    acc = zlib.crc32(np.ascontiguousarray(snapshot.vision.w_base, dtype="<f8").tobytes())
    acc = zlib.crc32(np.ascontiguousarray(snapshot.text.w_base, dtype="<f8").tobytes(), acc)
    return zlib.crc32(np.ascontiguousarray(snapshot.token_embed, dtype="<f8").tobytes(), acc)
