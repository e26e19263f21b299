"""Two-tower vision-language toy model with frozen bases and low-rank adapters.

Only the adapter factors (and the optional bridge) are trainable; everything
else is frozen at construction. All operations are pure: they return new
values and never mutate a snapshot.

The trainable blocks have one form everywhere: a dict from block name
(BLOCK_NAMES; "bridge" only when the model has one) to its matrix. A
snapshot keeps its own blocks in that form, read-only, beside its frozen
weights; snapshot_blocks copies them, with_blocks builds a snapshot from
them, and a gradient, an update's deltas and a fused result are all such
dicts. The wire and round-log form of an update is protocol.update_message.

A snapshot may also carry every trainable block as a (P, r, c) stack: P
models that share the frozen weights, one per row. The forward pass, both
towers' backward passes, contrastive_loss_and_grads and sgd_step take that
leading row axis as they come: every matmul, transpose and reduction acts on
the last two axes, so each row gets the bits it would get alone. A single
model is the case with no leading axis, and its loss is a float; a stack's
losses are a (P,) array. Training builds stacks (training.local_train given
a list of corpora), and so does coalition replay
(contribution.replay_coalitions), whose stack caption_scores scores in one
call; stack_rows takes rows out of a stack. save_snapshot, like the wire and
round-log encoders, refuses a stack (ShapeError).

The LoRA scale alpha / rank is the constant LORA_SCALE: checkpoints do not
store alpha, and every snapshot uses alpha = 2 * rank.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

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

LORA_SCALE = 2.0  # alpha / rank of every adapter; see the module docstring

BLOCK_NAMES = ("vision.a", "vision.b", "text.a", "text.b", "bridge")


@dataclass(frozen=True)
class ModelSnapshot:
    """Frozen tower bases and token embeddings, and the trainable blocks.

    ``blocks`` is a read-only mapping from block name to matrix, in
    BLOCK_NAMES order, with "bridge" only when the model has one. A tower's
    adapter delta is LORA_SCALE * b @ a, and its rank is the row count of
    its a factor. Every block's shape is checked against the frozen weights
    here. In a stack every block is (P, r, c) with the same P; see the
    module docstring.
    """

    w_v: np.ndarray  # (d_emb, d_v)
    w_t: np.ndarray  # (d_emb, d_t)
    token_embed: np.ndarray  # (vocab, d_t)
    blocks: Mapping[str, np.ndarray]
    temperature: float
    version: int = 0

    def __post_init__(self):
        d_emb, d_t = self.w_t.shape
        d_v = self.w_v.shape[1]
        if self.w_v.shape[0] != d_emb or self.token_embed.shape[1] != d_t:
            raise ShapeError(f"frozen weights {self.w_v.shape}, {self.w_t.shape} and "
                             f"{self.token_embed.shape} do not fit together")
        blocks = self.blocks
        a_v, a_t = blocks.get("vision.a"), blocks.get("text.a")
        r_v = a_v.shape[-2] if a_v is not None else 0
        r_t = a_t.shape[-2] if a_t is not None else 0
        if not (1 <= r_v <= min(d_v, d_emb) and 1 <= r_t <= min(d_t, d_emb)):
            raise ShapeError(f"adapter ranks {r_v} (vision), {r_t} (text) outside "
                             f"[1, min(d_in, {d_emb})] for d_in {d_v}, {d_t}")
        rows = a_v.shape[:-2]  # () for one model, (P,) for a stack
        want = {"vision.a": rows + (r_v, d_v), "vision.b": rows + (d_emb, r_v),
                "text.a": rows + (r_t, d_t), "text.b": rows + (d_emb, r_t)}
        if "bridge" in blocks:
            want["bridge"] = rows + (d_emb, d_emb)
        got = {n: m.shape for n, m in blocks.items()}
        if got != want:
            raise ShapeError(f"trainable blocks {got} do not fit the frozen weights: "
                             f"want {want}")
        # want is in BLOCK_NAMES order
        object.__setattr__(self, "blocks", MappingProxyType({n: blocks[n] for n in want}))


def check_unstacked(blocks: Mapping, what: str) -> None:
    """Raise ShapeError unless every block is one matrix, not a stack."""
    for name, m in blocks.items():
        if m.ndim != 2:
            raise ShapeError(f"{what}: block {name!r} has shape {m.shape}, "
                             f"not one matrix")


def blocks_field(snapshot: ModelSnapshot) -> str:
    """A round record's ``blocks=`` field: each trainable block's CRC."""
    check_unstacked(snapshot.blocks, "round record")
    return ";".join(
        f"{name}:{zlib.crc32(np.ascontiguousarray(m, dtype='<f8').tobytes()):08x}"
        for name, m in sorted(snapshot.blocks.items()))


def snapshot_blocks(snapshot: ModelSnapshot) -> dict:
    """Trainable blocks of a snapshot, copied."""
    return {n: m.copy() for n, m in snapshot.blocks.items()}


def with_blocks(snapshot: ModelSnapshot, blocks: dict, version: int) -> ModelSnapshot:
    """The snapshot at ``version``, with each named trainable block replaced;
    frozen weights and temperature are shared with ``snapshot``."""
    return ModelSnapshot(snapshot.w_v, snapshot.w_t, snapshot.token_embed,
                         {**snapshot.blocks, **blocks}, snapshot.temperature, version)


def stack_rows(stack: ModelSnapshot, rows) -> ModelSnapshot:
    """Rows of a stack: an int index gives that row's model, with no leading
    axis; a slice or an index array gives a stack of those rows."""
    return with_blocks(stack, {n: m[rows] for n, m in stack.blocks.items()},
                       stack.version)


def init_snapshot(seed: int, d_v: int = D_V, d_t: int = D_T, d_emb: int = D_EMB,
                  rank: int = RANK, vocab: int = VOCAB,
                  temperature: float = TEMPERATURE, with_bridge: bool = True) -> ModelSnapshot:
    """Seeded 'pretrained' snapshot: random frozen bases, zero-delta adapters."""
    rng = SplitMix64(seed)
    w_v = rng.normal_matrix(d_emb, d_v, std=1.0 / np.sqrt(d_v))
    w_t = rng.normal_matrix(d_emb, d_t, std=1.0 / np.sqrt(d_t))
    tok = rng.normal_matrix(vocab, d_t, std=1.0)
    # fresh adapters: a ~ N(0, 0.02^2) and b = 0, so each delta starts at zero
    blocks = {"vision.a": rng.normal_matrix(rank, d_v, std=0.02),
              "vision.b": np.zeros((d_emb, rank)),
              "text.a": rng.normal_matrix(rank, d_t, std=0.02),
              "text.b": np.zeros((d_emb, rank))}
    if with_bridge:
        blocks["bridge"] = np.eye(d_emb)
    return ModelSnapshot(w_v, w_t, tok, blocks, temperature)


def check_token_embed(token_embed: np.ndarray, snapshot: ModelSnapshot,
                      what: str) -> None:
    """Raise IdentityError unless the snapshot's token_embed equals the one
    ``what`` was prepared from."""
    if token_embed is not snapshot.token_embed \
            and not np.array_equal(token_embed, snapshot.token_embed):
        raise IdentityError(f"{what} was built from a different token_embed")


def _normalize_rows(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the arithmetic np.linalg.norm(u, axis=-1) runs, without its dispatch
    norms = np.sqrt(np.add.reduce(u * u, axis=-1))
    if (norms == 0.0).any():
        raise DegenerateInputError("zero vector before normalization")
    return u / norms[..., None], norms


def _effective(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A tower's weight: its frozen base plus its adapter delta."""
    return w + LORA_SCALE * (b @ a)


def _vision_forward(snapshot: ModelSnapshot, xs: np.ndarray):
    """Returns (z, cache) for a batch of image vectors, rows of xs."""
    if xs.shape[-1] != snapshot.w_v.shape[1]:
        raise ShapeError(f"image dim {xs.shape[-1]} != tower input {snapshot.w_v.shape[1]}")
    blocks = snapshot.blocks
    y = xs @ _effective(snapshot.w_v, blocks["vision.a"], blocks["vision.b"]).swapaxes(-1, -2)
    bridge = blocks.get("bridge")
    u = y @ bridge.swapaxes(-1, -2) if bridge is not None else y
    z, norms = _normalize_rows(u)
    return z, (xs, y, z, norms)


def _text_tower(snapshot: ModelSnapshot, ts: np.ndarray):
    """Returns (z, cache) for rows of text_features."""
    blocks = snapshot.blocks
    y = ts @ _effective(snapshot.w_t, blocks["text.a"], blocks["text.b"]).swapaxes(-1, -2)
    z, norms = _normalize_rows(y)
    return z, (ts, z, norms)


def text_features(snapshot: ModelSnapshot, token_lists: list[list[int]]) -> np.ndarray:
    """Text-tower inputs: row i is the mean embedding of token_lists[i]'s ids.

    token_embed is frozen, so these rows are fixed for a corpus. The vocabulary
    is checked once over all tokens; the first bad caption in order decides the
    error. Captions of one length are averaged together, which sums the same
    rows in the same order as a per-caption mean, so the bits are the same.
    """
    vocab = snapshot.token_embed.shape[0]
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
    captions' text features. A stacked model's batch is (P, n, d): row i's
    n pairs go to model i. Its length is n, the pairs per model."""

    xs: np.ndarray  # (n, d_v)
    ts: np.ndarray  # (n, d_t), rows of text_features

    def __len__(self) -> int:
        return self.xs.shape[-2]


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
        return self.z_v.shape[-2]


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
    dot = np.add.reduce(dz * z, axis=-1, keepdims=True)
    return (dz - dot * z) / norms[..., None]


def _vision_backward(snapshot: ModelSnapshot, cache, dz: np.ndarray) -> dict:
    """Gradients w.r.t. the vision adapter factors, and the bridge when the
    model has one, from dL/dz."""
    xs, y, z, norms = cache
    du = _normalize_backward(dz, z, norms)
    bridge = snapshot.blocks.get("bridge")
    dy = du if bridge is None else du @ bridge
    grads = _factor_grads(snapshot.blocks, "vision.a", "vision.b",
                          dy.swapaxes(-1, -2) @ xs)
    if bridge is not None:
        grads["bridge"] = du.swapaxes(-1, -2) @ y
    return grads


def _text_backward(snapshot: ModelSnapshot, cache, dz: np.ndarray) -> dict:
    """Gradients w.r.t. the text adapter factors from dL/dz."""
    ts, z, norms = cache
    return _factor_grads(snapshot.blocks, "text.a", "text.b",
                         _normalize_backward(dz, z, norms).swapaxes(-1, -2) @ ts)


def _factor_grads(blocks, a_name: str, b_name: str, d_weff: np.ndarray) -> dict:
    """Gradients w.r.t. a tower's adapter factors from dL/d(effective weight)."""
    return {a_name: LORA_SCALE * (blocks[b_name].swapaxes(-1, -2) @ d_weff),
            b_name: LORA_SCALE * (d_weff @ blocks[a_name].swapaxes(-1, -2))}


def contrastive_loss_and_grads(snapshot: ModelSnapshot,
                               batch: PairForward | PairBatch | Pairs
                               ) -> tuple[float, dict]:
    """Symmetric InfoNCE over the batch and its analytic gradients, one per
    trainable block, keyed like snapshot_blocks.

    The batch is given as (image, tokens) pairs, a PairBatch, or the
    PairForward that pair_forward computed for it with this snapshot, which
    a training step shares with its other losses. A stacked snapshot's
    loss is one per row.
    """
    n = len(batch)
    if n < 2:
        raise BatchError("contrastive loss needs a batch of at least 2")
    fwd = pair_forward(snapshot, batch)
    z_v, z_t = fwd.z_v, fwd.z_t

    tau = snapshot.temperature
    s = (z_v @ z_t.swapaxes(-1, -2)) / tau
    diag = s.diagonal(0, -2, -1)
    # rows: image -> text, cols: text -> image
    p_row, ce_row = _softmax_and_cross_entropy(s, -1, diag)
    p_col, ce_col = _softmax_and_cross_entropy(s, -2, diag)
    loss = 0.5 * (ce_row + ce_col)
    # (p_row - I + p_col - I) / 2n, with the identity applied to the diagonal only;
    # g is new and contiguous, so each matrix flattened is a view whose every
    # (n + 1)-th entry is on the diagonal
    g = p_row + p_col
    g.reshape(g.shape[:-2] + (n * n,))[..., ::n + 1] = \
        p_row.diagonal(0, -2, -1) - 1.0 + p_col.diagonal(0, -2, -1) - 1.0
    g /= 2.0 * n

    dz_v = (g @ z_t) / tau
    dz_t = (g.swapaxes(-1, -2) @ z_v) / tau
    grads = _vision_backward(snapshot, fwd.cache_v, dz_v)
    grads.update(_text_backward(snapshot, fwd.cache_t, dz_t))
    return loss_value(loss), grads


def loss_value(loss):
    """A single model's loss as a float; a stack's per-row losses as they are."""
    return float(loss) if loss.ndim == 0 else loss


def _softmax_and_cross_entropy(s: np.ndarray, axis: int,
                               diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax of s along axis (-1 or -2), and the mean cross-entropy of the
    diagonal targets, from one max, exp and sum."""
    m = s.max(axis=axis, keepdims=True)
    e = np.exp(s - m)
    total = e.sum(axis=axis, keepdims=True)
    lse = m.reshape(diag.shape) + np.log(total.reshape(diag.shape))
    return e / total, np.add.reduce(lse - diag, axis=-1) / diag.shape[-1]


def sgd_step(snapshot: ModelSnapshot, grads: dict, lr: float) -> ModelSnapshot:
    """One descent step on adapters and bridge; frozen weights untouched.

    ``grads`` must hold a finite gradient for each trainable block of the
    snapshot and for no other block; a stack's are stacked like its blocks.
    """
    for g in grads.values():
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient entries")
    blocks = snapshot.blocks
    if grads.keys() != blocks.keys():
        raise ShapeError(f"gradient blocks {sorted(grads)} != the model's "
                         f"{sorted(blocks)}")
    return with_blocks(snapshot, {n: b - lr * grads[n] for n, b in blocks.items()},
                       snapshot.version)


def caption_scores(snapshot: ModelSnapshot, xs: np.ndarray,
                   bank: list[list[int]] | np.ndarray) -> np.ndarray:
    """Score matrix (len(xs), len(bank)) of image-caption alignments; a
    stack of P models gives (P, len(xs), len(bank)), row i scored by model i.

    The bank is given as token lists, or as their text_features rows.
    """
    if len(bank) == 0:
        raise EmptyBankError("caption bank is empty")
    z_v, _ = _vision_forward(snapshot, np.asarray(xs, dtype=np.float64))
    if not isinstance(bank, np.ndarray):
        bank = text_features(snapshot, [list(c) for c in bank])
    z_bank, _ = _text_tower(snapshot, bank)
    return z_v @ z_bank.swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# Checkpoint format: "FLMM" magic, u16 format version, matrices in fixed
# order (u32 rows, u32 cols, row-major f64 LE), bridge-present u8, then
# temperature f64, version u64, trailing CRC32 of everything before it.
# ---------------------------------------------------------------------------

MAGIC = b"FLMM"
FORMAT_VERSION = 1


def pack_matrix(m: np.ndarray) -> bytes:
    """A matrix's bytes in a checkpoint and in a wire body."""
    rows, cols = m.shape
    return struct.pack("<II", rows, cols) + np.ascontiguousarray(m, dtype="<f8").tobytes()


def save_snapshot(snapshot: ModelSnapshot) -> bytes:
    blocks = snapshot.blocks
    check_unstacked(blocks, "checkpoint")
    out = [MAGIC, struct.pack("<H", FORMAT_VERSION)]
    for m in (snapshot.w_v, blocks["vision.a"], blocks["vision.b"],
              snapshot.w_t, blocks["text.a"], blocks["text.b"], snapshot.token_embed):
        out.append(pack_matrix(m))
    if "bridge" in blocks:
        out.append(b"\x01")
        out.append(pack_matrix(blocks["bridge"]))
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
    blocks = {"vision.a": a_v, "vision.b": b_v, "text.a": a_t, "text.b": b_t}
    (bridge_flag,) = r.take(1)
    if bridge_flag:
        blocks["bridge"] = r.matrix()
    (temperature,) = struct.unpack("<d", r.take(8))
    (version,) = struct.unpack("<Q", r.take(8))
    if r.pos != len(body):
        raise CheckpointError(f"malformed checkpoint: {len(body) - r.pos} bytes "
                              f"after the version field")
    try:
        return ModelSnapshot(w_v, w_t, tok, blocks, temperature, version)
    except ShapeError as e:
        raise CheckpointError(f"malformed checkpoint: {e}") from e


def frozen_checksum(snapshot: ModelSnapshot) -> int:
    """CRC32 over the frozen blocks; must survive any training/aggregation."""
    acc = zlib.crc32(np.ascontiguousarray(snapshot.w_v, dtype="<f8").tobytes())
    acc = zlib.crc32(np.ascontiguousarray(snapshot.w_t, dtype="<f8").tobytes(), acc)
    return zlib.crc32(np.ascontiguousarray(snapshot.token_embed, dtype="<f8").tobytes(), acc)
