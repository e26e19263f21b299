"""Heterogeneous-fusion strategies as composable loss augmentations.

Clients with different modality coverage are pulled toward a shared
representation through a public probe set: everyone embeds the probe items
they can, the server averages the covering embeddings into a consensus, and
clients regularize toward it. A text-anchor loss aligns the vision tower to
(stop-gradient) text targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flmm.errors import CoverageError, EmptyProbeError, IdentityError, ShapeError
from flmm.model import (
    GradientSet,
    ModelSnapshot,
    PairBatch,
    PairForward,
    Pairs,
    _text_backward,
    _text_forward,
    _vision_backward,
    _vision_forward,
    pair_forward,
)


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
    embeddings: dict  # item_id -> unit-norm vector; degenerate items excluded
    degenerate: tuple[str, ...] = ()


def client_probe_embeddings(snapshot: ModelSnapshot, probe: ProbeSet,
                            modalities: set[str] | None = None
                            ) -> tuple[list[np.ndarray | None], list[bool]]:
    """Embeddings for the probe items this client can encode.

    Returns (vectors, skip_mask); vectors[i] is None exactly where
    skip_mask[i] is True (modality not covered).
    """
    if modalities is None:
        modalities = {"image", "text"}
    vectors: list[np.ndarray | None] = []
    skip: list[bool] = []
    for item in probe.items:
        if item.modality not in modalities:
            vectors.append(None)
            skip.append(True)
        elif item.modality == "image":
            z, _ = _vision_forward(snapshot, np.asarray(item.image)[None, :])
            vectors.append(z[0])
            skip.append(False)
        else:
            z, _ = _text_forward(snapshot, [list(item.tokens)])
            vectors.append(z[0])
            skip.append(False)
    return vectors, skip


def build_consensus(probe: ProbeSet, round_num: int,
                    embeddings_by_client: dict) -> ConsensusMap:
    """Renormalized mean of covering clients' embeddings, per probe item.

    embeddings_by_client: client_id -> (vectors, skip_mask) as produced by
    client_probe_embeddings. Items whose mean collapses to zero are reported
    as degenerate and excluded rather than failing the round.
    """
    consensus: dict = {}
    degenerate: list[str] = []
    for i, item in enumerate(probe.items):
        covering = [vecs[i] for vecs, mask in embeddings_by_client.values() if not mask[i]]
        if not covering:
            raise CoverageError(f"probe item {item.item_id!r} covered by no client")
        mean = np.mean(covering, axis=0)
        norm = np.linalg.norm(mean)
        if norm == 0.0:
            degenerate.append(item.item_id)
        else:
            consensus[item.item_id] = mean / norm
    return ConsensusMap(probe_id=probe.probe_id, round=round_num,
                        embeddings=consensus, degenerate=tuple(degenerate))


def distillation_loss_and_grads(snapshot: ModelSnapshot, probe: ProbeSet,
                                consensus: ConsensusMap, lam: float,
                                modalities: set[str] | None = None
                                ) -> tuple[float, GradientSet]:
    """lam * mean ||z_item - c_item||^2 over covered, non-degenerate items."""
    if consensus.probe_id != probe.probe_id:
        raise IdentityError(f"consensus for {consensus.probe_id!r}, probe is {probe.probe_id!r}")
    if modalities is None:
        modalities = {"image", "text"}
    grads = GradientSet.zeros_like(snapshot)
    if lam == 0.0:
        return 0.0, grads

    img_items = [it for it in probe.items
                 if it.modality == "image" and "image" in modalities
                 and it.item_id in consensus.embeddings]
    txt_items = [it for it in probe.items
                 if it.modality == "text" and "text" in modalities
                 and it.item_id in consensus.embeddings]
    m = len(img_items) + len(txt_items)
    if m == 0:
        return 0.0, grads

    loss = 0.0
    if img_items:
        xs = np.stack([it.image for it in img_items])
        z, cache = _vision_forward(snapshot, xs)
        c = np.stack([consensus.embeddings[it.item_id] for it in img_items])
        diff = z - c
        loss += float(np.sum(diff * diff))
        dz = (2.0 * lam / m) * diff
        dva, dvb, dbr = _vision_backward(snapshot, cache, dz)
        grads = grads.add(GradientSet(dva, dvb, np.zeros_like(grads.d_text_a),
                                      np.zeros_like(grads.d_text_b), dbr))
    if txt_items:
        z, cache = _text_forward(snapshot, [list(it.tokens) for it in txt_items])
        c = np.stack([consensus.embeddings[it.item_id] for it in txt_items])
        diff = z - c
        loss += float(np.sum(diff * diff))
        dz = (2.0 * lam / m) * diff
        dta, dtb = _text_backward(snapshot, cache, dz)
        grads = grads.add(GradientSet(np.zeros_like(grads.d_vision_a),
                                      np.zeros_like(grads.d_vision_b), dta, dtb,
                                      None if grads.d_bridge is None
                                      else np.zeros_like(grads.d_bridge)))
    return lam * loss / m, grads


def text_anchor_loss_and_grads(snapshot: ModelSnapshot,
                               batch: PairForward | PairBatch | Pairs,
                               mu: float) -> tuple[float, GradientSet]:
    """mu * mean ||z_v - stopgrad(z_t)||^2; text-side gradients are zero.

    The batch is given as (image, tokens) pairs, a PairBatch, or the
    PairForward of this snapshot that a training step already computed for
    its contrastive loss, whose z_v, vision cache and z_t are reused.
    """
    if not batch:
        raise ShapeError("empty batch for anchor loss")
    grads = GradientSet.zeros_like(snapshot)
    if mu == 0.0:
        return 0.0, grads
    fwd = pair_forward(snapshot, batch)
    n = len(fwd)
    diff = fwd.z_v - fwd.z_t
    loss = mu * float(np.mean(np.sum(diff * diff, axis=1)))
    dz_v = (2.0 * mu / n) * diff
    dva, dvb, dbr = _vision_backward(snapshot, fwd.cache_v, dz_v)
    return loss, GradientSet(dva, dvb, grads.d_text_a, grads.d_text_b, dbr)


def compose_losses(weights: list[float],
                   parts: list[tuple[float, GradientSet]]) -> tuple[float, GradientSet]:
    """Weighted sum of loss/gradient pairs."""
    if len(weights) != len(parts):
        raise ShapeError("one weight per part required")
    total_loss = 0.0
    total_grads: GradientSet | None = None
    for w, (loss, g) in zip(weights, parts):
        total_loss += w * loss
        scaled = g.scaled(w)
        total_grads = scaled if total_grads is None else total_grads.add(scaled)
    if total_grads is None:
        raise ShapeError("no parts to compose")
    return total_loss, total_grads


# --- probe file format: `IMG <id> <comma-separated floats>` or
# --- `TXT <id> <space-separated token ids>` per line.

def save_probe(probe: ProbeSet) -> str:
    lines = []
    for item in probe.items:
        if item.modality == "image":
            lines.append(f"IMG {item.item_id} " + ",".join(repr(float(v)) for v in item.image))
        else:
            lines.append(f"TXT {item.item_id} " + " ".join(str(t) for t in item.tokens))
    return "\n".join(lines) + "\n"


def load_probe(probe_id: str, text: str) -> ProbeSet:
    items = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        kind, item_id, payload = line.split(" ", 2)
        if kind == "IMG":
            vec = np.array([float(v) for v in payload.split(",")])
            items.append(ProbeItem("image", item_id, image=vec))
        elif kind == "TXT":
            items.append(ProbeItem("text", item_id,
                                   tokens=tuple(int(t) for t in payload.split())))
        else:
            raise EmptyProbeError(f"unknown probe line kind {kind!r}")
    return ProbeSet(probe_id=probe_id, items=tuple(items))
