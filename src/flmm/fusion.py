"""Fusion losses that local training composes with the contrastive loss.

The text-anchor loss pulls the vision tower toward (stop-gradient) text
embeddings; local_train adds it for a party whose anchor_mu is positive.
The distillation loss pulls embeddings of a public probe set toward a
consensus map. It is a library function: no run builds a probe set or a
consensus, so no run applies it.

Each loss returns its gradients as a block dict, keyed like
``model.snapshot_blocks``; compose_losses sums them by block name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flmm.errors import EmptyProbeError, IdentityError, ShapeError
from flmm.model import (
    ModelSnapshot,
    PairBatch,
    PairForward,
    Pairs,
    _blocks,
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
    embeddings: dict  # item_id -> unit-norm target; items absent add no loss


def distillation_loss_and_grads(snapshot: ModelSnapshot, probe: ProbeSet,
                                consensus: ConsensusMap, lam: float
                                ) -> tuple[float, dict]:
    """lam * mean ||z_item - c_item||^2 over the items the consensus holds."""
    if consensus.probe_id != probe.probe_id:
        raise IdentityError(f"consensus for {consensus.probe_id!r}, probe is {probe.probe_id!r}")
    grads = _zero_grads(snapshot)
    if lam == 0.0:
        return 0.0, grads

    img_items = [it for it in probe.items
                 if it.modality == "image" and it.item_id in consensus.embeddings]
    txt_items = [it for it in probe.items
                 if it.modality == "text" and it.item_id in consensus.embeddings]
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
        for n, g in _vision_backward(snapshot, cache, dz).items():
            grads[n] = grads[n] + g
    if txt_items:
        z, cache = _text_forward(snapshot, [list(it.tokens) for it in txt_items])
        c = np.stack([consensus.embeddings[it.item_id] for it in txt_items])
        diff = z - c
        loss += float(np.sum(diff * diff))
        dz = (2.0 * lam / m) * diff
        for n, g in _text_backward(snapshot, cache, dz).items():
            grads[n] = grads[n] + g
    return lam * loss / m, grads


def _zero_grads(snapshot: ModelSnapshot) -> dict:
    return {n: np.zeros_like(m) for n, m in _blocks(snapshot).items()}


def text_anchor_loss_and_grads(snapshot: ModelSnapshot,
                               batch: PairForward | PairBatch | Pairs,
                               mu: float) -> tuple[float, dict]:
    """mu * mean ||z_v - stopgrad(z_t)||^2; text-side gradients are zero.

    The batch is given as (image, tokens) pairs, a PairBatch, or the
    PairForward of this snapshot that a training step already computed for
    its contrastive loss, whose z_v, vision cache and z_t are reused.
    """
    if not batch:
        raise ShapeError("empty batch for anchor loss")
    if mu == 0.0:
        return 0.0, _zero_grads(snapshot)
    fwd = pair_forward(snapshot, batch)
    n = len(fwd)
    diff = fwd.z_v - fwd.z_t
    loss = mu * float(np.add.reduce(np.add.reduce(diff * diff, axis=1)) / n)
    dz_v = (2.0 * mu / n) * diff
    grads = _vision_backward(snapshot, fwd.cache_v, dz_v)
    # explicit zeros, so compose_losses adds every block of every part
    grads["text.a"] = np.zeros_like(snapshot.text.adapter.a)
    grads["text.b"] = np.zeros_like(snapshot.text.adapter.b)
    return loss, grads


def compose_losses(parts: list[tuple[float, dict]]) -> tuple[float, dict]:
    """Sum of loss/gradient pairs, the gradients added block by block in
    the order of the parts. Every part must hold the same blocks."""
    total_loss = 0.0
    total_grads: dict | None = None
    for loss, g in parts:
        total_loss += loss
        if total_grads is None:
            total_grads = g
        elif g.keys() != total_grads.keys():
            raise ShapeError(f"gradient blocks {sorted(g)} != {sorted(total_grads)}")
        else:
            total_grads = {n: m + g[n] for n, m in total_grads.items()}
    if total_grads is None:
        raise ShapeError("no parts to compose")
    return total_loss, total_grads

