"""Fusion losses that local training composes with the contrastive loss.

Every loss here is a pull: mean squared distance between a tower's
embeddings and a stop-gradient target, whose gradients come from one
kernel. The distillation loss pulls embeddings of a public probe set toward
a consensus map. It is a library function: no run builds a probe set or a
consensus, so no run applies it. The text-anchor loss is the image half of
it with the batch's own text embeddings as the consensus: it pulls the
vision tower toward them, and local_train adds it for the rows whose
anchor_mu is positive.

Each loss returns its gradients as a block dict, keyed like
``model.snapshot_blocks``; compose_losses sums them by block name. The
text-anchor loss and compose_losses also take a stacked snapshot (see
``model``): the losses are then one per row and the gradients are stacked,
and the anchor's mu may be one per row.
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
    _text_backward,
    _text_forward,
    _vision_backward,
    _vision_forward,
    loss_value,
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
        for n, g in _pull(snapshot, backward, cache, diff, 2.0 * lam / m).items():
            grads[n] = grads[n] + g
    return (lam * loss / m if m else 0.0), grads


def _pull(snapshot: ModelSnapshot, backward, cache, diff: np.ndarray, scale) -> dict:
    """The pull kernel: a tower's gradients, through its ``backward`` pass,
    of scale / 2 * ||diff||^2, diff being its embeddings minus a target."""
    return backward(snapshot, cache, scale * diff)


def _zero_grads(snapshot: ModelSnapshot) -> dict:
    return {n: np.zeros_like(m) for n, m in snapshot.blocks.items()}


def text_anchor_loss_and_grads(snapshot: ModelSnapshot,
                               batch: PairForward | PairBatch | Pairs,
                               mu: float | np.ndarray) -> tuple[float, dict]:
    """mu * mean ||z_v - stopgrad(z_t)||^2; text-side gradients are zero.

    The batch is given as (image, tokens) pairs, a PairBatch, or the
    PairForward of this snapshot that a training step already computed for
    its contrastive loss, whose z_v, vision cache and z_t are reused. For a
    stacked snapshot mu is one float for every row or a (P,) array, one per
    row.
    """
    if not batch:
        raise ShapeError("empty batch for anchor loss")
    fwd = pair_forward(snapshot, batch)
    n = len(fwd)
    diff = fwd.z_v - fwd.z_t
    loss = mu * loss_value(np.add.reduce(np.add.reduce(diff * diff, axis=-1), axis=-1) / n)
    grads = _pull(snapshot, _vision_backward, fwd.cache_v, diff,
                  2.0 * np.asarray(mu)[..., None, None] / n)
    # explicit zeros, so compose_losses adds every block of every part
    grads.update((name, np.zeros_like(snapshot.blocks[name])) for name in ("text.a", "text.b"))
    return loss, grads


def compose_losses(parts: list[tuple[float, dict]]) -> tuple[float, dict]:
    """Sum of loss/gradient pairs, the gradients added block by block in
    the order of the parts. Every part must hold the same blocks. Losses
    and gradients of a stack add row by row."""
    if not parts:
        raise ShapeError("no parts to compose")
    total_loss, total_grads = 0.0, None
    for loss, g in parts:
        if total_grads is not None and g.keys() != total_grads.keys():
            raise ShapeError(f"gradient blocks {sorted(g)} != {sorted(total_grads)}")
        total_loss += loss
        total_grads = g if total_grads is None else \
            {n: m + g[n] for n, m in total_grads.items()}
    return total_loss, total_grads
