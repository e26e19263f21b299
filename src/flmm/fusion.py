"""Fusion losses that local training composes with the contrastive loss.

The text-anchor loss is a pull: the mean squared distance between the
batch's image embeddings and its own text embeddings, taken as a
stop-gradient target, so only the vision tower moves. local_train adds it
for the rows whose anchor_mu is positive. (Distillation toward a consensus
over a public probe set, the same pull over both towers, is no run's loss;
``tests/support.py`` keeps it as an oracle.)

Each loss returns its gradients as a block dict, keyed like
``model.snapshot_blocks``; compose_losses sums them by block name. The
text-anchor loss and compose_losses also take a stacked snapshot (see
``model``): the losses are then one per row and the gradients are stacked,
and the anchor's mu may be one per row.
"""

from __future__ import annotations

import numpy as np

from flmm.errors import ShapeError
from flmm.model import (
    ModelSnapshot,
    PairBatch,
    PairForward,
    Pairs,
    _vision_backward,
    loss_value,
    pair_forward,
)


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
    grads = _vision_backward(snapshot, fwd.cache_v,
                             (2.0 * np.asarray(mu)[..., None, None] / n) * diff)
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
