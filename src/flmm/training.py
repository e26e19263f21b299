"""Local adapter training and a direct in-memory federated driver.

The protocol-based simulator (client/server over frames) reuses the same
local_train so both paths produce identical updates for identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from flmm.aggregation import AggregationPlan, ClientUpdate, aggregate, \
    snapshot_blocks
from flmm.dataquality import SceneRecord
from flmm.fusion import compose_losses, text_anchor_loss_and_grads
from flmm.model import ModelSnapshot, PairBatch, contrastive_loss_and_grads, \
    pair_batch, pair_forward, sgd_step
from flmm.rng import SplitMix64, hash_text, mix_seed


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2
    lr: float = 1e-2
    batch_size: int = 16
    anchor_mu: float = 0.0


def trainable_records(records: list[SceneRecord]) -> list[SceneRecord]:
    """Records usable for contrastive pairs (caption present)."""
    return [r for r in records if r.caption]


def local_train(model: ModelSnapshot, records: list[SceneRecord], cfg: TrainConfig,
                seed: int) -> ModelSnapshot:
    """Epochs of SGD on shuffled minibatches; deterministic given the seed.

    Images and text features of the whole usable corpus are prepared once
    (token_embed is frozen); each step gathers its rows, runs both towers
    once with pair_forward, and hands that PairForward to the contrastive
    and the anchor loss. Each loss backpropagates its own dz (summing the dz
    first would round differently), and compose_losses adds the gradients.
    """
    usable = trainable_records(records)
    if len(usable) < 2:
        return model  # no batch of 2 can be drawn
    corpus = pair_batch(model, [(r.image, r.caption) for r in usable])
    rng = SplitMix64(seed)
    for _ in range(cfg.epochs):
        order = list(range(len(usable)))
        rng.shuffle(order)
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if len(idx) < 2:
                continue  # contrastive loss undefined below 2 pairs
            fwd = pair_forward(model, PairBatch(corpus.xs[idx], corpus.ts[idx]))
            parts = [contrastive_loss_and_grads(model, fwd)]
            if cfg.anchor_mu > 0:
                parts.append(text_anchor_loss_and_grads(model, fwd, cfg.anchor_mu))
            _, grads = compose_losses(parts)
            model = sgd_step(model, grads, cfg.lr)
    return model


def make_update(before: ModelSnapshot, after: ModelSnapshot, client_id: str,
                sample_count: int, round_num: int) -> ClientUpdate:
    """Adapter deltas between two snapshots; the upload payload."""
    b0 = snapshot_blocks(before)
    b1 = snapshot_blocks(after)
    deltas = {name: b1[name] - b0[name] for name in b0}
    return ClientUpdate(client_id=client_id, base_version=before.version,
                        deltas=deltas, sample_count=max(1, sample_count),
                        submitted_round=round_num)


def federated_train(model: ModelSnapshot, corpora_by_party: dict, cfg: TrainConfig,
                    rounds: int, plan: AggregationPlan, seed: int) -> ModelSnapshot:
    """Synchronous federated rounds over in-memory parties; each round's
    updates are fused by ``aggregate`` under ``plan``."""
    for r in range(rounds):
        updates = []
        for party in sorted(corpora_by_party):
            records = trainable_records(corpora_by_party[party])
            if len(records) < 2:
                continue
            trained = local_train(model, records, cfg,
                                  mix_seed(seed, r, hash_text(party)))
            updates.append(make_update(model, trained, party, len(records), r))
        if updates:
            model = aggregate(plan, model, updates, {model.version: model})
    return model
