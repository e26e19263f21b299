"""Local adapter training and a direct in-memory federated driver.

The protocol-based simulator (client/server over frames) reuses the same
local_train so both paths produce identical updates for identical seeds.

A corpus is trained on in its prepared form, a TrainingSet: its usable
records with their images and text features stacked. token_embed is frozen,
so a party prepares its corpus once and trains every model that shares that
token_embed on it: a ClientAgent once per base, federated_train once per
call. local_train also takes a record list and prepares it for that call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flmm.aggregation import AggregationPlan, ClientUpdate, aggregate
from flmm.dataquality import SceneRecord
from flmm.fusion import compose_losses, text_anchor_loss_and_grads
from flmm.model import ModelSnapshot, PairBatch, check_token_embed, \
    contrastive_loss_and_grads, pair_batch, pair_forward, sgd_step
from flmm.rng import SplitMix64, hash_text, mix_seed


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2
    lr: float = 1e-2
    batch_size: int = 16
    anchor_mu: float = 0.0


@dataclass(frozen=True)
class TrainingSet:
    """A corpus prepared for local_train: its usable records, and their images
    and text features stacked as one PairBatch.

    One set serves every model that shares the token_embed it was built
    from; training any other model on it raises IdentityError.
    """

    records: list  # the usable records, in corpus order
    pairs: PairBatch | None  # None below 2 records: no batch can be drawn
    token_embed: np.ndarray

    def __len__(self) -> int:
        return len(self.records)


def trainable_records(records: TrainingSet | list[SceneRecord]) -> list[SceneRecord]:
    """Records usable for contrastive pairs (caption present); a TrainingSet
    holds only those."""
    if isinstance(records, TrainingSet):
        return records.records
    return [r for r in records if r.caption]


def training_set(model: ModelSnapshot,
                 records: TrainingSet | list[SceneRecord]) -> TrainingSet:
    """The prepared form of a corpus; a record list is converted, and a set is
    checked against the model's token_embed.

    Every usable caption is checked against the vocabulary here, before any
    step; a corpus with fewer than 2 usable records is never featurized.
    """
    if isinstance(records, TrainingSet):
        check_token_embed(records.token_embed, model, "training set")
        return records
    usable = trainable_records(records)
    pairs = pair_batch(model, [(r.image, r.caption) for r in usable]) \
        if len(usable) >= 2 else None
    return TrainingSet(usable, pairs, model.token_embed)


def local_train(model: ModelSnapshot, records: TrainingSet | list[SceneRecord],
                cfg: TrainConfig, seed: int) -> ModelSnapshot:
    """Epochs of SGD on shuffled minibatches; deterministic given the seed.

    ``records`` is the corpus's TrainingSet, prepared once per corpus, or a
    record list, which is prepared for this call. Each epoch gathers its
    shuffled rows once; each step takes a contiguous slice of them, runs
    both towers once with pair_forward, and hands that PairForward to the
    contrastive and the anchor loss. Each loss backpropagates its own dz
    (summing the dz first would round differently), and compose_losses adds
    the gradients.
    """
    data = training_set(model, records)
    n = len(data)
    if n < 2:
        return model  # no batch of 2 can be drawn
    rng = SplitMix64(seed)
    for _ in range(cfg.epochs):
        order = list(range(n))
        rng.shuffle(order)
        xs, ts = data.pairs.xs[order], data.pairs.ts[order]
        for start in range(0, n, cfg.batch_size):
            stop = min(start + cfg.batch_size, n)
            if stop - start < 2:
                continue  # contrastive loss undefined below 2 pairs
            fwd = pair_forward(model, PairBatch(xs[start:stop], ts[start:stop]))
            parts = [contrastive_loss_and_grads(model, fwd)]
            if cfg.anchor_mu > 0:
                parts.append(text_anchor_loss_and_grads(model, fwd, cfg.anchor_mu))
            _, grads = compose_losses(parts)
            model = sgd_step(model, grads, cfg.lr)
    return model


def make_update(before: ModelSnapshot, after: ModelSnapshot, client_id: str,
                sample_count: int, round_num: int) -> ClientUpdate:
    """Adapter deltas between two snapshots; the upload payload."""
    deltas = {name: after.blocks[name] - m for name, m in before.blocks.items()}
    return ClientUpdate(client_id=client_id, base_version=before.version,
                        deltas=deltas, sample_count=max(1, sample_count),
                        submitted_round=round_num)


def federated_train(model: ModelSnapshot, corpora_by_party: dict, cfg: TrainConfig,
                    rounds: int, plan: AggregationPlan, seed: int) -> ModelSnapshot:
    """Synchronous federated rounds over in-memory parties; each round's
    updates are fused by ``aggregate`` under ``plan``. Each party's corpus
    is prepared once, for every round."""
    prepared = {party: training_set(model, corpora_by_party[party])
                for party in sorted(corpora_by_party)}
    for r in range(rounds):
        updates = []
        for party, data in prepared.items():
            if len(data) < 2:
                continue
            trained = local_train(model, data, cfg, mix_seed(seed, r, hash_text(party)))
            updates.append(make_update(model, trained, party, len(data), r))
        if updates:
            model = aggregate(plan, model, updates, {model.version: model})
    return model
