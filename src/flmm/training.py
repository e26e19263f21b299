"""Local adapter training and a direct in-memory federated driver.

``local_train`` is the one trainer. It trains one party, or P parties from
one model at once: then every trainable block is carried as a (P, r, c)
stack (see ``model``), and each step runs the forward pass, the losses and
the SGD update for a whole stack of rows in one call each. Each row has the
bits of training that party on its own, so every caller may stack: a
protocol client trains its one row, ``simulate.run_simulation`` trains each
round's in-process agents in one call, and ``federated_train`` each round's
parties.

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
    contrastive_loss_and_grads, pair_batch, pair_forward, sgd_step, stack_rows, with_blocks
from flmm.rng import SplitMix64, hash_text, mix_seed


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2
    lr: float = 1e-2
    batch_size: int = 16
    anchor_mu: float = 0.0  # stacked, a tuple may give one per corpus


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


def trainable_records(records) -> list[SceneRecord]:
    """Records usable for contrastive pairs (caption present); a TrainingSet
    holds only those. A list of corpora, local_train's stacked form, gives
    every row's usable records in row order."""
    if isinstance(records, TrainingSet):
        return records.records
    if records and not isinstance(records[0], SceneRecord):
        return [r for rows in records for r in trainable_records(rows)]
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


def local_train(model: ModelSnapshot, records, cfg: TrainConfig, seed):
    """Epochs of SGD on shuffled minibatches; deterministic given the seed.

    ``records`` is a corpus's TrainingSet, prepared once per corpus, or a
    record list, which is prepared for this call; ``seed`` is an int, and the
    trained snapshot is returned. Stacked, ``records`` is a list of such
    corpora and ``seed`` a list with one seed per corpus: one party per
    corpus trains from ``model`` at once, each with its own seed's shuffle
    stream, and the P trained snapshots are returned in corpus order. The
    text-anchor weight ``cfg.anchor_mu`` is then one float for every row, or
    a tuple with one per corpus, indexed like ``seed``.

    A party below 2 usable records gets ``model`` back. Each epoch gathers
    every row's shuffled pairs once. At each step the rows whose next batch
    has the same size step together as one stack: pair_forward runs both
    towers once, and that PairForward goes to the contrastive loss and, when
    any of those rows has a positive anchor_mu, to one anchor loss over them
    all (see ``_step``). Each loss backpropagates its own dz (summing the dz
    first would round differently) before compose_losses adds the
    gradients. A row whose batch is below 2 pairs, a skipped tail or nothing
    left, does not step. A lone row trains as the model itself, with no
    leading axis.
    """
    stacked = isinstance(seed, (list, tuple))
    seeds = seed if stacked else [seed]
    data = [training_set(model, d) for d in (records if stacked else [records])]
    out = [model] * len(data)  # no batch of 2 can be drawn below 2 records
    live = [k for k, d in enumerate(data) if len(d) >= 2]
    if not live:
        return out if stacked else out[0]
    sizes = [len(data[k]) for k in live]
    steps = _epoch_steps(sizes, cfg.batch_size)
    rngs = [SplitMix64(seeds[k]) for k in live]
    mu = np.broadcast_to(cfg.anchor_mu, len(data))[live]  # each live row's anchor_mu
    lone = len(live) == 1
    every = 0 if lone else slice(None)  # the batch index of a step of every row
    stack = model if lone else with_blocks(
        model, {n: np.stack([m] * len(live)) for n, m in model.blocks.items()},
        model.version)
    # one epoch's shuffled pairs per row; a row shorter than the longest
    # leaves its tail unset, and no step reads it
    xs = np.empty((len(live), max(sizes), model.w_v.shape[1]))
    ts = np.empty((len(live), max(sizes), model.w_t.shape[1]))
    for _ in range(cfg.epochs):
        for row, (k, rng) in enumerate(zip(live, rngs)):
            order = list(range(sizes[row]))
            rng.shuffle(order)
            xs[row, :sizes[row]] = data[k].pairs.xs[order]
            ts[row, :sizes[row]] = data[k].pairs.ts[order]
        for start, stop, rows in steps:
            if rows is None:  # every row steps
                stack = _step(stack, PairBatch(xs[every, start:stop], ts[every, start:stop]),
                              cfg.lr, mu[every])
                continue
            part = _step(stack_rows(stack, rows),
                         PairBatch(xs[rows, start:stop], ts[rows, start:stop]), cfg.lr,
                         mu[rows])
            merged = {n: m.copy() for n, m in stack.blocks.items()}
            for n, m in merged.items():
                m[rows] = part.blocks[n]
            stack = with_blocks(stack, merged, stack.version)
    for row, k in enumerate(live):
        out[k] = stack if lone else stack_rows(stack, row)
    return out if stacked else out[0]


def _epoch_steps(sizes: list, batch_size: int) -> list:
    """An epoch's steps over rows of these sizes, as (start, stop, rows):
    the rows whose batch is [start, stop), or None for every row. A batch
    below 2 pairs is no step."""
    steps = []
    for start in range(0, max(sizes), batch_size):
        groups: dict[int, list] = {}
        for row, n in enumerate(sizes):
            size = min(n - start, batch_size)
            if size >= 2:
                groups.setdefault(size, []).append(row)
        steps += [(start, start + size, None if len(rows) == len(sizes) else np.array(rows))
                  for size, rows in groups.items()]
    return steps


def _step(model: ModelSnapshot, batch: PairBatch, lr: float, mu) -> ModelSnapshot:
    """One SGD step of a model or stack on its batch. When a row's ``mu`` is
    positive, the anchor loss runs once on the whole stack, with ``mu`` its
    weight per row, and compose_losses adds it to the contrastive gradients;
    only the anchored rows take the sum, and every other row keeps its
    contrastive gradient as it is (adding a zero would turn -0.0 into +0.0)."""
    fwd = pair_forward(model, batch)
    loss, grads = contrastive_loss_and_grads(model, fwd)
    anchored = mu > 0
    if anchored.any():
        _, both = compose_losses([(loss, grads), text_anchor_loss_and_grads(model, fwd, mu)])
        grads = {n: np.where(anchored[..., None, None], both[n], g) for n, g in grads.items()}
    return sgd_step(model, grads, lr)


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
    parties train in one stacked local_train call, and their updates are
    fused by ``aggregate`` under ``plan``. Each party's corpus is prepared
    once, for every round; a party below 2 usable records sits out."""
    prepared = {party: training_set(model, corpora_by_party[party])
                for party in sorted(corpora_by_party)}
    parties = [party for party, data in prepared.items() if len(data) >= 2]
    if not parties:
        return model
    for r in range(rounds):
        trained = local_train(model, [prepared[p] for p in parties], cfg,
                              [mix_seed(seed, r, hash_text(p)) for p in parties])
        updates = [make_update(model, t, p, len(prepared[p]), r)
                   for p, t in zip(parties, trained)]
        model = aggregate(plan, model, updates, {model.version: model})
    return model
