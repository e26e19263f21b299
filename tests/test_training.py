from dataclasses import replace

import numpy as np
import pytest

from flmm.dataquality import SceneRecord
from flmm.errors import DegenerateInputError, VocabularyError
from flmm.fusion import compose_losses, text_anchor_loss_and_grads
from flmm.model import contrastive_loss_and_grads, init_snapshot, save_snapshot, sgd_step
from flmm.rng import SplitMix64
from flmm.training import TrainConfig, local_train, trainable_records


def local_train_oracle(model, records, cfg, seed):
    """Per-batch list-of-pairs loop: each step hands the losses its
    (image, tokens) pairs."""
    usable = trainable_records(records)
    rng = SplitMix64(seed)
    for _ in range(cfg.epochs):
        order = list(range(len(usable)))
        rng.shuffle(order)
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if len(idx) < 2:
                continue
            batch = [(usable[i].image, list(usable[i].caption)) for i in idx]
            parts = [contrastive_loss_and_grads(model, batch)]
            weights = [cfg.contrastive_weight]
            if cfg.anchor_mu > 0:
                parts.append(text_anchor_loss_and_grads(model, batch, cfg.anchor_mu))
                weights.append(1.0)
            _, grads = compose_losses(weights, parts)
            model = sgd_step(model, grads, cfg.lr)
    return model


def random_records(seed: int, n: int, d_v: int = 16, vocab: int = 64) -> list:
    """Variable-length captions (1-10 tokens); every fifth record has none."""
    rng = SplitMix64(seed)
    out = []
    for i in range(n):
        length = 0 if i % 5 == 4 else 1 + rng.next_u64() % 10
        out.append(SceneRecord(
            id=f"r{i}", party="p", image=rng.gaussians(d_v),
            caption=tuple(int(rng.next_u64() % vocab) for _ in range(length)),
            object_labels=(), corruption=frozenset()))
    return out


@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("anchor_mu", [0.0, 1.5])
def test_local_train_bit_identical_to_list_of_pairs_loop(bridge, anchor_mu):
    model = init_snapshot(40, with_bridge=bridge)
    records = random_records(41, 90)
    cfg = TrainConfig(epochs=3, lr=0.1, batch_size=16, anchor_mu=anchor_mu)
    got = local_train(model, records, cfg, seed=42)
    want = local_train_oracle(model, records, cfg, seed=42)
    assert save_snapshot(got) == save_snapshot(want)
    assert save_snapshot(got) != save_snapshot(model)


def test_too_few_usable_records_return_model_unchanged():
    model = init_snapshot(43)
    records = random_records(44, 5)[:1]
    assert local_train(model, records, TrainConfig(), seed=1) is model


@pytest.mark.parametrize("caption, error", [((3, 64, 1), VocabularyError),
                                            ((-1,), VocabularyError)])
def test_whole_usable_corpus_checked_before_first_step(caption, error):
    # batch_size 1 draws no batch of 2, so no step would reach the bad record
    records = random_records(45, 8)
    records[6] = replace(records[6], caption=caption)
    with pytest.raises(error):
        local_train(init_snapshot(46), records, TrainConfig(batch_size=1), seed=1)


def test_pairs_with_empty_caption_raise():
    pairs = [(r.image, list(r.caption)) for r in random_records(47, 5)]
    assert not pairs[4][1]
    with pytest.raises(DegenerateInputError):
        contrastive_loss_and_grads(init_snapshot(48), pairs)
    with pytest.raises(DegenerateInputError):
        text_anchor_loss_and_grads(init_snapshot(48), pairs, 0.5)
