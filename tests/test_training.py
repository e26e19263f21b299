import zlib
from dataclasses import replace

import numpy as np
import pytest

import flmm.training

from flmm.aggregation import AggregationPlan, snapshot_blocks
from flmm.config import ModelConfig, PartyConfig, QualityConfig, ScenarioConfig
from flmm.dataquality import CorpusSpec, SceneRecord, generate_corpus
from flmm.errors import DegenerateInputError, IdentityError, VocabularyError
from flmm.fusion import compose_losses, text_anchor_loss_and_grads
from flmm.model import contrastive_loss_and_grads, init_snapshot, save_snapshot, sgd_step, \
    with_blocks
from flmm.privacy import PrivacyConfig
from flmm.rng import SplitMix64
from flmm.simulate import run_simulation
from flmm.training import TrainConfig, federated_train, local_train, trainable_records, \
    training_set

from support import ScalarStream, count_pair_batches, oracle_federated_train, \
    oracle_local_train


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
            if cfg.anchor_mu > 0:
                parts.append(text_anchor_loss_and_grads(model, batch, cfg.anchor_mu))
            _, grads = compose_losses(parts)
            model = sgd_step(model, grads, cfg.lr)
    return model


def random_records(seed: int, n: int, d_v: int = 16, vocab: int = 64) -> list:
    """Variable-length captions (1-10 tokens); every fifth record has none."""
    rng = ScalarStream(seed)
    out = []
    for i in range(n):
        length = 0 if i % 5 == 4 else 1 + rng.next_u64() % 10
        out.append(SceneRecord(
            id=f"r{i}", party="p", image=rng.gaussians(d_v),
            caption=tuple(int(rng.next_u64() % vocab) for _ in range(length)),
            object_labels=(), corruption=frozenset()))
    return out


def block_crcs(model) -> dict:
    """CRC32 of each trainable block, as the round log's blocks= field has it."""
    return {name: f"{zlib.crc32(np.ascontiguousarray(m, dtype='<f8').tobytes()):08x}"
            for name, m in sorted(snapshot_blocks(model).items())}


# Block CRCs of local_train(init_snapshot(40, with_bridge=bridge),
# random_records(41, 90), epochs 3, lr 0.1, batch 16, seed 42), keyed by
# (bridge, anchor_mu). The oracle above shares shuffle and both losses with
# local_train, so only these pinned bits can see a drift in those functions.
LOCAL_TRAIN_CRCS = {
    (True, 0.0): {"bridge": "369c77c6", "text.a": "d5953fad", "text.b": "5f214755",
                  "vision.a": "1829901c", "vision.b": "19ae7dee"},
    (True, 1.5): {"bridge": "f5e3270f", "text.a": "444c9e44", "text.b": "c0825d09",
                  "vision.a": "bf488e84", "vision.b": "51a3c8ed"},
    (False, 0.0): {"text.a": "a2bce7fa", "text.b": "18aa603b",
                   "vision.a": "57f795ee", "vision.b": "293cc8d8"},
    (False, 1.5): {"text.a": "fc5278a6", "text.b": "b0624210",
                   "vision.a": "97695a9e", "vision.b": "ebaa3ca3"},
}


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
    assert block_crcs(got) == LOCAL_TRAIN_CRCS[(bridge, anchor_mu)]


@pytest.mark.parametrize("prepared", [False, True], ids=["records", "prepared"])
@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("n_records, last_batch", [(21, 1), (22, 2)])
@pytest.mark.parametrize("anchor_mu", [0.0, 1.5])
@pytest.mark.parametrize("bridge", [True, False])
def test_local_train_bit_identical_to_per_call_oracle(bridge, anchor_mu, n_records,
                                                      last_batch, epochs, prepared):
    """Batches of 8 over 17 or 18 usable records: the last batch of each
    epoch holds 1 record (skipped) or 2."""
    model = init_snapshot(50, with_bridge=bridge)
    records = random_records(51, n_records)
    assert len(trainable_records(records)) % 8 == last_batch
    cfg = TrainConfig(epochs=epochs, lr=0.1, batch_size=8, anchor_mu=anchor_mu)
    data = training_set(model, records) if prepared else records
    got = local_train(model, data, cfg, seed=52)
    assert save_snapshot(got) == save_snapshot(oracle_local_train(model, records, cfg, 52))
    if prepared:  # training leaves the set as it was: a second call repeats
        assert save_snapshot(local_train(model, data, cfg, seed=52)) == save_snapshot(got)


def test_training_set_of_another_token_embed_raises():
    records = random_records(54, 10)
    data = training_set(init_snapshot(53), records)
    assert len(data) == len(trainable_records(records)) == 8
    with pytest.raises(IdentityError, match="training set"):
        local_train(init_snapshot(55), data, TrainConfig(), seed=1)
    # an equal token_embed held in another array is the same text features
    same = init_snapshot(53)
    assert same.token_embed is not data.token_embed
    assert save_snapshot(local_train(same, data, TrainConfig(), seed=1)) \
        == save_snapshot(local_train(same, records, TrainConfig(), seed=1))


def test_federated_train_prepares_each_party_once(monkeypatch):
    corpora = {p: random_records(60 + i, 20) for i, p in enumerate(("pa", "pb", "pc"))}
    corpora["pc"] = corpora["pc"][3:5]  # one usable record: never featurized
    calls = count_pair_batches(monkeypatch)
    federated_train(init_snapshot(63), corpora, TrainConfig(epochs=1, batch_size=8),
                    rounds=3, plan=AggregationPlan(), seed=64)
    assert calls == [16, 16]


def quality_scenario() -> ScenarioConfig:
    """Two parties of 40 records, one with mismatched captions and one with a
    text anchor; 2 rounds and one quality-loop iteration."""
    parties = tuple(
        PartyConfig(party_id=f"p{i}",
                    corpus=CorpusSpec(party=f"p{i}", size=40,
                                      corruption_rates={"mismatched": 0.2} if i == 0 else {},
                                      seed=60 + i, scene_class_pool=(0, 1, 2, 3)),
                    anchor_mu=0.0 if i == 0 else 2.0)
        for i in range(2))
    return ScenarioConfig(
        seed=61, rounds=2, token="tok", deadline=60.0,
        train=TrainConfig(epochs=2, lr=0.1, batch_size=16), model=ModelConfig(),
        plan=AggregationPlan(), history_window=16, privacy=PrivacyConfig(),
        parties=parties,
        eval_spec=CorpusSpec(party="eval", size=40, corruption_rates={}, seed=160,
                             scene_class_pool=(0, 1, 2, 3)),
        quality=QualityConfig(iters=1, target=2.0, threshold=0.0))


def test_run_simulation_with_quality_loop_pinned_bits(tmp_path):
    result = run_simulation(quality_scenario(), str(tmp_path))
    assert result.failure is None
    assert result.round_records[-1]["blocks"] == (
        "bridge:544dc5d3;text.a:738969f1;text.b:acc98755;vision.a:f12ef0af;"
        "vision.b:0ced0d31")
    assert block_crcs(result.final_model) == {
        "bridge": "7c29a337", "text.a": "36971142", "text.b": "4e3805c0",
        "vision.a": "4a2a6a1c", "vision.b": "166f5732"}
    assert [(r.recall_at_1.hex(), r.mean_bleu.hex(), r.mean_rouge_l.hex())
            for r in result.reports] == [
        ("0x1.8000000000000p-1", "0x1.8000000000000p-1", "0x1.db33333333333p-1"),
        ("0x1.c000000000000p-1", "0x1.c000000000000p-1", "0x1.f000000000000p-1")]


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


@pytest.mark.parametrize("strategy", ["sync_avg", "product_refactor", "async_mix"])
def test_federated_train_follows_the_plan_strategy(strategy):
    corpora = {p: generate_corpus(CorpusSpec(party=p, size=24, corruption_rates={},
                                             seed=40 + i, scene_class_pool=(0, 1, 2)))
               for i, p in enumerate(("pa", "pb"))}
    cfg = TrainConfig(epochs=1, lr=0.1, batch_size=8)
    plan = AggregationPlan(strategy=strategy)
    initial = init_snapshot(41)
    got = federated_train(initial, corpora, cfg, rounds=2, plan=plan, seed=42)
    want = oracle_federated_train(initial, corpora, cfg, 2, plan, 42)
    assert save_snapshot(got) == save_snapshot(want)
    if strategy != "sync_avg":
        averaged = federated_train(initial, corpora, cfg, rounds=2,
                                   plan=AggregationPlan(), seed=42)
        assert save_snapshot(got) != save_snapshot(averaged)


# Usable records per party, with batches of 8: tails of 1 (skipped), 2, 5 and
# none; a party that runs out while the others still step; one below 2.
RAGGED_USABLE = {"pa": 17, "pb": 18, "pc": 21, "pd": 16, "pe": 9, "pf": 1}


def ragged_corpora(seed: int) -> dict:
    """Record lists whose usable counts are RAGGED_USABLE (every fifth
    record of random_records has no caption)."""
    corpora = {}
    for i, (party, usable) in enumerate(RAGGED_USABLE.items()):
        records = random_records(seed + i, usable + (usable - 1) // 4)
        corpora[party] = records
        assert len(trainable_records(records)) == usable
    return corpora


@pytest.mark.parametrize("anchor_mu", [0.0, 2.0])
@pytest.mark.parametrize("bridge", [True, False])
def test_stacked_local_train_rows_match_training_each_party_alone(bridge, anchor_mu):
    model = init_snapshot(70, with_bridge=bridge)
    corpora = ragged_corpora(71)
    cfg = TrainConfig(epochs=2, lr=0.1, batch_size=8, anchor_mu=anchor_mu)
    seeds = [72 + i for i in range(len(corpora))]
    # prepared sets and record lists mix in one call
    datasets = [training_set(model, c) if i % 2 else c
                for i, c in enumerate(corpora.values())]
    got = local_train(model, datasets, cfg, seeds)
    assert isinstance(got, list) and len(got) == len(corpora)
    for trained, records, seed in zip(got, corpora.values(), seeds):
        want = oracle_local_train(model, records, cfg, seed)
        assert save_snapshot(trained) == save_snapshot(want)
        assert save_snapshot(local_train(model, records, cfg, seed)) == save_snapshot(want)
    assert got[-1] is model  # "pf": below 2 usable records


def spy_anchor(monkeypatch) -> list:
    """Records the mu of every anchor call a training step makes."""
    mus = []

    def spy(model, batch, mu):
        mus.append(np.asarray(mu))
        return text_anchor_loss_and_grads(model, batch, mu)

    monkeypatch.setattr(flmm.training, "text_anchor_loss_and_grads", spy)
    return mus


@pytest.mark.parametrize("bridge", [True, False])
def test_rows_with_their_own_anchor_mu_match_training_each_party_alone(bridge,
                                                                       monkeypatch):
    """One stack whose rows take the anchor with different weights, or not
    at all: ragged tails of 1 (skipped), 2, 5 and none make steps of every
    row, of one anchored row and of one unanchored row. A step with an
    anchored row makes one anchor call over all its rows, with a weight of
    zero on the unanchored ones; a step of unanchored rows makes none."""
    anchor_mus = spy_anchor(monkeypatch)
    model = init_snapshot(87, with_bridge=bridge)
    corpora = list(ragged_corpora(88).values())[:4]
    mus = (0.0, 1.5, 0.0, 2.0)
    cfg = TrainConfig(epochs=2, lr=0.1, batch_size=8, anchor_mu=mus)
    seeds = [89 + i for i in range(len(corpora))]
    datasets = [training_set(model, c) if i % 2 else c for i, c in enumerate(corpora)]
    got = local_train(model, datasets, cfg, seeds)
    assert len(got) == len(corpora)
    for trained, records, seed, mu in zip(got, corpora, seeds, mus):
        want = oracle_local_train(model, records, replace(cfg, anchor_mu=mu), seed)
        assert save_snapshot(trained) == save_snapshot(want)
    assert {tuple(mu.tolist()) for mu in anchor_mus} == {mus, (1.5,)}


def test_a_stack_without_an_anchored_row_never_calls_the_anchor(monkeypatch):
    anchor_mus = spy_anchor(monkeypatch)
    model = init_snapshot(90)
    corpora = list(ragged_corpora(91).values())
    cfg = TrainConfig(epochs=1, lr=0.1, batch_size=8, anchor_mu=(0.0,) * len(corpora))
    local_train(model, corpora, cfg, list(range(len(corpora))))
    local_train(model, corpora[0], replace(cfg, anchor_mu=0.0), 5)
    assert anchor_mus == []


@pytest.mark.parametrize("mus", [None, (0.0, 1.5, 0.0, 2.0, 1.5, 0.0)],
                         ids=["unanchored", "mixed_mu"])
def test_a_row_that_sits_out_a_step_keeps_its_negative_zeros(mus):
    """Images with a zero first entry leave vision.a's first column a zero
    gradient, so its -0.0 entries stay -0.0 through every step; a row that
    does not step, or steps without the anchor inside an anchored stack,
    must not have a zero added (-0.0 + 0.0 is +0.0)."""
    start = init_snapshot(79)
    blocks = snapshot_blocks(start)
    blocks["vision.a"][:, 0] = -0.0
    model = with_blocks(start, blocks, start.version)
    corpora = [[replace(r, image=np.concatenate([[0.0], r.image[1:]])) for r in records]
               for records in ragged_corpora(80).values()]
    cfg = TrainConfig(epochs=2, lr=0.1, batch_size=8, anchor_mu=mus or 0.0)
    got = local_train(model, corpora, cfg, list(range(len(corpora))))
    for seed, (trained, records) in enumerate(zip(got, corpora)):
        mu = mus[seed] if mus else 0.0
        if mu == 0.0:
            assert np.signbit(trained.blocks["vision.a"][:, 0]).all()
        assert save_snapshot(trained) == save_snapshot(
            oracle_local_train(model, records, replace(cfg, anchor_mu=mu), seed))


def test_a_stack_of_one_row_or_none_below_two_records():
    model = init_snapshot(81)
    records = random_records(82, 30)
    cfg = TrainConfig(epochs=2, lr=0.1, batch_size=8)
    one = local_train(model, [records], cfg, [83])
    assert len(one) == 1
    assert save_snapshot(one[0]) == save_snapshot(local_train(model, records, cfg, 83))
    short = random_records(84, 1)
    got = local_train(model, [short, []], cfg, (1, 2))
    assert len(got) == 2 and all(m is model for m in got)
    assert local_train(model, [], cfg, []) == []


def test_trainable_records_of_a_stack_are_every_rows_in_row_order():
    model = init_snapshot(85)
    corpora = list(ragged_corpora(86).values())
    stack = [training_set(model, c) if i % 2 else c for i, c in enumerate(corpora)]
    want = [id(r) for c in corpora for r in c if r.caption]
    assert len(want) == sum(RAGGED_USABLE.values())
    assert [id(r) for r in trainable_records(stack)] == want
    assert [id(r) for r in trainable_records([[], corpora[0]])] == \
        [id(r) for r in trainable_records(corpora[0])]
    assert trainable_records([]) == []


@pytest.mark.parametrize("strategy", ["sync_avg", "product_refactor", "async_mix"])
@pytest.mark.parametrize("anchor_mu", [0.0, 2.0])
@pytest.mark.parametrize("bridge", [True, False])
def test_federated_train_matches_training_one_party_after_another(bridge, anchor_mu,
                                                                  strategy):
    model = init_snapshot(73, with_bridge=bridge)
    corpora = ragged_corpora(74)
    cfg = TrainConfig(epochs=2, lr=0.1, batch_size=8, anchor_mu=anchor_mu)
    plan = AggregationPlan(strategy=strategy)
    got = federated_train(model, corpora, cfg, rounds=2, plan=plan, seed=75)
    want = oracle_federated_train(model, corpora, cfg, 2, plan, 75)
    assert save_snapshot(got) == save_snapshot(want)
    assert got.version == 2


def test_federated_train_without_a_trainable_party_keeps_the_model():
    model = init_snapshot(76)
    corpora = {"pa": random_records(77, 1), "pb": []}
    assert federated_train(model, corpora, TrainConfig(), rounds=3,
                           plan=AggregationPlan(), seed=78) is model
