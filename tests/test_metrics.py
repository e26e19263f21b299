from dataclasses import replace

import numpy as np
import pytest

from flmm.aggregation import apply_block_mask, snapshot_blocks
from flmm.contribution import slice_rows
from flmm.dataquality import CorpusSpec, generate_corpus
from flmm.errors import EmptyBankError, IdentityError, RangeError
from flmm.metrics import bleu, eval_batch, evaluate, recall_at_k, rouge_l
from flmm.model import caption_scores, init_snapshot, load_snapshot, save_snapshot, \
    stack_rows, text_features, with_blocks
from flmm.rng import SplitMix64

from support import ScalarStream, caption_bank


class TestBleu:
    def test_identical_is_one(self):
        assert bleu([1, 2, 3, 4], [[1, 2, 3, 4]]) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert bleu([1, 2, 3], [[4, 5, 6]]) == 0.0

    def test_hand_computed_brevity_penalty(self):
        # candidate [a b c] vs reference [a b c d], max_n=2:
        # p1 = p2 = 1, BP = e^(1 - 4/3) -> BLEU = e^(-1/3)
        got = bleu([1, 2, 3], [[1, 2, 3, 4]], max_n=2)
        assert got == pytest.approx(np.exp(-1.0 / 3.0), abs=1e-12)

    def test_clipping(self):
        # candidate repeats a unigram beyond its reference count
        got = bleu([7, 7, 7, 7], [[7, 8]], max_n=1)
        # clipped p1 = 1/4, BP = 1 (candidate longer than reference)
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_short_candidate_zero_at_missing_order(self):
        assert bleu([5], [[5, 6, 7]], max_n=2) == 0.0

    def test_nonempty_required(self):
        with pytest.raises(RangeError):
            bleu([], [[1]])
        with pytest.raises(RangeError):
            bleu([1], [])


class TestRougeL:
    def test_identical_is_one(self):
        assert rouge_l([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert rouge_l([1, 2], [3, 4]) == 0.0

    def test_hand_computed_lcs(self):
        # reference [a b c d], candidate [a c d]: LCS=3, P=1, R=0.75, F1=6/7
        assert rouge_l([1, 3, 4], [1, 2, 3, 4]) == pytest.approx(6.0 / 7.0, abs=1e-12)

    def test_subsequence_not_substring(self):
        assert rouge_l([1, 9, 2, 9, 3], [1, 2, 3]) == pytest.approx(
            2 * (3 / 5) * 1.0 / (3 / 5 + 1.0))


def balanced_eval_set(seed=7, size=80, classes=tuple(range(8))):
    spec = CorpusSpec(party="eval", size=size, corruption_rates={},
                      seed=seed, scene_class_pool=classes)
    return generate_corpus(spec)


class TestRecallAtK:
    def test_k_equal_bank_size_is_one(self):
        model = init_snapshot(1)
        recs = balanced_eval_set()
        bank = caption_bank(recs)
        assert recall_at_k(model, recs, len(bank)) == 1.0

    def test_monotone_in_k(self):
        model = init_snapshot(2)
        recs = balanced_eval_set(seed=9)
        bank = caption_bank(recs)
        vals = [recall_at_k(model, recs, k) for k in range(1, len(bank) + 1)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_untrained_model_near_chance(self):
        # balanced 8-class fixture: recall@1 ~ 1/8 over seeds
        recs = balanced_eval_set(seed=11, size=160)
        vals = [recall_at_k(init_snapshot(100 + s), recs, 1) for s in range(6)]
        assert abs(np.mean(vals) - 0.125) < 0.1

    def test_range_error(self):
        model = init_snapshot(3)
        recs = balanced_eval_set()
        with pytest.raises(RangeError):
            recall_at_k(model, recs, 0)
        with pytest.raises(RangeError):
            recall_at_k(model, recs, len(caption_bank(recs)) + 1)


def recall_at_k_oracle(model, eval_set, k):
    """Per-record ranking loop: ties rank by lowest bank index."""
    bank = caption_bank(eval_set)
    bank_idx = {tuple(cap): j for j, cap in enumerate(bank)}
    scores = caption_scores(model, np.stack([rec.image for rec in eval_set]), bank)
    hits = 0
    for i, rec in enumerate(eval_set):
        true_j = bank_idx[tuple(rec.caption)]
        s = scores[i]
        target = s[true_j]
        rank = int(np.sum(s > target) + np.sum((s == target).nonzero()[0] < true_j))
        if rank < k:
            hits += 1
    return hits / len(eval_set)


def with_permuted_captions(recs, seed):
    """Every third record gets a reversed caption: a distinct bank entry with
    the same token multiset, so its mean embedding, and score, tie exactly."""
    rng = ScalarStream(seed)
    out = []
    for i, rec in enumerate(recs):
        cap = tuple(rec.caption)
        if i % 3 == 0 and len(set(cap)) > 1:
            cap = cap[::-1]
        if i % 7 == 0:
            cap = tuple(int(rng.next_u64() % 64) for _ in range(len(cap)))
        out.append(replace(rec, caption=cap))
    return out


class TestRecallOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_per_record_loop_for_every_k(self, seed):
        recs = with_permuted_captions(balanced_eval_set(seed=20 + seed, size=60), seed)
        model = init_snapshot(30 + seed)
        bank = caption_bank(recs)
        scores = caption_scores(model, np.stack([r.image for r in recs]), bank)
        assert any(np.sum(row == row[j]) > 1 for row in scores for j in range(len(bank)))
        for k in range(1, len(bank) + 1):
            assert recall_at_k(model, recs, k) == recall_at_k_oracle(model, recs, k)

    def test_evaluate_recalls_equal_oracle(self):
        recs = with_permuted_captions(balanced_eval_set(seed=24, size=60), 4)
        model = init_snapshot(34)
        rep = evaluate(model, recs)
        assert rep.recall_at_1 == recall_at_k_oracle(model, recs, 1)
        assert rep.recall_at_5 == recall_at_k_oracle(model, recs, 5)


class TestEvaluate:
    def test_fields_in_range(self):
        rep = evaluate(init_snapshot(4), balanced_eval_set(seed=12))
        for v in (rep.recall_at_1, rep.recall_at_5, rep.mean_bleu, rep.mean_rouge_l):
            assert 0.0 <= v <= 1.0

    def test_deterministic(self):
        model = init_snapshot(5)
        recs = balanced_eval_set(seed=13)
        assert evaluate(model, recs) == evaluate(model, recs)

    def test_overlap_equals_per_record_oracle_with_shared_pairs_and_tied_argmax(self):
        # Token 63 gets token 1's embedding row, so a caption and its twin
        # with 1 -> 63 have identical features: every row's maximum ties, and
        # argmax takes the twin that comes first in the bank.
        base = init_snapshot(6)
        tok = base.token_embed.copy()
        tok[63] = tok[1]
        base = replace(base, token_embed=tok)
        recs = balanced_eval_set(seed=14, size=200)
        recs = [replace(r, caption=tuple(63 if t == 1 and i % 2 else t for t in r.caption))
                for i, r in enumerate(recs)]
        batch = eval_batch(base, recs)
        for model in [base] + [with_random_adapters(base, 90 + i) for i in range(2)]:
            scores = caption_scores(model, batch.xs, batch.ts)
            assert all(np.sum(row == row.max()) >= 2 for row in scores)
            retrieved = [batch.bank[int(np.argmax(row))] for row in scores]
            truths = [list(r.caption) for r in recs]
            assert len({(tuple(c), tuple(t)) for c, t in zip(retrieved, truths)}) <= 50
            bleus = [bleu(c, [t]) for c, t in zip(retrieved, truths)]
            rouges = [rouge_l(c, t) for c, t in zip(retrieved, truths)]
            assert len(set(bleus)) > 1 and len(set(rouges)) > 1
            rep = evaluate(model, batch)
            assert rep.mean_bleu == float(np.mean(bleus))
            assert rep.mean_rouge_l == float(np.mean(rouges))


def with_random_adapters(base, seed):
    """base with random adapters and bridge: another model that shares base's
    frozen token_embed, as every coalition replay of one run does."""
    rng = SplitMix64(seed)
    blocks = {n: rng.normal_matrix(*b.shape, std=0.5)
              for n, b in snapshot_blocks(base).items()}
    return apply_block_mask(blocks, base)


class TestEvalBatch:
    @pytest.mark.parametrize("vocab", [64, 512])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_recall_equals_records_and_oracle_for_every_k(self, vocab, seed):
        recs = with_permuted_captions(balanced_eval_set(seed=40 + seed, size=60), seed)
        base = init_snapshot(50 + seed, vocab=vocab)
        batch = eval_batch(base, recs)
        models = [base] + [with_random_adapters(base, 60 + i) for i in range(3)]
        tied = False
        for model in models:
            scores = caption_scores(model, batch.xs, batch.ts)
            tied |= any(np.sum(row == row[j]) > 1 for row in scores for j in range(len(row)))
            for k in range(1, len(batch.bank) + 1):
                got = recall_at_k(model, batch, k)
                assert got == recall_at_k(model, recs, k)
                assert got == recall_at_k_oracle(model, recs, k)
        assert tied
        assert len({recall_at_k(m, batch, 1) for m in models}) > 1

    def test_fields(self):
        recs = with_permuted_captions(balanced_eval_set(seed=45, size=60), 5)
        model = init_snapshot(55)
        batch = eval_batch(model, recs)
        assert batch.bank == caption_bank(recs)
        assert [batch.bank[j] for j in batch.true_j] == [list(r.caption) for r in recs]
        np.testing.assert_array_equal(batch.xs, np.stack([r.image for r in recs]))
        assert batch.ts.tobytes() == text_features(model, batch.bank).tobytes()
        assert batch.token_embed is model.token_embed
        assert eval_batch(model, batch) is batch

    def test_evaluate_equals_records_field_for_field(self):
        recs = with_permuted_captions(balanced_eval_set(seed=46, size=60), 6)
        base = init_snapshot(56)
        batch = eval_batch(base, recs)
        for model in [base] + [with_random_adapters(base, 70 + i) for i in range(3)]:
            rep = evaluate(model, batch, "e")
            assert rep == evaluate(model, recs, "e")
            # caption overlap against each record's own caption, per record
            bank = caption_bank(recs)
            scores = caption_scores(model, np.stack([r.image for r in recs]), bank)
            retrieved = [bank[int(np.argmax(row))] for row in scores]
            assert rep.mean_bleu == float(np.mean(
                [bleu(c, [list(r.caption)]) for c, r in zip(retrieved, recs)]))
            assert rep.mean_rouge_l == float(np.mean(
                [rouge_l(c, list(r.caption)) for c, r in zip(retrieved, recs)]))
            assert rep.recall_at_1 == recall_at_k_oracle(model, recs, 1)
            assert rep.recall_at_5 == recall_at_k_oracle(model, recs, 5)

    def test_stacked_recall_equals_each_row_alone_for_every_k(self):
        recs = with_permuted_captions(balanced_eval_set(seed=47, size=60), 7)
        base = init_snapshot(57)
        batch = eval_batch(base, recs)
        rows = slice_rows(batch)
        assert 2 <= rows < 200
        models = [with_random_adapters(base, 80 + i) for i in range(rows + 1)]
        every = with_blocks(base, {n: np.stack([m.blocks[n] for m in models])
                                   for n in base.blocks}, base.version)
        for c in (0, 1, rows, rows + 1):
            stack = stack_rows(every, slice(0, c))
            scores = caption_scores(stack, batch.xs, batch.ts)
            assert scores.shape == (c, len(recs), len(batch.bank))
            if c:  # planted exact ties: reversed captions score alike
                assert any(np.sum(row == row[j]) > 1 for row in scores[-1]
                           for j in range(len(row)))
            for k in range(1, len(batch.bank) + 1):
                got = recall_at_k(stack, batch, k)
                assert got.shape == (c,)
                alone = [recall_at_k(stack_rows(stack, i), batch, k) for i in range(c)]
                assert [v.hex() for v in got.tolist()] == [v.hex() for v in alone]
                for i in range(min(c, 2)):
                    assert alone[i] == recall_at_k_oracle(models[i], recs, k)

    def test_caption_scores_takes_tokens_or_features(self):
        recs = balanced_eval_set(seed=47)
        model = with_random_adapters(init_snapshot(57), 80)
        bank = caption_bank(recs)
        xs = np.stack([r.image for r in recs])
        by_tokens = caption_scores(model, xs, bank)
        by_features = caption_scores(model, xs, text_features(model, bank))
        assert by_tokens.tobytes() == by_features.tobytes()

    def test_other_token_embed_raises(self):
        recs = balanced_eval_set(seed=48)
        batch = eval_batch(init_snapshot(58), recs)
        other = init_snapshot(59)
        with pytest.raises(IdentityError):
            recall_at_k(other, batch, 1)
        with pytest.raises(IdentityError):
            evaluate(other, batch)

    def test_reloaded_checkpoint_passes(self):
        recs = balanced_eval_set(seed=49)
        model = with_random_adapters(init_snapshot(60), 81)
        batch = eval_batch(model, recs)
        reloaded = load_snapshot(save_snapshot(model))
        assert reloaded.token_embed is not model.token_embed
        assert recall_at_k(reloaded, batch, 1) == recall_at_k(model, recs, 1)

    def test_empty_bank_raises_for_both_forms(self):
        model = init_snapshot(61)
        xs = np.stack([r.image for r in balanced_eval_set(seed=50)])
        with pytest.raises(EmptyBankError):
            caption_scores(model, xs, [])
        with pytest.raises(EmptyBankError):
            caption_scores(model, xs, np.empty((0, model.token_embed.shape[1])))

    def test_empty_eval_set(self):
        model = init_snapshot(62)
        with pytest.raises(RangeError):
            recall_at_k(model, [], 1)
        with pytest.raises(EmptyBankError):
            evaluate(model, [])
