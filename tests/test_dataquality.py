import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from flmm.aggregation import AggregationPlan
from flmm.dataquality import (
    _CHUNK,
    _PROTO_SALT,
    HAZARD_TOKEN,
    LABEL_TEMPLATES,
    MIN_CAPTION_LEN,
    SAFE_TOKEN,
    SENSITIVE_TOKENS,
    CorpusSpec,
    caption_template,
    class_hazard,
    class_prototype,
    expand_caption,
    generate_corpus,
    label_to_caption,
    load_corpus,
    otsu_threshold,
    quality_loop,
    repair_corpus,
    rule_clean,
    save_corpus,
    score_and_filter,
)
from flmm.errors import SpecError, StarvationError, TemplateGapError
from flmm.metrics import recall_at_k
from flmm.model import init_snapshot
from flmm.rng import SplitMix64, mix_seed
from flmm.training import TrainConfig, federated_train

from support import corpus_bytes, oracle_generate_corpus


def spec(party="p", size=50, rates=None, seed=5, classes=(0, 1, 2, 3)):
    return CorpusSpec(party=party, size=size, corruption_rates=rates or {},
                      seed=seed, scene_class_pool=classes)


class TestGeneration:
    def test_empty_corpus(self):
        assert generate_corpus(spec(size=0)) == []

    def test_all_clean_matches_template_oracle(self):
        recs = generate_corpus(spec(size=40))
        for r in recs:
            assert r.clean
            # regenerate the template independently from truth attributes
            expected = caption_template(r.truth.scene_class, r.truth.hazard)
            assert r.caption == expected
            assert r.truth.pristine_caption == expected

    def test_determinism_and_seed_sensitivity(self):
        a = generate_corpus(spec(seed=9))
        b = generate_corpus(spec(seed=9))
        c = generate_corpus(spec(seed=10))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.caption == y.caption
            np.testing.assert_array_equal(x.image, y.image)
        assert any(not np.array_equal(x.image, y.image) for x, y in zip(a, c))

    def test_rates_sum_validated(self):
        with pytest.raises(SpecError):
            spec(rates={"mismatched": 0.6, "too_short": 0.5})

    @pytest.mark.parametrize("rates", [
        {"mismatched": float("nan")}, {"sensitive_noise": -0.1},
        {"mismatched": 1.5, "too_short": -0.6}, {"too_short": float("-inf")}])
    def test_rate_outside_0_1_raises(self, rates):
        with pytest.raises(SpecError, match="must be in \\[0, 1\\]"):
            spec(rates=rates)

    @pytest.mark.parametrize("size", [-1, -3])
    def test_negative_size_raises(self, size):
        with pytest.raises(SpecError, match=f"corpus size {size}: must be at least 0"):
            spec(size=size, rates={"mismatched": float("nan")})

    def test_rates_of_0_and_1_accepted(self):
        recs = generate_corpus(spec(size=20, rates={"mismatched": 1.0, "too_short": 0.0}))
        assert all(r.corruption == {"mismatched"} for r in recs)

    @pytest.mark.parametrize("classes", [(0, 0, 1), (3, 1, 3), (2, 2)])
    def test_repeated_class_in_pool_raises(self, classes):
        # a repeat would skew the class draw and let a mismatched caption
        # land on its own class
        with pytest.raises(SpecError, match="repeats a class"):
            spec(classes=classes, rates={"mismatched": 0.5})

    @pytest.mark.parametrize("cls", [-1, 30, 40, 45, 54])
    def test_class_outside_the_token_layout_raises(self, cls):
        # class 30 would name itself with HAZARD_TOKEN, 40-45 with sensitive
        # tokens, 54 and above with a token past the default vocab
        with pytest.raises(SpecError, match=f"scene class {cls} is outside 0..29"):
            spec(classes=(0, cls))

    def test_every_class_in_the_layout_is_accepted_and_has_a_label_template(self):
        spec(classes=tuple(range(30)))
        class_tokens = {caption_template(c, False)[2] for c in range(30)}
        assert class_tokens | {HAZARD_TOKEN, SAFE_TOKEN} == set(LABEL_TEMPLATES)

    @pytest.mark.parametrize("seed", [3, 42, 2**64 - 7, -1, 2**64 + 5])
    @pytest.mark.parametrize("d_v", [15, 16])
    def test_bit_identical_to_record_by_record_draws(self, seed, d_v):
        """Every field of every record, for sizes 0, 1 and 23, each tag alone,
        all tags at once and none, and pools of 1 to 8 classes; then sizes
        around one stream window (_CHUNK records) with no tag, with every
        record on the longest stride, and with all tags mixed, so the walk
        crosses a window boundary at an uneven point."""
        rate_sets = [{}, {"mismatched": 0.5}, {"sensitive_noise": 0.5},
                     {"labels_only": 0.5}, {"too_short": 0.5},
                     {t: 0.2 for t in ("mismatched", "sensitive_noise",
                                       "labels_only", "too_short")}]
        for n_classes in range(1, 9):
            pool = tuple((5 * c + seed) % 11 for c in range(n_classes))
            for rates in rate_sets:
                if "mismatched" in rates and n_classes < 2:
                    continue
                for size in (0, 1, 23):
                    s = CorpusSpec(party="q", size=size, corruption_rates=rates,
                                   seed=seed, scene_class_pool=pool, d_v=d_v)
                    assert corpus_bytes(generate_corpus(s)) \
                        == corpus_bytes(oracle_generate_corpus(s))
        for rates in [{}, {"sensitive_noise": 1.0},
                      {"mismatched": 0.3, "sensitive_noise": 0.3, "labels_only": 0.1,
                       "too_short": 0.1}]:
            for size in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3):
                s = CorpusSpec(party="w", size=size, corruption_rates=rates, seed=seed,
                               scene_class_pool=(2, 9, 4), d_v=d_v)
                assert corpus_bytes(generate_corpus(s)) \
                    == corpus_bytes(oracle_generate_corpus(s))

    def test_stream_window_memory_stays_below_the_record_by_record_draws(self):
        """The tracemalloc peak of a corpus eight windows long with every tag
        in play is no higher than that of the record-by-record oracle: the
        stream is held as Python ints one window at a time."""
        rates = {t: 0.2 for t in ("mismatched", "sensitive_noise", "labels_only",
                                  "too_short")}
        s = CorpusSpec(party="m", size=8 * _CHUNK, corruption_rates=rates, seed=11,
                       scene_class_pool=(0, 3, 5, 8, 9))
        generate_corpus(replace(s, size=1))  # warm the prototype cache

        def peak(draw):
            tracemalloc.start()
            try:
                records = draw(s)
                return tracemalloc.get_traced_memory()[1], records
            finally:
                tracemalloc.stop()

        peak_bulk, bulk = peak(generate_corpus)
        del bulk
        peak_oracle, _ = peak(oracle_generate_corpus)
        assert peak_bulk <= peak_oracle

    def test_every_tag_drawn_in_the_oracle_comparison(self):
        rates = {t: 0.2 for t in ("mismatched", "sensitive_noise", "labels_only",
                                  "too_short")}
        recs = generate_corpus(spec(size=23, rates=rates, seed=3, classes=(3, 8)))
        assert {t for r in recs for t in r.corruption} == set(rates)

    def test_planted_corruption_shapes(self):
        rates = {"mismatched": 0.2, "sensitive_noise": 0.2,
                 "labels_only": 0.2, "too_short": 0.2}
        recs = generate_corpus(spec(size=400, rates=rates, seed=77))
        by_tag = {}
        for r in recs:
            for t in r.corruption:
                by_tag.setdefault(t, []).append(r)
        assert set(by_tag) == set(rates)
        for r in by_tag["labels_only"]:
            assert r.caption == () and r.object_labels
        for r in by_tag["too_short"]:
            assert len(r.caption) == 2
        for r in by_tag["sensitive_noise"]:
            assert any(t in SENSITIVE_TOKENS for t in r.caption)
        for r in by_tag["mismatched"]:
            assert r.caption != r.truth.pristine_caption
        # rates approximately honored
        for t in rates:
            assert 0.1 < len(by_tag[t]) / 400 < 0.3

    def test_image_near_class_prototype(self):
        recs = generate_corpus(spec(size=30, seed=3))
        for r in recs:
            proto = class_prototype(r.truth.scene_class, 16)
            assert np.linalg.norm(r.image - proto) < 0.1 * 6 * np.sqrt(16)

    @pytest.mark.parametrize("class_id, d_v", [(0, 16), (5, 16), (5, 8), (29, 32)])
    def test_class_prototype_cached_read_only(self, class_id, d_v):
        v = SplitMix64(mix_seed(_PROTO_SALT, class_id)).gaussians(d_v)
        want = v / np.linalg.norm(v)
        got = class_prototype(class_id, d_v)
        assert got.tobytes() == want.tobytes()
        assert class_prototype(class_id, d_v) is got
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.0


class TestRepairs:
    def test_rule_clean_untouched_when_clean(self):
        rec = generate_corpus(spec(size=1))[0]
        assert rule_clean(rec) is rec

    def test_rule_clean_restores_pristine(self):
        recs = generate_corpus(spec(size=200, rates={"sensitive_noise": 0.5}, seed=8))
        dirty = [r for r in recs if "sensitive_noise" in r.corruption]
        assert dirty
        for r in dirty:
            fixed = rule_clean(r)
            assert fixed.caption == r.truth.pristine_caption
            assert "sensitive_noise" not in fixed.corruption

    def test_rule_clean_fully_sensitive_caption_goes_empty(self):
        rec = generate_corpus(spec(size=1))[0]
        rec = replace(rec, caption=(50, 51))
        out = rule_clean(rec)
        assert out.caption == ()
        # then the labels route rebuilds it
        rebuilt = label_to_caption(out)
        assert rebuilt.caption != ()

    def test_label_to_caption_single_label(self):
        rec = generate_corpus(spec(size=1))[0]
        rec = replace(rec, caption=(), object_labels=(12,))
        out = label_to_caption(rec)
        assert out.caption == LABEL_TEMPLATES[12]

    def test_label_to_caption_order_preserving(self):
        rec = generate_corpus(spec(size=1))[0]
        ab = label_to_caption(replace(rec, caption=(), object_labels=(12, 40)))
        ba = label_to_caption(replace(rec, caption=(), object_labels=(40, 12)))
        assert ab.caption != ba.caption
        assert sorted(ab.caption) == sorted(ba.caption)

    def test_label_to_caption_contains_each_template(self):
        recs = generate_corpus(spec(size=200, rates={"labels_only": 0.5}, seed=12))
        cases = [r for r in recs if "labels_only" in r.corruption]
        assert cases
        for r in cases:
            fixed = label_to_caption(r)
            cap = list(fixed.caption)
            for label in r.object_labels:
                frag = list(LABEL_TEMPLATES[label])
                # contiguous subsequence check
                assert any(cap[i:i + len(frag)] == frag
                           for i in range(len(cap) - len(frag) + 1))

    def test_template_gap(self):
        rec = generate_corpus(spec(size=1))[0]
        rec = replace(rec, caption=(), object_labels=(999,))
        with pytest.raises(TemplateGapError):
            label_to_caption(rec)

    def test_expand_noop_when_long_enough(self):
        rec = generate_corpus(spec(size=1))[0]
        assert len(rec.caption) >= MIN_CAPTION_LEN
        assert expand_caption(rec) is rec

    def test_expand_appends_only(self):
        recs = generate_corpus(spec(size=200, rates={"too_short": 0.5}, seed=13))
        cases = [r for r in recs if "too_short" in r.corruption]
        assert cases
        for r in cases:
            fixed = expand_caption(r)
            assert len(fixed.caption) >= MIN_CAPTION_LEN or fixed.caption == r.caption
            assert fixed.caption[:2] == r.caption[:2]

    @pytest.mark.parametrize("repair", [
        rule_clean,
        label_to_caption,
        expand_caption,
    ])
    def test_repairs_idempotent(self, repair):
        rates = {"mismatched": 0.1, "sensitive_noise": 0.2,
                 "labels_only": 0.2, "too_short": 0.2}
        for rec in generate_corpus(spec(size=100, rates=rates, seed=14)):
            once = repair(rec)
            twice = repair(once)
            assert once.caption == twice.caption
            assert once.corruption == twice.corruption


class TestFilter:
    def _trained(self, recs, seed=21):
        model = init_snapshot(seed)
        cfg = TrainConfig(epochs=6, lr=0.2, batch_size=32, anchor_mu=2.0)
        return federated_train(model, {"p": recs}, cfg, rounds=4,
                               plan=AggregationPlan(), seed=seed)

    def test_threshold_extremes(self):
        recs = generate_corpus(spec(size=30, seed=15))
        model = init_snapshot(1)
        kept, dropped = score_and_filter(model, recs, threshold=-1.0)
        assert len(kept) == 30 and not dropped
        kept, dropped = score_and_filter(model, recs, threshold=1.5)
        assert not kept and len(dropped) == 30

    def test_partition_exhaustive_disjoint(self):
        recs = generate_corpus(spec(size=60, rates={"mismatched": 0.3}, seed=16))
        recs = repair_corpus(recs)
        model = init_snapshot(2)
        kept, dropped = score_and_filter(model, recs, threshold=0.0)
        assert len(kept) + len(dropped) == 60
        assert not {r.id for r in kept} & {r.id for r in dropped}
        assert all(r.quality_score is not None for r in kept + dropped)

    def test_otsu_split_separates_planted_mismatches(self):
        clean_spec = spec(size=160, seed=17, classes=(0, 1, 2, 3, 4, 5))
        train = generate_corpus(clean_spec)
        model = self._trained(train)
        recs = generate_corpus(CorpusSpec(
            party="q", size=200, corruption_rates={"mismatched": 0.3},
            seed=18, scene_class_pool=(0, 1, 2, 3, 4, 5)))
        kept, dropped = score_and_filter(model, recs, threshold="auto")
        mism_dropped = sum(1 for r in dropped if "mismatched" in r.corruption)
        clean_dropped = sum(1 for r in dropped if r.clean)
        n_mism = sum(1 for r in recs if "mismatched" in r.corruption)
        n_clean = len(recs) - n_mism
        assert mism_dropped / n_mism >= 0.8
        assert clean_dropped / n_clean <= 0.2


class TestQualityLoop:
    def _setup(self, rates, sizes=(60, 50), seed=30):
        classes = (0, 1, 2, 3)
        corpora = {
            f"p{i}": generate_corpus(CorpusSpec(
                party=f"p{i}", size=s, corruption_rates=rates,
                seed=seed + i, scene_class_pool=classes))
            for i, s in enumerate(sizes)
        }
        eval_set = generate_corpus(CorpusSpec(
            party="eval", size=40, corruption_rates={}, seed=seed + 99,
            scene_class_pool=classes))
        cfg = TrainConfig(epochs=4, lr=0.2, batch_size=32, anchor_mu=2.0)

        def train_fn(model, cps):
            return federated_train(model, cps, cfg, rounds=2,
                                   plan=AggregationPlan(), seed=seed)

        return corpora, init_snapshot(seed), train_fn, eval_set

    def test_zero_iters_returns_initial_training_only(self):
        corpora, model0, train_fn, eval_set = self._setup({})
        model, corpora_out, report = quality_loop(
            corpora, model0, train_fn, eval_set, max_iters=0, target_metric=2.0,
            threshold="auto", floor=10)
        assert report == []
        assert {p: len(v) for p, v in corpora_out.items()} == \
               {p: len(v) for p, v in corpora.items()}

    def test_clean_fixture_drops_little(self):
        corpora, model0, train_fn, eval_set = self._setup({})
        model, corpora_out, report = quality_loop(
            corpora, model0, train_fn, eval_set, max_iters=1, target_metric=2.0,
            threshold="auto", floor=10)
        for it in report:
            total = sum(it.kept_counts.values()) + sum(it.dropped_counts.values())
            assert sum(it.dropped_counts.values()) <= 0.25 * total

    def test_kept_sets_monotone(self):
        corpora, model0, train_fn, eval_set = self._setup({"mismatched": 0.3})
        model, corpora_out, report = quality_loop(
            corpora, model0, train_fn, eval_set, max_iters=2, target_metric=2.0,
            threshold="auto", floor=10)
        for p in corpora:
            assert len(corpora_out[p]) <= len(corpora[p])

    def test_starvation(self):
        corpora, model0, train_fn, eval_set = self._setup({}, sizes=(12,))
        with pytest.raises(StarvationError):
            quality_loop(corpora, model0, train_fn, eval_set, max_iters=1,
                         target_metric=2.0, threshold=2.0, floor=10)


class TestTruthQuarantine:
    def test_truth_never_in_wire_or_file(self):
        recs = generate_corpus(spec(size=10, rates={"mismatched": 0.3}, seed=31))
        text = save_corpus(recs)
        # serialized records carry exactly the six public fields
        for line in text.strip().splitlines():
            assert len(line.split("\t")) == 6
        loaded = load_corpus(text)
        assert all(r.truth is None for r in loaded)


def test_corpus_file_roundtrip():
    recs = generate_corpus(spec(size=25, rates={"labels_only": 0.2}, seed=32))
    loaded = load_corpus(save_corpus(recs))
    assert len(loaded) == 25
    for a, b in zip(recs, loaded):
        assert a.id == b.id and a.party == b.party
        assert a.caption == b.caption and a.object_labels == b.object_labels
        assert a.corruption == b.corruption
        np.testing.assert_array_equal(a.image, b.image)


def test_otsu_bimodal():
    # any split inside the valley between the two modes is acceptable
    rng = np.random.default_rng(0)
    low = rng.normal(-0.5, 0.05, 300)
    high = rng.normal(0.6, 0.05, 300)
    t = otsu_threshold(np.concatenate([low, high]))
    assert low.max() <= t <= high.min()
