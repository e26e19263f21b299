import numpy as np
import pytest
from dataclasses import replace

from flmm.errors import (
    BatchError,
    CheckpointError,
    DegenerateInputError,
    IdentityError,
    NumericError,
    ShapeError,
    VocabularyError,
)
from flmm.model import (
    AdapterPair,
    _normalize_rows,
    GradientSet,
    caption_scores,
    contrastive_loss_and_grads,
    frozen_checksum,
    init_snapshot,
    load_snapshot,
    pair_batch,
    pair_forward,
    save_snapshot,
    sgd_step,
    text_features,
)
from flmm.rng import SplitMix64

from support import check_grads_fd, grads_bytes, identity_snapshot, oracle_contrastive, \
    random_batch, small_snapshot


class TestAdapterPair:
    def test_fresh_adapter_has_zero_delta(self):
        ad = AdapterPair.init(8, 4, 2, SplitMix64(1))
        assert np.all(ad.delta() == 0.0)
        assert ad.alpha == 4.0

    def test_rank_bounds_rejected(self):
        with pytest.raises(ShapeError):
            AdapterPair(a=np.zeros((5, 4)), b=np.zeros((4, 5)), rank=5, alpha=1.0)

    def test_delta_shape(self):
        rng = SplitMix64(2)
        ad = AdapterPair(a=rng.normal_matrix(2, 8), b=rng.normal_matrix(4, 2),
                         rank=2, alpha=4.0)
        assert ad.delta().shape == (4, 8)

    def test_scaling_convention_rank_doubling(self):
        # doubling r with alpha -> 2 alpha and factors (a; a), (b, b)/2
        # must leave the delta unchanged: exercises delta = (alpha/r) b a
        rng = SplitMix64(3)
        a = rng.normal_matrix(2, 8)
        b = rng.normal_matrix(4, 2)
        ad1 = AdapterPair(a=a, b=b, rank=2, alpha=4.0)
        ad2 = AdapterPair(a=np.vstack([a, a]), b=np.hstack([b, b]) / 2,
                          rank=4, alpha=8.0)
        np.testing.assert_allclose(ad1.delta(), ad2.delta(), atol=1e-14)


def embed(s, x, tokens=(1,)):
    """One (image, caption) pair through both towers: its two unit embeddings."""
    fwd = pair_forward(s, [(np.asarray(x, dtype=np.float64), list(tokens))])
    return fwd.z_v[0], fwd.z_t[0]


class TestEncoders:
    def test_identity_base_normalizes_input(self):
        s = identity_snapshot(d=4)
        z_v, _ = embed(s, [3.0, 4.0, 0.0, 0.0])
        np.testing.assert_allclose(z_v, [0.6, 0.8, 0.0, 0.0], atol=1e-15)

    def test_identity_bridge_is_noop(self):
        s_no = identity_snapshot(d=4, with_bridge=False)
        s_br = identity_snapshot(d=4, with_bridge=True)
        x = SplitMix64(4).gaussians(4)
        np.testing.assert_array_equal(embed(s_no, x)[0], embed(s_br, x)[0])

    def test_unit_norm(self):
        s = small_snapshot(7)
        for seed in range(5):
            z_v, _ = embed(s, SplitMix64(seed).gaussians(8))
            assert abs(np.linalg.norm(z_v) - 1.0) < 1e-12
        _, z_t = embed(s, np.ones(8), [1, 2, 3])
        assert abs(np.linalg.norm(z_t) - 1.0) < 1e-12

    def test_image_oracle(self):
        # independent naive matrix-multiply-then-normalize reimplementation
        s = small_snapshot(8)
        x = SplitMix64(88).gaussians(8)
        w = s.vision.w_base + (s.vision.adapter.alpha / s.vision.adapter.rank) * (
            s.vision.adapter.b @ s.vision.adapter.a)
        u = s.bridge @ (w @ x)
        np.testing.assert_allclose(embed(s, x)[0], u / np.linalg.norm(u), atol=1e-12)

    def test_text_single_token_is_normalized_row(self):
        s = identity_snapshot(d=4)
        k = 5
        row = s.token_embed[k]
        np.testing.assert_allclose(embed(s, np.ones(4), [k])[1],
                                   row / np.linalg.norm(row), atol=1e-14)

    def test_text_mean_invariant_under_repetition(self):
        s = small_snapshot(9)
        x = np.ones(8)
        np.testing.assert_array_equal(embed(s, x, [3])[1], embed(s, x, [3, 3, 3])[1])

    def test_text_oracle(self):
        s = small_snapshot(10)
        tokens = [2, 5, 7]
        t = s.token_embed[tokens].mean(axis=0)
        w = s.text.w_base + (s.text.adapter.alpha / s.text.adapter.rank) * (
            s.text.adapter.b @ s.text.adapter.a)
        u = w @ t
        np.testing.assert_allclose(embed(s, np.ones(8), tokens)[1],
                                   u / np.linalg.norm(u), atol=1e-12)

    def test_errors(self):
        s = small_snapshot(11)
        with pytest.raises(ShapeError):
            embed(s, np.zeros(5))
        with pytest.raises(DegenerateInputError):
            embed(identity_snapshot(4), np.zeros(4))
        with pytest.raises(DegenerateInputError):
            embed(s, np.ones(8), [])
        with pytest.raises(VocabularyError):
            embed(s, np.ones(8), [999])


def random_captions(seed: int, n: int, vocab: int, max_len: int = 12) -> list:
    rng = SplitMix64(seed)
    return [[int(rng.next_u64() % vocab) for _ in range(1 + rng.next_u64() % max_len)]
            for _ in range(n)]


    @pytest.mark.parametrize("shape", [(1, 1), (2, 8), (7, 16), (33, 5)])
    def test_row_norms_are_linalg_norm_bits(self, shape):
        u = SplitMix64(shape[0] * 100 + shape[1]).normal_matrix(*shape, std=3.0)
        z, norms = _normalize_rows(u)
        assert norms.tobytes() == np.linalg.norm(u, axis=1).tobytes()
        assert z.tobytes() == (u / np.linalg.norm(u, axis=1)[:, None]).tobytes()

    def test_zero_row_raises(self):
        with pytest.raises(DegenerateInputError):
            _normalize_rows(np.array([[1.0, 2.0], [0.0, 0.0]]))


class TestTextFeatures:
    @pytest.mark.parametrize("vocab", [64, 512])
    def test_bytes_equal_per_caption_mean(self, vocab):
        s = init_snapshot(21, vocab=vocab)
        caps = random_captions(vocab, 2000, vocab)
        want = np.stack([s.token_embed[np.asarray(t, dtype=np.intp)].mean(axis=0)
                         for t in caps])
        got = text_features(s, caps)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_tuples_and_lists_agree(self):
        s = init_snapshot(22)
        caps = random_captions(5, 50, 64)
        assert text_features(s, [tuple(c) for c in caps]).tobytes() == \
            text_features(s, caps).tobytes()

    def test_empty_caption_raises(self):
        s = small_snapshot(23)
        with pytest.raises(DegenerateInputError):
            text_features(s, [[1, 2], []])

    @pytest.mark.parametrize("bad", [-1, 16, 999, 2**70, -(2**70)])
    def test_token_outside_vocab_raises(self, bad):
        s = small_snapshot(24)  # vocab 16
        with pytest.raises(VocabularyError, match=str(bad)):
            text_features(s, [[1, 2], [3, bad, 4]])

    @pytest.mark.parametrize("caps, error", [
        # first offending caption is the empty one, though a longer bad
        # caption shares a length group with an earlier good one
        ([[1, 2, 3], [], [1, 99, 2]], DegenerateInputError),
        ([[1, 2, 3], [1, 99, 2], []], VocabularyError),
        ([[5], [-3], [], [7, 8]], VocabularyError),
        ([[5], [], [-3], [7, 8]], DegenerateInputError),
    ])
    def test_first_bad_caption_decides(self, caps, error):
        with pytest.raises(error):
            text_features(small_snapshot(25), caps)

    def test_first_bad_token_named(self):
        with pytest.raises(VocabularyError, match="token id 20 "):
            text_features(small_snapshot(26), [[0, 1], [20, -1, 30]])


class TestContrastiveLoss:
    def test_orthogonal_pairs_closed_form(self):
        # 2x2 logit matrix with diagonal 1, off-diagonal 0, tau = 1:
        # per-direction CE = ln(1 + e^{-1}) for each row/column
        s = identity_snapshot(d=4, temperature=1.0)
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0, 0.0])
        tok = s.token_embed.copy()
        tok[0] = e1
        tok[1] = e2
        s = replace(s, token_embed=tok)
        loss, _ = contrastive_loss_and_grads(s, [(e1, [0]), (e2, [1])])
        assert abs(loss - np.log(1 + np.exp(-1.0))) < 1e-12

    @pytest.mark.parametrize("seed, n", [(70, 2), (71, 3), (72, 16), (73, 32)])
    @pytest.mark.parametrize("bridge", [True, False])
    def test_bit_identical_to_high_level_numpy_oracle(self, seed, n, bridge):
        s = small_snapshot(seed, with_bridge=bridge)
        fwd = pair_forward(s, random_batch(seed + 1, n=n))
        assert grads_bytes(*contrastive_loss_and_grads(s, fwd)) \
            == grads_bytes(*oracle_contrastive(s, fwd))

    def test_batch_too_small(self):
        s = small_snapshot(12)
        with pytest.raises(BatchError):
            contrastive_loss_and_grads(s, [(np.ones(8), [1])])

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_finite_differences(self, seed):
        s = small_snapshot(100 + seed)
        batch = random_batch(200 + seed)
        _, grads = check_grads_and_return(s, batch)
        assert grads is not None

    def test_duplicated_batch_golden_loss(self):
        # golden value pinned after the finite-difference validation run
        s = small_snapshot(42)
        batch = random_batch(42)
        loss1, _ = contrastive_loss_and_grads(s, batch)
        loss2, _ = contrastive_loss_and_grads(s, batch + batch)
        assert loss2 > loss1  # duplicates add confusable logits
        assert loss1 == pytest.approx(1.444245760100252, abs=1e-12)
        assert loss2 == pytest.approx(2.137392940660198, abs=1e-12)


class TestPairForward:
    @pytest.mark.parametrize("bridge", [True, False])
    def test_contrastive_same_bytes_for_every_form(self, bridge):
        s = small_snapshot(18, with_bridge=bridge)
        pairs = random_batch(18, n=6)
        want = grads_bytes(*contrastive_loss_and_grads(s, pairs))
        for form in (pair_batch(s, pairs), pair_forward(s, pairs),
                     pair_forward(s, pair_batch(s, pairs))):
            assert grads_bytes(*contrastive_loss_and_grads(s, form)) == want

    def test_forward_fields_and_passthrough(self):
        s = small_snapshot(19)
        pairs = random_batch(19, n=5)
        fwd = pair_forward(s, pairs)
        assert len(fwd) == 5 and fwd.snapshot is s
        one_by_one = [embed(s, x, t) for x, t in pairs]
        np.testing.assert_allclose(
            fwd.z_v, np.stack([z_v for z_v, _ in one_by_one]), atol=1e-15)
        np.testing.assert_allclose(
            fwd.z_t, np.stack([z_t for _, z_t in one_by_one]), atol=1e-15)
        assert pair_forward(s, fwd) is fwd

    def test_one_row_forward_raises_batch_error(self):
        s = small_snapshot(20)
        with pytest.raises(BatchError):
            contrastive_loss_and_grads(s, pair_forward(s, random_batch(20, n=1)))

    def test_forward_of_another_snapshot_raises(self):
        s = small_snapshot(21)
        fwd = pair_forward(s, random_batch(21))
        other = load_snapshot(save_snapshot(s))
        with pytest.raises(IdentityError):
            contrastive_loss_and_grads(other, fwd)


def check_grads_and_return(s, batch):
    loss, grads = contrastive_loss_and_grads(s, batch)
    check_grads_fd(s, lambda snap: contrastive_loss_and_grads(snap, batch)[0], grads)
    return loss, grads


class TestSgdStep:
    def test_zero_lr_keeps_snapshot(self):
        s = small_snapshot(13)
        _, g = contrastive_loss_and_grads(s, random_batch(13))
        s2 = sgd_step(s, g, 0.0)
        np.testing.assert_array_equal(s.vision.adapter.a, s2.vision.adapter.a)
        np.testing.assert_array_equal(s.bridge, s2.bridge)

    def test_inverse_steps_cancel_exactly(self):
        s = small_snapshot(14)
        _, g = contrastive_loss_and_grads(s, random_batch(14))
        s2 = sgd_step(sgd_step(s, g, 0.1), g, -0.1)
        # (x - d) + d can differ from x by one ulp; that is the only slack
        np.testing.assert_allclose(s.vision.adapter.a, s2.vision.adapter.a, atol=1e-15)
        np.testing.assert_allclose(s.text.adapter.b, s2.text.adapter.b, atol=1e-15)
        np.testing.assert_allclose(s.bridge, s2.bridge, atol=1e-15)

    def test_descent_on_fixture(self):
        s = small_snapshot(15)
        batch = random_batch(15)
        loss0, g = contrastive_loss_and_grads(s, batch)
        loss1, _ = contrastive_loss_and_grads(sgd_step(s, g, 1e-3), batch)
        assert loss1 < loss0

    def test_frozen_base_bit_identical(self):
        s = small_snapshot(16)
        checksum = frozen_checksum(s)
        for seed in range(3):
            _, g = contrastive_loss_and_grads(s, random_batch(seed))
            s = sgd_step(s, g, 0.01)
        assert frozen_checksum(s) == checksum
        assert s.version == 0  # version only changes at aggregation

    def test_nan_gradient_rejected(self):
        s = small_snapshot(17)
        g = GradientSet.zeros_like(s)
        bad = g.d_vision_a.copy()
        bad[0, 0] = np.nan
        g = GradientSet(bad, g.d_vision_b, g.d_text_a, g.d_text_b, g.d_bridge)
        with pytest.raises(NumericError):
            sgd_step(s, g, 0.1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", ["d_vision_a", "d_vision_b", "d_text_a",
                                       "d_text_b", "d_bridge"])
    def test_non_finite_gradient_rejected_in_every_block(self, block, value):
        s = small_snapshot(22)
        g = GradientSet.zeros_like(s)
        bad = getattr(g, block).copy()
        bad[-1, -1] = value
        with pytest.raises(NumericError):
            sgd_step(s, replace(g, **{block: bad}), 0.1)


class TestAlignmentAndRetrieval:
    def test_identical_unit_vectors_score_one(self):
        s = identity_snapshot(d=4)
        x = s.token_embed[3]
        np.testing.assert_allclose(caption_scores(s, np.stack([x, -x]), [[3]]),
                                   [[1.0], [-1.0]], atol=1e-12)

    def test_alignment_is_encoder_recomposition(self):
        s = small_snapshot(18)
        x = SplitMix64(18).gaussians(8)
        tokens = [1, 4]
        z_v, z_t = embed(s, x, tokens)
        assert caption_scores(s, x[None, :], [tokens])[0, 0] == pytest.approx(
            float(z_v @ z_t), abs=1e-15)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self):
        s = small_snapshot(22)
        s2 = load_snapshot(save_snapshot(s))
        np.testing.assert_array_equal(s.vision.w_base, s2.vision.w_base)
        np.testing.assert_array_equal(s.vision.adapter.a, s2.vision.adapter.a)
        np.testing.assert_array_equal(s.text.adapter.b, s2.text.adapter.b)
        np.testing.assert_array_equal(s.token_embed, s2.token_embed)
        np.testing.assert_array_equal(s.bridge, s2.bridge)
        assert s.temperature == s2.temperature
        assert s.version == s2.version

    def test_roundtrip_without_bridge(self):
        s = small_snapshot(23, with_bridge=False)
        assert load_snapshot(save_snapshot(s)).bridge is None

    def test_flipped_byte_detected(self):
        data = bytearray(save_snapshot(small_snapshot(24)))
        data[100] ^= 0x01
        with pytest.raises(CheckpointError):
            load_snapshot(bytes(data))

    def test_truncation_detected(self):
        data = save_snapshot(small_snapshot(25))
        with pytest.raises(CheckpointError):
            load_snapshot(data[: len(data) // 2])

    def test_magic_bytes(self):
        assert save_snapshot(small_snapshot(26))[:4] == b"FLMM"
