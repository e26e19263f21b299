import struct
from dataclasses import replace

import numpy as np
import pytest

from flmm.errors import (
    BatchError,
    CheckpointError,
    DegenerateInputError,
    IdentityError,
    NumericError,
    ShapeError,
    VocabularyError,
)
from flmm.fusion import text_anchor_loss_and_grads
from flmm.model import (
    BLOCK_NAMES,
    LORA_SCALE,
    ModelSnapshot,
    PairBatch,
    _normalize_rows,
    caption_scores,
    contrastive_loss_and_grads,
    frozen_checksum,
    init_snapshot,
    load_snapshot,
    pair_batch,
    pair_forward,
    save_snapshot,
    sgd_step,
    snapshot_blocks,
    text_features,
    with_blocks,
)
from flmm.orchestrator import blocks_field
from flmm.protocol import pack_blocks
from flmm.rng import SplitMix64

from support import ScalarStream, check_grads_fd, checkpoint_bytes, checkpoint_fields, \
    grads_bytes, identity_snapshot, malformed_checkpoints, oracle_anchor, \
    oracle_contrastive, random_batch, small_snapshot


def delta(s, tower):
    """A tower's adapter delta, as the forward pass adds it to the base."""
    return LORA_SCALE * (s.blocks[f"{tower}.b"] @ s.blocks[f"{tower}.a"])


class TestAdapters:
    def test_fresh_adapters_have_zero_delta(self):
        s = init_snapshot(1, d_v=8, d_t=6, d_emb=4, rank=2, vocab=16)
        for tower in ("vision", "text"):
            assert np.all(delta(s, tower) == 0.0)
            assert np.any(s.blocks[f"{tower}.a"] != 0.0)

    @pytest.mark.parametrize("rank", [0, 5])
    def test_rank_bounds_rejected(self, rank):
        with pytest.raises(ShapeError):
            init_snapshot(1, d_v=8, d_t=8, d_emb=4, rank=rank, vocab=16)

    def test_delta_shape(self):
        s = small_snapshot(2)
        assert delta(s, "vision").shape == s.w_v.shape == (4, 8)
        assert delta(s, "text").shape == s.w_t.shape == (4, 8)

    def test_scaling_convention_rank_doubling(self):
        # the scale is alpha / r with alpha = 2r; doubling r with factors
        # (a; a), (b, b)/2 must leave the delta unchanged
        s = small_snapshot(3)
        b = s.blocks
        doubled = with_blocks(s, {
            "vision.a": np.vstack([b["vision.a"]] * 2), "vision.b": np.hstack([b["vision.b"]] * 2) / 2,
            "text.a": np.vstack([b["text.a"]] * 2), "text.b": np.hstack([b["text.b"]] * 2) / 2,
        }, s.version)
        assert doubled.blocks["vision.a"].shape == (4, 8)
        for tower in ("vision", "text"):
            np.testing.assert_allclose(delta(s, tower), delta(doubled, tower), atol=1e-14)

    @pytest.mark.parametrize("block, shape", [
        ("vision.a", (2, 7)), ("vision.b", (3, 2)), ("text.a", (3, 8)),
        ("text.b", (4, 3)), ("bridge", (5, 5)), ("bridge", (4, 3)),
    ])
    def test_block_that_does_not_fit_the_frozen_weights_rejected(self, block, shape):
        s = small_snapshot(4)
        with pytest.raises(ShapeError):
            with_blocks(s, {block: np.zeros(shape)}, s.version)

    def test_missing_or_unknown_block_rejected(self):
        s = small_snapshot(5)
        blocks = dict(s.blocks)
        del blocks["text.b"]
        with pytest.raises(ShapeError):
            ModelSnapshot(s.w_v, s.w_t, s.token_embed, blocks, s.temperature)
        with pytest.raises(ShapeError):
            with_blocks(s, {"w_v": np.zeros((4, 8))}, s.version)

    def test_frozen_weights_that_do_not_fit_together_rejected(self):
        s = small_snapshot(7)
        for w_v, tok in ((s.w_v[:3], s.token_embed), (s.w_v, s.token_embed[:, :5])):
            with pytest.raises(ShapeError):
                ModelSnapshot(w_v, s.w_t, tok, s.blocks, s.temperature)

    def test_blocks_are_read_only_and_in_block_order(self):
        s = small_snapshot(6)
        with pytest.raises(TypeError):
            s.blocks["bridge"] = np.eye(4)
        assert tuple(s.blocks) == BLOCK_NAMES
        assert tuple(small_snapshot(6, with_bridge=False).blocks) == BLOCK_NAMES[:4]


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
        w = s.w_v + 2.0 * (s.blocks["vision.b"] @ s.blocks["vision.a"])
        u = s.blocks["bridge"] @ (w @ x)
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
        w = s.w_t + 2.0 * (s.blocks["text.b"] @ s.blocks["text.a"])
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
    rng = ScalarStream(seed)
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


def stacked(models: list) -> ModelSnapshot:
    """One snapshot whose blocks stack those of ``models``, which share the
    first one's frozen weights."""
    first = models[0]
    return with_blocks(first, {n: np.stack([m.blocks[n] for m in models])
                               for n in first.blocks}, first.version)


def three_rows(bridge: bool) -> list:
    """Three models with different blocks on small_snapshot(80)'s frozen weights."""
    base = small_snapshot(80, with_bridge=bridge)
    return [base] + [with_blocks(base, snapshot_blocks(small_snapshot(s, with_bridge=bridge)),
                                 base.version) for s in (81, 82)]


def row(grads: dict, k: int) -> dict:
    return {n: g[k] for n, g in grads.items()}


class TestStackedModel:
    @pytest.mark.parametrize("n", [2, 5, 16])
    @pytest.mark.parametrize("bridge", [True, False])
    def test_each_row_has_the_bits_of_its_model_alone(self, bridge, n):
        models = three_rows(bridge)
        batches = [pair_batch(models[0], random_batch(90 + k, n=n)) for k in range(3)]
        stack = stacked(models)
        fwd = pair_forward(stack, PairBatch(np.stack([b.xs for b in batches]),
                                            np.stack([b.ts for b in batches])))
        assert len(fwd) == n and fwd.z_v.shape == (3, n, 4)
        loss, grads = contrastive_loss_and_grads(stack, fwd)
        a_loss, a_grads = text_anchor_loss_and_grads(stack, fwd, 2.0)
        assert loss.shape == a_loss.shape == (3,)
        for k, (m, b) in enumerate(zip(models, batches)):
            alone = pair_forward(m, b)
            assert fwd.z_v[k].tobytes() == alone.z_v.tobytes()
            assert fwd.z_t[k].tobytes() == alone.z_t.tobytes()
            assert grads_bytes(loss[k], row(grads, k)) \
                == grads_bytes(*oracle_contrastive(m, alone))
            assert grads_bytes(a_loss[k], row(a_grads, k)) \
                == grads_bytes(*oracle_anchor(m, alone, 2.0))

    @pytest.mark.parametrize("bridge", [True, False])
    def test_an_anchor_with_a_mu_per_row_gives_each_row_its_bytes_alone(self, bridge):
        """One anchor pass over the whole stack, one row's mu zero: every
        row, the zero one too, gets the loss and gradient bytes of its
        model alone with its own mu."""
        models = three_rows(bridge)
        batches = [pair_batch(models[0], random_batch(95 + k, n=6)) for k in range(3)]
        fwd = pair_forward(stacked(models), PairBatch(np.stack([b.xs for b in batches]),
                                                      np.stack([b.ts for b in batches])))
        mus = np.array([0.7, 0.0, 2.0])
        loss, grads = text_anchor_loss_and_grads(fwd.snapshot, fwd, mus)
        for k, (m, b) in enumerate(zip(models, batches)):
            assert grads_bytes(loss[k], row(grads, k)) \
                == grads_bytes(*oracle_anchor(m, pair_forward(m, b), float(mus[k])))

    def test_a_single_model_loss_is_a_float(self):
        s = small_snapshot(83)
        fwd = pair_forward(s, random_batch(83))
        assert type(contrastive_loss_and_grads(s, fwd)[0]) is float
        assert type(text_anchor_loss_and_grads(s, fwd, 2.0)[0]) is float

    def test_sgd_step_steps_each_row(self):
        models = three_rows(True)
        grads = [contrastive_loss_and_grads(m, random_batch(84 + k))[1]
                 for k, m in enumerate(models)]
        got = sgd_step(stacked(models), {n: np.stack([g[n] for g in grads])
                                         for n in grads[0]}, 0.1)
        for k, (m, g) in enumerate(zip(models, grads)):
            assert save_snapshot(with_blocks(m, row(got.blocks, k), m.version)) \
                == save_snapshot(sgd_step(m, g, 0.1))

    def test_a_stack_is_refused_by_checkpoint_wire_and_round_log(self):
        stack = stacked(three_rows(True))
        with pytest.raises(ShapeError, match="not one matrix"):
            save_snapshot(stack)
        with pytest.raises(ShapeError, match="not one matrix"):
            pack_blocks(stack.blocks)
        with pytest.raises(ShapeError, match="not one matrix"):
            blocks_field(stack)

    def test_blocks_of_different_row_counts_rejected(self):
        models = three_rows(False)
        stack = stacked(models)
        with pytest.raises(ShapeError):
            with_blocks(stack, {"text.b": stack.blocks["text.b"][:2]}, 0)
        with pytest.raises(ShapeError):
            with_blocks(models[0], {"vision.a": stack.blocks["vision.a"]}, 0)


def check_grads_and_return(s, batch):
    loss, grads = contrastive_loss_and_grads(s, batch)
    check_grads_fd(s, lambda snap: contrastive_loss_and_grads(snap, batch)[0], grads)
    return loss, grads


class TestSgdStep:
    def test_zero_lr_keeps_snapshot(self):
        s = small_snapshot(13)
        _, g = contrastive_loss_and_grads(s, random_batch(13))
        s2 = sgd_step(s, g, 0.0)
        for n, m in s.blocks.items():
            np.testing.assert_array_equal(m, s2.blocks[n])

    def test_inverse_steps_cancel_exactly(self):
        s = small_snapshot(14)
        _, g = contrastive_loss_and_grads(s, random_batch(14))
        s2 = sgd_step(sgd_step(s, g, 0.1), g, -0.1)
        # (x - d) + d can differ from x by one ulp; that is the only slack
        for n, m in s.blocks.items():
            np.testing.assert_allclose(m, s2.blocks[n], atol=1e-15)

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
        g = zero_grads(s)
        g["vision.a"][0, 0] = np.nan
        with pytest.raises(NumericError):
            sgd_step(s, g, 0.1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", BLOCK_NAMES)
    def test_non_finite_gradient_rejected_in_every_block(self, block, value):
        s = small_snapshot(22)
        g = zero_grads(s)
        g[block][-1, -1] = value
        with pytest.raises(NumericError):
            sgd_step(s, g, 0.1)

    def test_bridge_gradient_for_a_bridgeless_model_rejected(self):
        s = small_snapshot(27, with_bridge=False)
        g = zero_grads(s)
        g["bridge"] = np.zeros((4, 4))
        with pytest.raises(ShapeError):
            sgd_step(s, g, 0.1)

    @pytest.mark.parametrize("block", BLOCK_NAMES)
    def test_gradient_missing_a_block_rejected(self, block):
        s = small_snapshot(28)
        g = zero_grads(s)
        del g[block]
        with pytest.raises(ShapeError):
            sgd_step(s, g, 0.1)

    @pytest.mark.parametrize("bridge", [True, False])
    def test_step_is_block_minus_lr_times_gradient(self, bridge):
        s = small_snapshot(29, with_bridge=bridge)
        _, g = contrastive_loss_and_grads(s, random_batch(29))
        stepped = sgd_step(s, g, 0.05)
        before, after = snapshot_blocks(s), snapshot_blocks(stepped)
        assert after.keys() == before.keys() == g.keys()
        for n, b in before.items():
            assert after[n].tobytes() == (b - 0.05 * g[n]).tobytes()
        assert stepped.token_embed is s.token_embed
        assert stepped.w_v is s.w_v and stepped.w_t is s.w_t


def zero_grads(s) -> dict:
    return {n: np.zeros_like(m) for n, m in snapshot_blocks(s).items()}


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
        np.testing.assert_array_equal(s.w_v, s2.w_v)
        np.testing.assert_array_equal(s.w_t, s2.w_t)
        np.testing.assert_array_equal(s.token_embed, s2.token_embed)
        assert s2.blocks.keys() == s.blocks.keys()
        for n, m in s.blocks.items():
            np.testing.assert_array_equal(m, s2.blocks[n])
        assert s.temperature == s2.temperature
        assert s.version == s2.version

    def test_roundtrip_without_bridge(self):
        s = small_snapshot(23, with_bridge=False)
        assert "bridge" not in load_snapshot(save_snapshot(s)).blocks

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

    # length and trailing CRC field of save_snapshot(init_snapshot(5, **kw)); the
    # CRC of a whole file is the CRC32 residue, the same for every checkpoint
    @pytest.mark.parametrize("kw, length, crc", [
        ({}, 11611, 0xA61E2F2E),
        ({"with_bridge": False}, 11091, 0xBB16FAF4),
        ({"rank": 1}, 11227, 0xFB848B21),
        ({"d_v": 12, "d_t": 10, "d_emb": 6, "rank": 3, "vocab": 32}, 4811, 0x66CD3A44),
    ], ids=["defaults", "no_bridge", "rank_1", "small"])
    def test_golden_checkpoint_bytes(self, kw, length, crc):
        data = save_snapshot(init_snapshot(5, **kw))
        assert (len(data), struct.unpack("<I", data[-4:])[0]) == (length, crc)
        assert save_snapshot(load_snapshot(data)) == data

    def test_field_by_field_writer_matches_save_snapshot(self):
        s = small_snapshot(30)
        assert checkpoint_bytes(checkpoint_fields(s), s.blocks["bridge"], s.temperature,
                                s.version) == save_snapshot(s)

    @pytest.mark.parametrize("case", ["bridge_5x5", "vision_b_7_rows"])
    def test_blocks_that_do_not_fit_the_frozen_weights_rejected(self, case):
        with pytest.raises((ShapeError, CheckpointError)):
            load_snapshot(malformed_checkpoints()[case])

    def test_bytes_after_the_version_field_rejected(self):
        data = malformed_checkpoints()["trailing_junk"]
        assert data[:-8] == save_snapshot(init_snapshot(5))[:-4]
        with pytest.raises(CheckpointError, match="4 bytes after the version field"):
            load_snapshot(data)
