import numpy as np
import pytest

from flmm.errors import CoverageError, EmptyProbeError, IdentityError
from flmm.fusion import (
    ConsensusMap,
    ProbeItem,
    ProbeSet,
    build_consensus,
    client_probe_embeddings,
    compose_losses,
    distillation_loss_and_grads,
    load_probe,
    save_probe,
    text_anchor_loss_and_grads,
)
from flmm.model import encode_image, encode_text, load_snapshot, pair_batch, \
    pair_forward, save_snapshot, sgd_step
from flmm.rng import SplitMix64

from support import check_grads_fd, grads_bytes, random_batch, small_snapshot


def mixed_probe(seed=50, n_img=3, n_txt=3):
    rng = SplitMix64(seed)
    items = [ProbeItem("image", f"img{i}", image=rng.gaussians(8))
             for i in range(n_img)]
    items += [ProbeItem("text", f"txt{i}",
                        tokens=tuple(int(rng.next_u64() % 16) for _ in range(3)))
              for i in range(n_txt)]
    return ProbeSet(probe_id=f"probe-{seed}", items=tuple(items))


class TestProbeEmbeddings:
    def test_text_only_client_skips_images(self):
        s = small_snapshot(51)
        probe = mixed_probe(n_img=3, n_txt=0)
        vecs, skip = client_probe_embeddings(s, probe, modalities={"text"})
        assert skip == [True, True, True]
        assert all(v is None for v in vecs)

    def test_single_item_matches_encoder(self):
        s = small_snapshot(52)
        probe = mixed_probe(n_img=1, n_txt=0)
        vecs, skip = client_probe_embeddings(s, probe)
        np.testing.assert_array_equal(vecs[0], encode_image(s, probe.items[0].image))

    def test_mixed_probe_matches_per_item_encoders(self):
        s = small_snapshot(53)
        probe = mixed_probe()
        vecs, skip = client_probe_embeddings(s, probe)
        assert skip == [False] * 6
        for item, v in zip(probe.items, vecs):
            if item.modality == "image":
                np.testing.assert_array_equal(v, encode_image(s, item.image))
            else:
                np.testing.assert_array_equal(v, encode_text(s, list(item.tokens)))

    def test_empty_probe_rejected(self):
        with pytest.raises(EmptyProbeError):
            ProbeSet(probe_id="x", items=())


class TestConsensus:
    def test_single_client_identity(self):
        s = small_snapshot(54)
        probe = mixed_probe()
        sub = client_probe_embeddings(s, probe)
        cons = build_consensus(probe, 0, {"c1": sub})
        for item, v in zip(probe.items, sub[0]):
            np.testing.assert_allclose(cons.embeddings[item.item_id], v, atol=1e-12)

    def test_identical_clients_idempotent(self):
        s = small_snapshot(55)
        probe = mixed_probe()
        sub = client_probe_embeddings(s, probe)
        for n in (2, 5):
            cons = build_consensus(probe, 0, {f"c{i}": sub for i in range(n)})
            for item, v in zip(probe.items, sub[0]):
                np.testing.assert_allclose(cons.embeddings[item.item_id], v, atol=1e-12)

    def test_antipodal_embeddings_flagged_degenerate(self):
        probe = mixed_probe(n_img=1, n_txt=0)
        v = np.array([1.0, 0.0, 0.0, 0.0])
        cons = build_consensus(probe, 0, {
            "a": ([v], [False]), "b": ([-v], [False])})
        assert cons.degenerate == ("img0",)
        assert "img0" not in cons.embeddings

    def test_uncovered_item_raises(self):
        probe = mixed_probe(n_img=1, n_txt=0)
        with pytest.raises(CoverageError):
            build_consensus(probe, 0, {"a": ([None], [True])})


class TestDistillation:
    def test_lambda_zero(self):
        s = small_snapshot(56)
        probe = mixed_probe()
        cons = build_consensus(probe, 0, {"c": client_probe_embeddings(s, probe)})
        loss, g = distillation_loss_and_grads(s, probe, cons, 0.0)
        assert loss == 0.0
        assert np.all(g.d_vision_a == 0) and np.all(g.d_text_b == 0)

    def test_zero_loss_at_consensus(self):
        s = small_snapshot(57)
        probe = mixed_probe()
        cons = build_consensus(probe, 0, {"c": client_probe_embeddings(s, probe)})
        loss, _ = distillation_loss_and_grads(s, probe, cons, 2.0)
        assert loss == pytest.approx(0.0, abs=1e-24)

    def test_probe_mismatch_rejected(self):
        s = small_snapshot(58)
        probe = mixed_probe()
        cons = ConsensusMap(probe_id="other", round=0, embeddings={})
        with pytest.raises(IdentityError):
            distillation_loss_and_grads(s, probe, cons, 1.0)

    def test_gradients_match_finite_differences(self):
        teacher = small_snapshot(59)
        student = small_snapshot(60)
        probe = mixed_probe()
        cons = build_consensus(probe, 0, {"t": client_probe_embeddings(teacher, probe)})
        loss, g = distillation_loss_and_grads(student, probe, cons, 1.5)
        assert loss > 0
        check_grads_fd(student, lambda snap: distillation_loss_and_grads(
            snap, probe, cons, 1.5)[0], g)

    def test_distillation_pull(self):
        teacher = small_snapshot(61)
        student = small_snapshot(62)
        probe = mixed_probe()
        cons = build_consensus(probe, 0, {"t": client_probe_embeddings(teacher, probe)})
        loss0, g = distillation_loss_and_grads(student, probe, cons, 1.0)
        loss1, _ = distillation_loss_and_grads(sgd_step(student, g, 1e-2),
                                               probe, cons, 1.0)
        assert loss1 < loss0


class TestTextAnchor:
    def test_mu_zero(self):
        s = small_snapshot(63)
        loss, g = text_anchor_loss_and_grads(s, random_batch(63), 0.0)
        assert loss == 0.0 and np.all(g.d_vision_a == 0)

    def test_text_gradients_structurally_zero(self):
        s = small_snapshot(64)
        loss, g = text_anchor_loss_and_grads(s, random_batch(64), 0.7)
        assert loss > 0
        assert np.all(g.d_text_a == 0.0)
        assert np.all(g.d_text_b == 0.0)

    def test_vision_gradients_match_finite_differences(self):
        s = small_snapshot(65)
        batch = random_batch(65)
        _, g = text_anchor_loss_and_grads(s, batch, 0.7)
        # the text target is stop-gradient, so fd only applies to the
        # vision-side blocks; text blocks are checked structurally above
        check_grads_fd(s, lambda snap: text_anchor_loss_and_grads(
            snap, batch, 0.7)[0], g, blocks={"vision.a", "vision.b", "bridge"})

    @pytest.mark.parametrize("bridge", [True, False])
    def test_same_bytes_for_every_form(self, bridge):
        s = small_snapshot(71, with_bridge=bridge)
        pairs = random_batch(71, n=6)
        want = grads_bytes(*text_anchor_loss_and_grads(s, pairs, 0.7))
        for form in (pair_batch(s, pairs), pair_forward(s, pairs)):
            assert grads_bytes(*text_anchor_loss_and_grads(s, form, 0.7)) == want

    def test_forward_of_another_snapshot_raises(self):
        s = small_snapshot(72)
        fwd = pair_forward(s, random_batch(72))
        with pytest.raises(IdentityError):
            text_anchor_loss_and_grads(load_snapshot(save_snapshot(s)), fwd, 0.7)


class TestComposeLosses:
    def test_single_part_identity(self):
        s = small_snapshot(66)
        part = text_anchor_loss_and_grads(s, random_batch(66), 0.5)
        loss, g = compose_losses([1.0], [part])
        assert loss == part[0]
        np.testing.assert_array_equal(g.d_vision_a, part[1].d_vision_a)

    def test_opposite_parts_cancel(self):
        s = small_snapshot(67)
        _, g = text_anchor_loss_and_grads(s, random_batch(67), 0.5)
        _, total = compose_losses([1.0, 1.0], [(0.0, g), (0.0, g.scaled(-1.0))])
        assert np.all(total.d_vision_a == 0.0)
        assert np.all(total.d_bridge == 0.0)

    def test_linearity(self):
        s = small_snapshot(68)
        p1 = text_anchor_loss_and_grads(s, random_batch(68), 0.5)
        p2 = text_anchor_loss_and_grads(s, random_batch(69), 0.3)
        loss, g = compose_losses([2.0, 3.0], [p1, p2])
        assert loss == pytest.approx(2 * p1[0] + 3 * p2[0], rel=1e-14)
        np.testing.assert_allclose(
            g.d_vision_b, 2 * p1[1].d_vision_b + 3 * p2[1].d_vision_b, atol=1e-15)


def test_probe_file_roundtrip():
    probe = mixed_probe(70)
    loaded = load_probe(probe.probe_id, save_probe(probe))
    assert loaded.probe_id == probe.probe_id
    assert len(loaded.items) == len(probe.items)
    for a, b in zip(probe.items, loaded.items):
        assert a.modality == b.modality and a.item_id == b.item_id
        if a.modality == "image":
            np.testing.assert_array_equal(a.image, b.image)
        else:
            assert a.tokens == b.tokens
