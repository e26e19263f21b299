import numpy as np
import pytest

from flmm.errors import IdentityError, ShapeError
from flmm.fusion import compose_losses, text_anchor_loss_and_grads
from flmm.model import BLOCK_NAMES, contrastive_loss_and_grads, load_snapshot, \
    pair_batch, pair_forward, save_snapshot, sgd_step

from support import ConsensusMap, EmptyProbeError, ProbeItem, ProbeSet, ScalarStream, \
    check_grads_fd, distillation_loss_and_grads, grads_bytes, oracle_anchor, \
    random_batch, small_snapshot


def mixed_probe(seed=50, n_img=3, n_txt=3):
    rng = ScalarStream(seed)
    items = [ProbeItem("image", f"img{i}", image=rng.gaussians(8))
             for i in range(n_img)]
    items += [ProbeItem("text", f"txt{i}",
                        tokens=tuple(int(rng.next_u64() % 16) for _ in range(3)))
              for i in range(n_txt)]
    return ProbeSet(probe_id=f"probe-{seed}", items=tuple(items))


def own_consensus(snapshot, probe):
    """The snapshot's own embedding of each probe item as a consensus map;
    image item i and text item i go through pair_forward as one pair."""
    imgs = [it for it in probe.items if it.modality == "image"]
    txts = [it for it in probe.items if it.modality == "text"]
    fwd = pair_forward(snapshot, [(a.image, list(b.tokens)) for a, b in zip(imgs, txts)])
    emb = {a.item_id: z for a, z in zip(imgs, fwd.z_v)}
    emb.update({b.item_id: z for b, z in zip(txts, fwd.z_t)})
    return ConsensusMap(probe_id=probe.probe_id, round=0, embeddings=emb)


class TestProbeEmbeddings:
    def test_empty_probe_rejected(self):
        with pytest.raises(EmptyProbeError):
            ProbeSet(probe_id="x", items=())


class TestDistillation:
    def test_lambda_zero(self):
        s = small_snapshot(56)
        probe = mixed_probe()
        cons = own_consensus(s, probe)
        loss, g = distillation_loss_and_grads(s, probe, cons, 0.0)
        assert loss == 0.0
        assert set(g) == set(BLOCK_NAMES)
        assert all(np.all(m == 0) for m in g.values())

    def test_zero_loss_at_consensus(self):
        s = small_snapshot(57)
        probe = mixed_probe()
        cons = own_consensus(s, probe)
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
        cons = own_consensus(teacher, probe)
        loss, g = distillation_loss_and_grads(student, probe, cons, 1.5)
        assert loss > 0
        check_grads_fd(student, lambda snap: distillation_loss_and_grads(
            snap, probe, cons, 1.5)[0], g)

    def test_distillation_pull(self):
        teacher = small_snapshot(61)
        student = small_snapshot(62)
        probe = mixed_probe()
        cons = own_consensus(teacher, probe)
        loss0, g = distillation_loss_and_grads(student, probe, cons, 1.0)
        loss1, _ = distillation_loss_and_grads(sgd_step(student, g, 1e-2),
                                               probe, cons, 1.0)
        assert loss1 < loss0


class TestTextAnchor:
    def test_mu_zero(self):
        s = small_snapshot(63)
        loss, g = text_anchor_loss_and_grads(s, random_batch(63), 0.0)
        assert loss == 0.0 and set(g) == set(BLOCK_NAMES)
        assert all(np.all(m == 0) for m in g.values())

    def test_text_gradients_structurally_zero(self):
        s = small_snapshot(64)
        loss, g = text_anchor_loss_and_grads(s, random_batch(64), 0.7)
        assert loss > 0
        assert np.all(g["text.a"] == 0.0)
        assert np.all(g["text.b"] == 0.0)

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

    @pytest.mark.parametrize("seed, n", [(73, 2), (74, 5), (75, 32)])
    @pytest.mark.parametrize("bridge", [True, False])
    def test_bit_identical_to_np_mean_oracle(self, seed, n, bridge):
        s = small_snapshot(seed, with_bridge=bridge)
        fwd = pair_forward(s, random_batch(seed, n=n))
        assert grads_bytes(*text_anchor_loss_and_grads(s, fwd, 1.3)) \
            == grads_bytes(*oracle_anchor(s, fwd, 1.3))


class TestAnchorIsImageDistillation:
    """The text anchor is the image half of the distillation loss, with the
    batch's stop-gradient text embeddings as the consensus and mu as lam."""

    @staticmethod
    def distilled(s, pairs, lam):
        fwd = pair_forward(s, pairs)
        probe = ProbeSet("anchor", tuple(ProbeItem("image", f"img{i}", image=x)
                                         for i, (x, _) in enumerate(pairs)))
        cons = ConsensusMap("anchor", 0, {f"img{i}": z for i, z in enumerate(fwd.z_t)})
        return distillation_loss_and_grads(s, probe, cons, lam)

    @pytest.mark.parametrize("bridge", [True, False])
    def test_same_loss_and_gradient_bytes(self, bridge):
        s = small_snapshot(61, with_bridge=bridge)
        pairs = random_batch(70)
        assert grads_bytes(*self.distilled(s, pairs, 1.3)) \
            == grads_bytes(*text_anchor_loss_and_grads(s, pairs, 1.3))

    @pytest.mark.parametrize("seed, n, mu", [(74, 5, 0.7), (75, 32, 2.0)])
    def test_same_gradient_bytes_and_the_loss_up_to_its_reduction_order(self, seed, n, mu):
        # each loss sums its squares in its own order (np.sum against a
        # nested np.add.reduce), so the loss may differ in its last bits
        s = small_snapshot(seed, with_bridge=False)
        pairs = random_batch(seed, n=n)
        want_loss, want = text_anchor_loss_and_grads(s, pairs, mu)
        loss, got = self.distilled(s, pairs, mu)
        assert grads_bytes(0.0, got) == grads_bytes(0.0, want)
        assert loss == pytest.approx(want_loss, rel=1e-14)


class TestComposeLosses:
    def test_single_part_identity(self):
        s = small_snapshot(66)
        part = text_anchor_loss_and_grads(s, random_batch(66), 0.5)
        loss, g = compose_losses([part])
        assert loss == part[0]
        assert g is part[1]

    def test_opposite_parts_cancel(self):
        s = small_snapshot(67)
        _, g = text_anchor_loss_and_grads(s, random_batch(67), 0.5)
        neg = {n: -m for n, m in g.items()}
        _, total = compose_losses([(0.0, g), (0.0, neg)])
        assert total.keys() == g.keys()
        assert all(np.all(m == 0.0) for m in total.values())

    def test_linearity(self):
        s = small_snapshot(68)
        p1 = text_anchor_loss_and_grads(s, random_batch(68), 0.5)
        p2 = text_anchor_loss_and_grads(s, random_batch(69), 0.3)
        loss, g = compose_losses([p1, p2])
        assert loss == p1[0] + p2[0]
        for n, m in g.items():
            assert m.tobytes() == (p1[1][n] + p2[1][n]).tobytes()

    def test_adds_anchor_zeros_to_contrastive_text_blocks(self):
        # x + 0.0 is +0.0 where x is -0.0: the anchor's explicit zero text
        # blocks take part in the sum
        s = small_snapshot(70)
        fwd = pair_forward(s, random_batch(70))
        c = contrastive_loss_and_grads(s, fwd)
        c[1]["text.a"][0, 0] = -0.0
        _, g = compose_losses([c, text_anchor_loss_and_grads(s, fwd, 0.5)])
        assert np.signbit(c[1]["text.a"][0, 0])
        assert not np.signbit(g["text.a"][0, 0])

    @pytest.mark.parametrize("drop", BLOCK_NAMES)
    def test_parts_with_different_blocks_rejected(self, drop):
        s = small_snapshot(71)
        fwd = pair_forward(s, random_batch(71))
        part = contrastive_loss_and_grads(s, fwd)
        other = (part[0], {n: m for n, m in part[1].items() if n != drop})
        with pytest.raises(ShapeError):
            compose_losses([part, other])
        with pytest.raises(ShapeError):
            compose_losses([other, part])

    def test_no_parts_rejected(self):
        with pytest.raises(ShapeError):
            compose_losses([])
