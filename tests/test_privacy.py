import numpy as np
import pytest

from flmm.aggregation import AggregationPlan, BLOCK_NAMES, ClientUpdate, \
    fedavg_adapters
from flmm.errors import MaskingError, NumericError, RangeError
from flmm.privacy import PrivacyConfig, apply_pairwise_masks, gaussian_mechanism
from flmm.rng import SplitMix64, hash_text, mix_seed

from support import output_filter, pairwise_mask, quantize_deltas, uniforms
from test_aggregation import random_update


def flat(deltas):
    return np.concatenate([deltas[n].ravel() for n in sorted(deltas)])


class TestGaussianMechanism:
    def test_no_noise_under_clip_is_identity(self):
        u = random_update(1, "c", scale=0.01)
        cfg = PrivacyConfig(dp_enabled=True, clip_norm=100.0, noise_std=0.0)
        out = gaussian_mechanism(u, cfg, seed=1)
        for n in u.deltas:
            np.testing.assert_array_equal(out.deltas[n], u.deltas[n])

    def test_clip_halves_at_double_norm(self):
        u = random_update(2, "c")
        norm = np.linalg.norm(flat(u.deltas))
        cfg = PrivacyConfig(dp_enabled=True, clip_norm=norm / 2, noise_std=0.0)
        out = gaussian_mechanism(u, cfg, seed=2)
        for n in u.deltas:
            np.testing.assert_allclose(out.deltas[n], u.deltas[n] / 2, atol=1e-15)

    def test_clip_bound_holds(self):
        for seed in range(20):
            u = random_update(100 + seed, "c", scale=1.0)
            cfg = PrivacyConfig(dp_enabled=True, clip_norm=0.7, noise_std=0.0)
            out = gaussian_mechanism(u, cfg, seed=seed)
            assert np.linalg.norm(flat(out.deltas)) <= 0.7 + 1e-12

    def test_noise_std_statistics(self):
        # measure over ~1e5 scalars by repeating a large fake update
        rng = SplitMix64(3)
        big = ClientUpdate("c", 0, {"vision.a": np.zeros((250, 400))}, 1, 0)
        cfg = PrivacyConfig(dp_enabled=True, clip_norm=1.0, noise_std=0.1)
        out = gaussian_mechanism(big, cfg, seed=33)
        assert abs(out.deltas["vision.a"].std() - 0.1) < 0.001

    def test_nonfinite_rejected(self):
        u = random_update(4, "c")
        cfg = PrivacyConfig(dp_enabled=True, clip_norm=1.0)
        deltas = {n: m.copy() for n, m in u.deltas.items()}
        deltas["bridge"][0, 0] = 1.0  # keep finite; ClientUpdate guards NaN anyway
        out = gaussian_mechanism(ClientUpdate("c", 0, deltas, 1, 0), cfg, 1)
        assert np.all(np.isfinite(flat(out.deltas)))

    def test_dp_composes_with_fedavg_in_expectation(self):
        u = random_update(5, "c", scale=0.01)
        cfg = PrivacyConfig(dp_enabled=True, clip_norm=100.0, noise_std=0.05)
        block = "vision.a"
        target = u.deltas[block][0, 0]
        samples = [gaussian_mechanism(u, cfg, seed=s).deltas[block][0, 0]
                   for s in range(1000)]
        se = 0.05 / np.sqrt(len(samples))
        assert abs(np.mean(samples) - target) < 3 * se


class TestPrivacyConfig:
    @pytest.mark.parametrize("dp", [True, False])
    @pytest.mark.parametrize("field, value", [
        ("clip_norm", float("nan")), ("clip_norm", float("inf")), ("clip_norm", 0.0),
        ("clip_norm", -1.0), ("noise_std", -0.5), ("noise_std", float("nan")),
        ("noise_std", float("inf"))])
    def test_out_of_range_value_rejected(self, dp, field, value):
        with pytest.raises(RangeError, match=f"{field} = {value}: must be finite"):
            PrivacyConfig(dp_enabled=dp, **{field: value})


class TestPairwiseMask:
    def test_quantization_error_below_grid_step(self):
        d = random_update(9, "a").deltas
        q = quantize_deltas(d)
        for name in d:
            assert np.max(np.abs(q[name] - d[name])) <= 2.0 ** -41

    def test_two_clients_sum_cancels_bit_exact(self):
        # the grid-snapped delta is the value the protocol carries; masks
        # must cancel against it with zero tolerance
        d = quantize_deltas(random_update(10, "a").deltas)
        zero = {k: np.zeros_like(v) for k, v in d.items()}
        ups = [ClientUpdate("a", 0, d, 1, 0), ClientUpdate("b", 0, zero, 1, 0)]
        masked = pairwise_mask(ups, round_seed=7)
        for name in d:
            assert not np.array_equal(masked[0].deltas[name], d[name])
            total = masked[0].deltas[name] + masked[1].deltas[name]
            np.testing.assert_array_equal(total, d[name] + zero[name])

    @pytest.mark.parametrize("seed", range(5))
    def test_three_clients_sum_bit_exact(self, seed):
        ups = [random_update(20 + seed * 3 + i, f"c{i}") for i in range(3)]
        masked = pairwise_mask(ups, round_seed=seed)
        for name in BLOCK_NAMES:
            raw_q = sum(quantize_deltas(u.deltas)[name] for u in ups)
            raw = sum(u.deltas[name] for u in ups)
            tot = sum(m.deltas[name] for m in masked)
            np.testing.assert_array_equal(tot, raw_q)
            np.testing.assert_allclose(tot, raw, atol=1e-11)

    def test_same_round_seed_is_deterministic(self):
        ups = [random_update(30 + i, f"c{i}") for i in range(3)]
        m1 = pairwise_mask(ups, round_seed=42)
        m2 = pairwise_mask(ups, round_seed=42)
        for a, b in zip(m1, m2):
            for name in a.deltas:
                np.testing.assert_array_equal(a.deltas[name], b.deltas[name])

    def test_party_outside_the_list_rejected(self):
        # masked against c0 and c1 alike, its masks would cancel against nothing
        u = random_update(45, "stranger")
        with pytest.raises(MaskingError, match="'stranger'"):
            apply_pairwise_masks(u, ["c0", "c1"], round_seed=3)

    def test_single_client_rejected(self):
        with pytest.raises(MaskingError):
            pairwise_mask([random_update(40, "solo")], 1)

    def test_client_side_masking_matches_joint(self):
        ups = [random_update(50 + i, f"c{i}") for i in range(4)]
        joint = pairwise_mask(ups, round_seed=9)
        ids = [u.client_id for u in ups]
        for u, j in zip(sorted(ups, key=lambda x: x.client_id), joint):
            assert (j.client_id, j.base_version, j.sample_count, j.submitted_round) \
                == (u.client_id, u.base_version, u.sample_count, u.submitted_round)
            mine = apply_pairwise_masks(u, ids, round_seed=9)
            for name in u.deltas:
                np.testing.assert_array_equal(mine.deltas[name], j.deltas[name])


_GRID = 2.0 ** 40


def grid_mask_oracle(rng, shape):
    """One block's mask, drawn on its own: the per-block reference."""
    u = uniforms(rng, shape[0] * shape[1]).reshape(shape)
    return np.round((2.0 * u - 1.0) * _GRID) / _GRID


def client_masks_oracle(update, party_ids, round_seed):
    """Client-side masking with one uniforms draw per block."""
    deltas = quantize_deltas(update.deltas)
    me = update.client_id
    for other in sorted(party_ids):
        if other == me:
            continue
        lo, hi = (me, other) if me < other else (other, me)
        rng = SplitMix64(mix_seed(round_seed, hash_text(lo), hash_text(hi)))
        sign = 1.0 if me == lo else -1.0
        for name in sorted(deltas):
            deltas[name] += sign * grid_mask_oracle(rng, deltas[name].shape)
    return deltas


def joint_masks_oracle(updates, round_seed):
    """Joint masking with one uniforms draw per block shared by the pair."""
    ordered = sorted(updates, key=lambda u: u.client_id)
    masked = {u.client_id: quantize_deltas(u.deltas) for u in ordered}
    for i, ui in enumerate(ordered):
        for uj in ordered[i + 1:]:
            rng = SplitMix64(mix_seed(round_seed, hash_text(ui.client_id),
                                      hash_text(uj.client_id)))
            for name in sorted(ui.deltas):
                if name not in uj.deltas:
                    continue
                m = grid_mask_oracle(rng, ui.deltas[name].shape)
                masked[ui.client_id][name] += m
                masked[uj.client_id][name] -= m
    return masked


def without_bridge(u):
    return ClientUpdate(u.client_id, u.base_version,
                        {n: m for n, m in u.deltas.items() if n != "bridge"},
                        u.sample_count, u.submitted_round)


def assert_same_bits(got, want):
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


class TestMaskOracle:
    @pytest.mark.parametrize("bridge", [True, False])
    @pytest.mark.parametrize("seed", [0, 42, 2 ** 64 - 1])
    @pytest.mark.parametrize("parties", [2, 3, 5])
    def test_one_draw_per_pair_equals_per_block_draws(self, parties, seed, bridge):
        ups = [random_update(seed % 1000 + 7 * i, f"c{i}") for i in range(parties)]
        if not bridge:
            ups = [without_bridge(u) for u in ups]
        ids = [u.client_id for u in ups]
        for u in ups:
            assert_same_bits(apply_pairwise_masks(u, ids, seed).deltas,
                             client_masks_oracle(u, ids, seed))
        joint = joint_masks_oracle(ups, seed)
        for m in pairwise_mask(ups, seed):
            assert_same_bits(m.deltas, joint[m.client_id])

    def test_joint_skips_blocks_a_pair_does_not_share(self):
        ups = [random_update(60, "c0"), without_bridge(random_update(61, "c1")),
               random_update(62, "c2")]
        joint = joint_masks_oracle(ups, 5)
        for m in pairwise_mask(ups, 5):
            assert_same_bits(m.deltas, joint[m.client_id])


class TestTextFilters:
    BLACKLIST, REFUSAL = frozenset({58, 59}), (0,)

    def test_filter_passthrough(self):
        cap, blocked = output_filter([1, 2, 3], self.BLACKLIST, self.REFUSAL)
        assert cap == [1, 2, 3] and not blocked

    def test_filter_blocks_blacklisted(self):
        cap, blocked = output_filter([1, 58, 3], self.BLACKLIST, self.REFUSAL)
        assert cap == [0] and blocked

    def test_filter_idempotent(self):
        cap, _ = output_filter([58], self.BLACKLIST, self.REFUSAL)
        again, blocked = output_filter(cap, self.BLACKLIST, self.REFUSAL)
        assert again == cap and not blocked
