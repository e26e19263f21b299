import numpy as np
import pytest

from flmm.aggregation import (
    BLOCK_NAMES,
    STRATEGIES,
    AggregationPlan,
    ClientUpdate,
    aggregate,
    aggregate_stack,
    apply_block_mask,
    async_mix,
    fedavg_adapters,
    snapshot_blocks,
    with_blocks,
)
from flmm.errors import NumericError, PlanError, ShapeError, StalenessError, \
    FutureVersionError
from flmm.model import LORA_SCALE
from flmm.rng import SplitMix64

from support import oracle_aggregate, small_snapshot

FULL_MASK = frozenset(BLOCK_NAMES)
PLAN = AggregationPlan(strategy="sync_avg", block_mask=FULL_MASK)


def random_update(seed, client_id, sample_count=1, base_version=0, scale=0.1):
    rng = SplitMix64(seed)
    deltas = {
        "vision.a": rng.normal_matrix(2, 8, scale),
        "vision.b": rng.normal_matrix(4, 2, scale),
        "text.a": rng.normal_matrix(2, 8, scale),
        "text.b": rng.normal_matrix(4, 2, scale),
        "bridge": rng.normal_matrix(4, 4, scale),
    }
    return ClientUpdate(client_id=client_id, base_version=base_version,
                        deltas=deltas, sample_count=sample_count,
                        submitted_round=0)


def fedavg_oracle(updates, block):
    """Naive loop-accumulate weighted mean, independent of the library path."""
    total = 0.0
    acc = None
    for u in updates:
        m = u.deltas[block]
        term = np.zeros_like(m)
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                term[i, j] = u.sample_count * m[i, j]
        acc = term if acc is None else acc + term
        total += u.sample_count
    return acc / total


class TestFedavg:
    def test_idempotence_over_copies(self):
        base = random_update(1, "c")
        for n in (1, 4, 16):
            updates = [ClientUpdate(f"c{i}", 0, base.deltas, 3, 0) for i in range(n)]
            result = fedavg_adapters(updates, PLAN)
            for name in BLOCK_NAMES:
                np.testing.assert_allclose(result[name], base.deltas[name], atol=1e-13)

    def test_weighted_mean_arithmetic(self):
        d = random_update(2, "a").deltas
        zero = {k: np.zeros_like(v) for k, v in d.items()}
        updates = [ClientUpdate("a", 0, d, 1, 0), ClientUpdate("b", 0, zero, 3, 0)]
        result = fedavg_adapters(updates, PLAN)
        for name in BLOCK_NAMES:
            np.testing.assert_allclose(result[name], d[name] / 4, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_loop_oracle(self, seed):
        updates = [random_update(seed * 10 + i, f"c{i}", sample_count=i + 1)
                   for i in range(5)]
        result = fedavg_adapters(updates, PLAN)
        for name in BLOCK_NAMES:
            np.testing.assert_allclose(result[name], fedavg_oracle(updates, name),
                                       atol=1e-12)

    def test_permutation_invariance_bit_exact(self):
        updates = [random_update(30 + i, f"c{i}", sample_count=i + 1) for i in range(6)]
        r1 = fedavg_adapters(updates, PLAN)
        r2 = fedavg_adapters(list(reversed(updates)), PLAN)
        r3 = fedavg_adapters(updates[2:] + updates[:2], PLAN)
        for name in BLOCK_NAMES:
            assert np.array_equal(r1[name], r2[name])
            assert np.array_equal(r1[name], r3[name])

    def test_convex_hull_bound(self):
        updates = [random_update(40 + i, f"c{i}", sample_count=i + 1) for i in range(4)]
        result = fedavg_adapters(updates, PLAN)
        for name in BLOCK_NAMES:
            stack = np.stack([u.deltas[name] for u in updates])
            assert np.all(result[name] >= stack.min(axis=0) - 1e-12)
            assert np.all(result[name] <= stack.max(axis=0) + 1e-12)

    def test_block_mask_restricts_output(self):
        updates = [random_update(50, "c")]
        plan = AggregationPlan(block_mask=frozenset({"vision.a", "vision.b"}))
        result = fedavg_adapters(updates, plan)
        assert set(result) == {"vision.a", "vision.b"}

    def test_mixed_versions_rejected(self):
        with pytest.raises(StalenessError):
            fedavg_adapters([random_update(60, "a", base_version=0),
                             random_update(61, "b", base_version=1)], PLAN)

    def test_empty_rejected(self):
        with pytest.raises(StalenessError):
            fedavg_adapters([], PLAN)

    def test_nonfinite_update_rejected(self):
        d = random_update(62, "a").deltas
        d = dict(d)
        d["bridge"] = d["bridge"].copy()
        d["bridge"][0, 0] = np.inf
        with pytest.raises(NumericError):
            ClientUpdate("a", 0, d, 1, 0)


def without(update, *names):
    """The update minus the named blocks."""
    return ClientUpdate(update.client_id, update.base_version,
                        {n: m for n, m in update.deltas.items() if n not in names},
                        update.sample_count, update.submitted_round)


class TestWeightMatrix:
    @pytest.mark.parametrize("masked", [False, True], ids=["weighted", "masked"])
    def test_rows_equal_per_row_calls(self, masked):
        plan = AggregationPlan(masking_enabled=masked)
        updates = [random_update(200 + i, f"c{i}", sample_count=i + 2) for i in range(5)]
        updates[1] = without(updates[1], "bridge")  # a row of c1 alone has no bridge
        member = np.array([[(r >> j) & 1 for j in range(5)] for r in range(32)],
                          dtype=bool)
        row = np.array([1 if masked else u.sample_count for u in updates])
        out = fedavg_adapters(updates, plan, member * row)
        # the weight columns follow the order of the updates given
        shuffled = fedavg_adapters(updates[::-1], plan, (member * row)[:, ::-1])
        checked = 0
        for i in range(1, 32):
            subset = [u for u, m in zip(updates, member[i]) if m]
            for n, d in fedavg_adapters(subset, plan).items():
                assert out[n][i].tobytes() == d.tobytes(), (i, n)
                assert shuffled[n][i].tobytes() == d.tobytes(), (i, n)
                checked += 1
        assert checked == 31 * 5 - 1

    def test_default_is_the_servers_row(self):
        updates = [random_update(210 + i, f"c{i}", sample_count=i + 1) for i in range(3)]
        row = fedavg_adapters(updates, PLAN, [u.sample_count for u in updates])
        for n, d in fedavg_adapters(updates, PLAN).items():
            assert d.shape == row[n].shape == updates[0].deltas[n].shape
            assert d.tobytes() == row[n].tobytes()


class TestAggregateStack:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rows_equal_the_per_row_oracle_and_idle_rows_keep_their_bits(self,
                                                                          strategy):
        s = small_snapshot(120)
        rows = [snapshot_blocks(s) for _ in range(3)]
        for blocks in rows:  # -0.0 survives only if the row is left alone
            blocks["bridge"][0, 0] = -0.0
            blocks["vision.a"][0, 0] = -0.0
        stack = {n: np.stack([r[n] for r in rows]) for n in rows[0]}
        updates = [random_update(121, "a", 2), without(random_update(122, "b", 3), "bridge")]
        # row 1 has no member; row 2's only member has no bridge
        member = np.array([[True, True], [False, False], [False, True]])
        plan = AggregationPlan(strategy=strategy)
        out = aggregate_stack(plan, s.version, stack, updates, member, {0: stack})
        for n in stack:
            assert out[n][1].tobytes() == stack[n][1].tobytes(), n
            assert not np.array_equal(out[n][0], stack[n][0]), n
        assert out["bridge"][2].tobytes() == stack["bridge"][2].tobytes()
        assert not np.array_equal(out["vision.a"][2], stack["vision.a"][2])
        assert np.signbit(stack["bridge"][1, 0, 0])
        for i in (0, 2):
            model = with_blocks(s, rows[i], 0)
            subset = [u for u, m in zip(updates, member[i]) if m]
            oracle = snapshot_blocks(oracle_aggregate(plan, model, subset, {0: model}))
            for n in stack:
                assert out[n][i].tobytes() == oracle[n].tobytes(), (i, n)


REFACTOR = AggregationPlan(strategy="product_refactor")


def refactored(snapshot, updates, tower):
    """The fused product s*b@a of ``tower`` after a product_refactor round of
    ``updates`` on ``snapshot``, and the weighted mean of the parties' trained
    products s*(B + dB_i)(A + dA_i) that it approximates."""
    a, b = snapshot.blocks[f"{tower}.a"], snapshot.blocks[f"{tower}.b"]
    total = sum(u.sample_count for u in updates)
    mean = sum(u.sample_count * LORA_SCALE * ((b + u.deltas[f"{tower}.b"])
                                              @ (a + u.deltas[f"{tower}.a"]))
               for u in updates) / total
    fused = aggregate(REFACTOR, snapshot, updates, {}).blocks
    return LORA_SCALE * (fused[f"{tower}.b"] @ fused[f"{tower}.a"]), mean


def best_rank_r_oracle(m, r):
    """Dense decomposition residual, from numpy's SVD of the target."""
    u, s, vt = np.linalg.svd(m)
    approx = (u[:, :r] * s[:r]) @ vt[:r]
    return approx, float(np.linalg.norm(m - approx))


class TestProductRefactor:
    @pytest.mark.parametrize("tower", ["vision", "text"])
    def test_single_client_reconstructs_its_trained_product(self, tower):
        s = small_snapshot(70)
        recon, trained = refactored(s, [random_update(70, "solo", 3)], tower)
        assert np.linalg.norm(recon - trained) <= 1e-12 * np.linalg.norm(trained)

    def test_identical_clients_match_single(self):
        s = small_snapshot(71)
        u = random_update(71, "x")
        u2 = ClientUpdate("y", 0, u.deltas, 5, 0)
        one, _ = refactored(s, [u], "text")
        two, _ = refactored(s, [u, u2], "text")
        np.testing.assert_allclose(one, two, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_matches_dense_oracle(self, seed):
        # two trained rank-2 products on 4x8 towers: the mean is generically
        # rank 4, so truncation to rank 2 has a real residual
        s = small_snapshot(80 + seed)
        updates = [random_update(80 + seed * 2 + i, f"c{i}", sample_count=i + 1, scale=0.3)
                   for i in range(2)]
        recon, mean = refactored(s, updates, "vision")
        _, best_residual = best_rank_r_oracle(mean, 2)
        assert best_residual > 1e-3
        assert abs(float(np.linalg.norm(mean - recon)) - best_residual) < 1e-8

    def test_closes_separate_averaging_gap(self):
        # mean(B_i) @ mean(A_i) != mean(B_i @ A_i): two parties that train
        # disjoint rank-2 products from zero factors
        s = with_blocks(small_snapshot(72), {"vision.a": np.zeros((2, 8)),
                                             "vision.b": np.zeros((4, 2))}, 0)
        eye = np.eye(8)
        b1, a1 = eye[:4, :2], eye[:2]
        b2, a2 = eye[:4, 2:4], eye[2:4]
        u1 = ClientUpdate("p", 0, {"vision.a": a1, "vision.b": b1}, 1, 0)
        u2 = ClientUpdate("q", 0, {"vision.a": a2, "vision.b": b2}, 1, 0)
        separate = LORA_SCALE * (0.5 * (b1 + b2)) @ (0.5 * (a1 + a2))
        recon, mean = refactored(s, [u1, u2], "vision")
        assert np.linalg.norm(separate - mean) > 0.1  # the bias is real
        _, best = best_rank_r_oracle(mean, 2)
        assert abs(np.linalg.norm(mean - recon) - best) < 1e-8

    def test_a_tower_no_member_carries_keeps_its_bits(self):
        s = small_snapshot(75)
        u = without(random_update(75, "a"), "text.a", "text.b")
        out = snapshot_blocks(aggregate(REFACTOR, s, [u], {}))
        for n in ("text.a", "text.b"):
            assert out[n].tobytes() == s.blocks[n].tobytes()
        assert not np.array_equal(out["vision.a"], s.blocks["vision.a"])


class TestAsyncMix:
    def setup_method(self):
        rng = SplitMix64(90)
        self.server = {"bridge": rng.normal_matrix(2, 2)}
        self.at_base = {"bridge": rng.normal_matrix(2, 2)}
        self.delta = rng.normal_matrix(2, 2)

    def _update(self, base_version):
        return ClientUpdate("c", base_version, {"bridge": self.delta}, 1, 0)

    def test_fresh_full_rate_replaces(self):
        plan = AggregationPlan(strategy="async_mix", block_mask=frozenset({"bridge"}),
                               mixing_rate=1.0, staleness_exponent=0.5)
        out = async_mix(self.server, self._update(5), 5, plan, self.at_base)
        np.testing.assert_allclose(out["bridge"], self.at_base["bridge"] + self.delta,
                                   atol=1e-15)

    def test_zero_exponent_ignores_staleness(self):
        plan = AggregationPlan(strategy="async_mix", block_mask=frozenset({"bridge"}),
                               mixing_rate=0.25, staleness_exponent=0.0)
        out0 = async_mix(self.server, self._update(5), 5, plan, self.at_base)
        out3 = async_mix(self.server, self._update(2), 5, plan, self.at_base)
        np.testing.assert_array_equal(out0["bridge"], out3["bridge"])

    def test_staleness_decay_hand_formula(self):
        plan = AggregationPlan(strategy="async_mix", block_mask=frozenset({"bridge"}),
                               mixing_rate=0.5, staleness_exponent=1.0)
        out = async_mix(self.server, self._update(2), 5, plan, self.at_base)
        beta = 0.5 * (1 + 3) ** -1.0
        assert beta == 0.125
        expected = (1 - beta) * self.server["bridge"] + beta * (
            self.at_base["bridge"] + self.delta)
        np.testing.assert_allclose(out["bridge"], expected, atol=1e-15)

    def test_future_version_rejected(self):
        plan = AggregationPlan(strategy="async_mix", block_mask=frozenset({"bridge"}))
        with pytest.raises(FutureVersionError):
            async_mix(self.server, self._update(9), 5, plan, self.at_base)


class TestApplyBlockMask:
    def test_empty_result_bumps_version_only(self):
        s = small_snapshot(91)
        s2 = apply_block_mask({}, s)
        assert s2.version == s.version + 1
        for n, m in s.blocks.items():
            np.testing.assert_array_equal(m, s2.blocks[n])

    def test_partial_mask_leaves_other_blocks(self):
        s = small_snapshot(92)
        rng = SplitMix64(93)
        result = {"vision.a": rng.normal_matrix(2, 8), "vision.b": rng.normal_matrix(4, 2)}
        s2 = apply_block_mask(result, s)
        np.testing.assert_array_equal(s.blocks["text.a"], s2.blocks["text.a"])
        np.testing.assert_array_equal(s.blocks["text.b"], s2.blocks["text.b"])
        np.testing.assert_array_equal(s2.blocks["vision.a"], result["vision.a"])

    def test_full_mask_round_trip(self):
        s = small_snapshot(94)
        updates = [random_update(95 + i, f"c{i}", i + 1) for i in range(3)]
        result = fedavg_adapters(updates, PLAN)
        blocks = snapshot_blocks(apply_block_mask(result, s))
        for name in result:
            np.testing.assert_array_equal(blocks[name], result[name])

    def test_unknown_block_rejected(self):
        with pytest.raises(PlanError):
            apply_block_mask({"nope": np.zeros((1, 1))}, small_snapshot(96))

    def test_frozen_weights_untouched(self):
        s = small_snapshot(97)
        s2 = apply_block_mask(fedavg_adapters([random_update(98, "c")], PLAN), s)
        assert s2.w_v is s.w_v and s2.w_t is s.w_t


class TestAggregate:
    def test_sync_avg_is_base_plus_fedavg(self):
        s = small_snapshot(100)
        updates = [random_update(101 + i, f"c{i}", i + 1) for i in range(3)]
        out = snapshot_blocks(aggregate(PLAN, s, updates, {}))
        base = snapshot_blocks(s)
        for n, d in fedavg_adapters(updates, PLAN).items():
            np.testing.assert_array_equal(out[n], base[n] + d)

    def test_masked_plan_averages_with_unit_weights(self):
        s = small_snapshot(102)
        updates = [random_update(103 + i, f"c{i}", 5 * i + 1) for i in range(3)]
        masked = aggregate(AggregationPlan(masking_enabled=True), s, updates, {})
        unit = [ClientUpdate(u.client_id, 0, u.deltas, 1, 0) for u in updates]
        plain = aggregate(PLAN, s, unit, {})
        a, b = snapshot_blocks(masked), snapshot_blocks(plain)
        for n in a:
            np.testing.assert_array_equal(a[n], b[n])

    def test_product_refactor_keeps_the_mask(self):
        s = small_snapshot(104)
        plan = AggregationPlan(strategy="product_refactor",
                               block_mask=frozenset({"vision.a", "vision.b"}))
        out = snapshot_blocks(aggregate(plan, s, [random_update(105, "c")], {}))
        base = snapshot_blocks(s)
        for n in ("text.a", "text.b", "bridge"):
            np.testing.assert_array_equal(out[n], base[n])
        assert not np.array_equal(out["vision.a"], base["vision.a"])

    def test_async_reads_the_base_model_from_history(self):
        s = small_snapshot(106)
        old = apply_block_mask({}, small_snapshot(107))  # version 1
        s = apply_block_mask({}, apply_block_mask({}, apply_block_mask({}, s)))
        plan = AggregationPlan(strategy="async_mix", mixing_rate=0.5,
                               staleness_exponent=1.0)
        u = random_update(108, "c", base_version=1)
        out = snapshot_blocks(aggregate(plan, s, [u], {1: old}))
        expected = async_mix(snapshot_blocks(s), u, 3, plan, snapshot_blocks(old))
        for n in out:
            np.testing.assert_array_equal(out[n], expected[n])
        with pytest.raises(KeyError):
            aggregate(plan, s, [u], {})

    @pytest.mark.parametrize("strategy", ["sync_avg", "product_refactor"])
    def test_update_on_another_version_rejected(self, strategy):
        s = apply_block_mask({}, small_snapshot(109))
        with pytest.raises(StalenessError):
            aggregate(AggregationPlan(strategy=strategy), s,
                      [random_update(110, "c", base_version=0)], {})

    def test_no_updates_rejected(self):
        with pytest.raises(StalenessError):
            aggregate(PLAN, small_snapshot(111), [], {})


def test_plan_validation():
    with pytest.raises(PlanError):
        AggregationPlan(strategy="bogus")
    with pytest.raises(PlanError):
        AggregationPlan(block_mask=frozenset())
    with pytest.raises(PlanError):
        AggregationPlan(block_mask=frozenset({"nope"}))
    with pytest.raises(PlanError):
        AggregationPlan(strategy="chained")
    with pytest.raises(PlanError):
        AggregationPlan(mixing_rate=0.0)
    for exponent in (float("nan"), float("inf"), -1.0):
        with pytest.raises(PlanError):
            AggregationPlan(strategy="async_mix", staleness_exponent=exponent)
    for strategy in ("product_refactor", "async_mix"):
        with pytest.raises(PlanError):
            AggregationPlan(strategy=strategy, masking_enabled=True)
    for half in ({"vision.a"}, {"text.b", "bridge"}, {"vision.a", "vision.b", "text.a"}):
        with pytest.raises(PlanError, match="fuses .* together"):
            AggregationPlan(strategy="product_refactor", block_mask=frozenset(half))
    # only product_refactor ties a tower's factors together
    for strategy in ("sync_avg", "async_mix"):
        AggregationPlan(strategy=strategy, block_mask=frozenset({"vision.a"}))
    AggregationPlan(strategy="product_refactor", block_mask=frozenset({"text.a", "text.b"}))
