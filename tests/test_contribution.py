import itertools
import math
import zlib

import numpy as np
import pytest

from flmm.aggregation import BLOCK_NAMES, AggregationPlan, snapshot_blocks
from flmm.contribution import (
    CoalitionValueFn,
    LoggedRound,
    exact_shapley,
    fl_value_function,
    replay_coalition,
    replay_coalitions,
    slice_rows,
    wtdp_shapley,
)
from flmm.dataquality import CorpusSpec, generate_corpus
from flmm.errors import HistoryError, SamplingError, SizeError
from flmm.metrics import eval_batch, recall_at_k
from flmm.model import init_snapshot, load_snapshot, stack_rows
from flmm.orchestrator import RoundLog, ServerConfig, ServerCore
from flmm.protocol import Message, pack_blocks
from flmm.rng import SplitMix64, hash_text
from flmm.training import TrainConfig, local_train, make_update

from support import ScalarStream, oracle_replay_coalition, small_snapshot


def additive_game(costs: dict) -> CoalitionValueFn:
    return CoalitionValueFn(parties=list(costs),
                            evaluate=lambda s: sum(costs[p] for p in s))


def permutation_oracle(fn: CoalitionValueFn) -> dict:
    """Brute-force Shapley: average marginal over every ordering."""
    parties = list(fn.parties)
    values = {p: 0.0 for p in parties}
    perms = list(itertools.permutations(parties))
    for perm in perms:
        prefix: set = set()
        v_prev = fn.evaluate(frozenset())
        for p in perm:
            prefix.add(p)
            v_cur = fn.evaluate(frozenset(prefix))
            values[p] += v_cur - v_prev
            v_prev = v_cur
    return {p: v / len(perms) for p, v in values.items()}


def random_game(seed: int, n: int) -> CoalitionValueFn:
    parties = [f"p{i}" for i in range(n)]
    rng = ScalarStream(seed)
    table = {frozenset(): 0.0}
    for k in range(1, n + 1):
        for subset in itertools.combinations(parties, k):
            table[frozenset(subset)] = rng.next_uniform()
    return CoalitionValueFn(parties=parties, evaluate=lambda s: table[s])


class TestExactShapley:
    def test_additive_game(self):
        res = exact_shapley(additive_game({"a": 1.0, "b": 2.0}))
        assert res.values["a"] == pytest.approx(1.0, abs=1e-12)
        assert res.values["b"] == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_game(self):
        fn = CoalitionValueFn(parties=["a", "b", "c"],
                              evaluate=lambda s: float(len(s) ** 2))
        res = exact_shapley(fn)
        for v in res.values.values():
            assert v == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("seed,n", [(1, 2), (2, 3), (3, 4), (4, 5)])
    def test_matches_permutation_oracle(self, seed, n):
        fn = random_game(seed, n)
        res = exact_shapley(fn)
        oracle = permutation_oracle(fn)
        for p in fn.parties:
            assert res.values[p] == pytest.approx(oracle[p], abs=1e-9)

    def test_null_player(self):
        base = random_game(7, 3)
        # add a dummy party that never changes the value
        fn = CoalitionValueFn(
            parties=base.parties + ["dummy"],
            evaluate=lambda s: base.evaluate(frozenset(s - {"dummy"})))
        res = exact_shapley(fn)
        assert abs(res.values["dummy"]) <= 1e-9

    def test_efficiency(self):
        fn = random_game(9, 4)
        res = exact_shapley(fn)
        grand = fn.evaluate(frozenset(fn.parties))
        empty = fn.evaluate(frozenset())
        assert res.efficiency_residual(grand, empty) <= 1e-9

    def test_cache_discipline_exactly_2n_evaluations(self):
        for n in (2, 3, 4, 5):
            fn = random_game(20 + n, n)
            exact_shapley(fn)
            assert fn.evaluations == 2 ** n

    def test_prepare_sees_every_uncached_coalition_once_before_evaluate(self):
        calls = []

        def prepare(coalitions):
            calls.append(("prepare", list(coalitions)))

        def evaluate(coalition):
            calls.append(("evaluate", coalition))
            return float(len(coalition))

        parties = ["a", "b", "c"]
        fn = CoalitionValueFn(parties=parties, evaluate=evaluate, prepare=prepare)
        fn.cache[frozenset({"a"})] = 1.0
        exact_shapley(fn)
        subsets = {frozenset(s) for k in range(4)
                   for s in itertools.combinations(parties, k)} - {frozenset({"a"})}
        assert calls[0][0] == "prepare"
        assert len(calls[0][1]) == len(subsets) and set(calls[0][1]) == subsets
        evaluated = [c for kind, c in calls[1:] if kind == "evaluate"]
        assert len(calls) == 1 + len(evaluated)
        assert len(evaluated) == len(subsets) and set(evaluated) == subsets

    def test_size_guard(self):
        fn = CoalitionValueFn(parties=[f"p{i}" for i in range(11)],
                              evaluate=lambda s: float(len(s)))
        with pytest.raises(SizeError):
            exact_shapley(fn)


class TestWtdpShapley:
    def test_additive_any_weights(self):
        fn = additive_game({"a": 1.0, "b": 2.0})
        res = wtdp_shapley(fn, {"a": 5.0, "b": 0.5}, budget=10,
                           tolerance=0.0, seed=1)
        # weights scale the per-party means; renormalization fixes only the
        # total, so unequal weights tilt the split while efficiency holds
        total = res.values["a"] + res.values["b"]
        assert total == pytest.approx(3.0, abs=1e-12)
        raw_ratio = (5.0 * 1.0) / (0.5 * 2.0)
        assert res.values["a"] / res.values["b"] == pytest.approx(raw_ratio, rel=1e-12)

    def test_unit_weights_additive_recovers_exact(self):
        fn = additive_game({"a": 1.0, "b": 2.0})
        res = wtdp_shapley(fn, {"a": 1.0, "b": 1.0}, budget=8,
                           tolerance=0.0, seed=2)
        assert res.values["a"] == pytest.approx(1.0, abs=1e-12)
        assert res.values["b"] == pytest.approx(2.0, abs=1e-12)

    def test_weighted_symmetric_two_party_hand_case(self):
        # symmetric game, v(grand) - v(empty) = 2, weights (2, 1):
        # raw = (2*1, 1*1) = (2, 1); renormalized to total 2 -> (4/3, 2/3)
        fn = CoalitionValueFn(parties=["a", "b"],
                              evaluate=lambda s: float(len(s)))
        res = wtdp_shapley(fn, {"a": 2.0, "b": 1.0}, budget=4,
                           tolerance=0.0, seed=3)
        assert res.values["a"] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert res.values["b"] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_converges_to_exact_three_party(self):
        fn = random_game(11, 3)
        exact = exact_shapley(fn).values
        res = wtdp_shapley(fn, {p: 1.0 for p in fn.parties}, budget=200,
                           tolerance=0.0, seed=4)
        for p in fn.parties:
            assert abs(res.values[p] - exact[p]) < 0.05

    def test_error_shrinks_with_budget(self):
        fn = random_game(13, 3)
        exact = exact_shapley(fn).values

        def err(budget, seed):
            res = wtdp_shapley(fn, {p: 1.0 for p in fn.parties}, budget,
                               tolerance=0.0, seed=seed)
            return max(abs(res.values[p] - exact[p]) for p in fn.parties)

        small = np.mean([err(8, s) for s in range(10)])
        large = np.mean([err(128, s) for s in range(10)])
        assert large <= small

    def test_truncation_reduces_evaluations(self):
        # value saturates at the grand value once any party joins
        fn = CoalitionValueFn(parties=["a", "b", "c", "d"],
                              evaluate=lambda s: 1.0 if s else 0.0)
        res = wtdp_shapley(fn, {p: 1.0 for p in fn.parties}, budget=50,
                           tolerance=1e-6, seed=5)
        # after the first member the walk truncates, so strict-subset
        # coalitions of size >= 2 are never evaluated
        assert fn.evaluations <= 2 + len(fn.parties)
        assert res.samples_used == 50
        grand, empty = 1.0, 0.0
        assert res.efficiency_residual(grand, empty) <= 1e-12

    def test_budget_and_weight_validation(self):
        fn = additive_game({"a": 1.0, "b": 2.0})
        with pytest.raises(SamplingError):
            wtdp_shapley(fn, {"a": 1.0, "b": 1.0}, budget=0, tolerance=0.0, seed=1)
        with pytest.raises(SamplingError):
            wtdp_shapley(fn, {"a": -1.0, "b": 1.0}, budget=5, tolerance=0.0, seed=1)

    def test_samples_within_budget(self):
        fn = random_game(15, 4)
        res = wtdp_shapley(fn, {p: 1.0 for p in fn.parties}, budget=33,
                           tolerance=0.0, seed=6)
        assert res.samples_used == 33


def make_fl_fixture(seed=90, parties=("pa", "pb"), rounds=2):
    classes = (0, 1, 2, 3)
    corpora = {
        p: generate_corpus(CorpusSpec(party=p, size=40, corruption_rates={},
                                      seed=seed + i, scene_class_pool=classes))
        for i, p in enumerate(parties)
    }
    eval_set = generate_corpus(CorpusSpec(party="eval", size=32,
                                          corruption_rates={}, seed=seed + 50,
                                          scene_class_pool=classes))
    cfg = TrainConfig(epochs=2, lr=0.2, batch_size=16, anchor_mu=2.0)
    plan = AggregationPlan()
    model = init_snapshot(seed)
    initial = model
    log = []
    from flmm.aggregation import fedavg_adapters, apply_block_mask, snapshot_blocks
    for r in range(rounds):
        updates = []
        for p in sorted(corpora):
            trained = local_train(model, corpora[p], cfg, seed + 7 * r + hash_text(p) % 97)
            updates.append(make_update(model, trained, p, len(corpora[p]), r))
        log.append(LoggedRound(round=r, plan=plan, updates=tuple(updates)))
        delta = fedavg_adapters(updates, plan)
        base = snapshot_blocks(model)
        model = apply_block_mask({n: base[n] + d for n, d in delta.items()}, model)
    return initial, log, model, eval_set, list(parties)


class TestFlValueFunction:
    def test_grand_coalition_replay_identity(self):
        initial, log, deployed, eval_set, parties = make_fl_fixture()
        replayed = replay_coalition(initial, log, frozenset(parties))
        from flmm.aggregation import snapshot_blocks
        a, b = snapshot_blocks(replayed), snapshot_blocks(deployed)
        for n in a:
            np.testing.assert_array_equal(a[n], b[n])

    def test_grand_and_empty_values(self):
        initial, log, deployed, eval_set, parties = make_fl_fixture()
        fn = fl_value_function(initial, log, eval_set, parties)
        assert fn(frozenset(parties)) == recall_at_k(deployed, eval_set, 1)
        assert fn(frozenset()) == recall_at_k(initial, eval_set, 1)

    def test_empty_round_rejected(self):
        initial, log, _, eval_set, parties = make_fl_fixture()
        bad = log + [LoggedRound(round=9, plan=AggregationPlan(), updates=())]
        with pytest.raises(HistoryError):
            fl_value_function(initial, bad, eval_set, parties)

    def test_exact_shapley_over_replay_is_efficient(self):
        initial, log, deployed, eval_set, parties = make_fl_fixture()
        fn = fl_value_function(initial, log, eval_set, parties)
        res = exact_shapley(fn)
        grand = fn(frozenset(parties))
        empty = fn(frozenset())
        assert res.efficiency_residual(grand, empty) <= 1e-9
        assert fn.evaluations == 2 ** len(parties)

    def test_specialist_party_singleton_value(self):
        # one party holds every hazard-class record; on a hazard-only eval
        # set its singleton value must be the strict maximum
        hazard_classes = (1, 3)
        safe_classes = (0, 2)
        corp = {
            "hz": generate_corpus(CorpusSpec(party="hz", size=60,
                                             corruption_rates={}, seed=301,
                                             scene_class_pool=hazard_classes)),
            "sf": generate_corpus(CorpusSpec(party="sf", size=60,
                                             corruption_rates={}, seed=302,
                                             scene_class_pool=safe_classes)),
        }
        eval_set = generate_corpus(CorpusSpec(party="eval", size=40,
                                              corruption_rates={}, seed=303,
                                              scene_class_pool=hazard_classes))
        cfg = TrainConfig(epochs=4, lr=0.2, batch_size=16, anchor_mu=2.0)
        plan = AggregationPlan()
        model = init_snapshot(300)
        initial = model
        from flmm.aggregation import fedavg_adapters, apply_block_mask, snapshot_blocks
        log = []
        for r in range(2):
            updates = []
            for p in sorted(corp):
                trained = local_train(model, corp[p], cfg, 300 + r * 10 + len(p))
                updates.append(make_update(model, trained, p, len(corp[p]), r))
            log.append(LoggedRound(round=r, plan=plan, updates=tuple(updates)))
            delta = fedavg_adapters(updates, plan)
            base = snapshot_blocks(model)
            model = apply_block_mask({n: base[n] + d for n, d in delta.items()},
                                     model)
        fn = fl_value_function(initial, log, eval_set, ["hz", "sf"])
        assert fn(frozenset({"hz"})) > fn(frozenset({"sf"}))


class TestPreparedValueFunction:
    def test_every_coalition_equals_recall_from_scratch(self):
        initial, log, _, eval_set, parties = make_fl_fixture(parties=("pa", "pb", "pc"))
        fn = fl_value_function(initial, log, eval_set, parties)

        def from_scratch(coalition):
            return recall_at_k(replay_coalition(initial, log, coalition), eval_set, 1)

        values = set()
        for k in range(len(parties) + 1):
            for subset in itertools.combinations(parties, k):
                s = frozenset(subset)
                assert fn(s) == from_scratch(s)
                values.add(fn(s))
        assert len(values) > 1
        weights = {"pa": 1.0, "pb": 2.0, "pc": 0.5}
        oracle = CoalitionValueFn(parties=parties, evaluate=from_scratch)
        assert wtdp_shapley(fn, weights, budget=12, tolerance=0.0, seed=3) == \
               wtdp_shapley(oracle, weights, budget=12, tolerance=0.0, seed=3)

    def test_prepared_models_are_scored_once_then_dropped(self, monkeypatch):
        import flmm.contribution as contribution
        initial, log, _, eval_set, parties = make_fl_fixture(parties=("pa", "pb", "pc"))
        subsets = [frozenset(s) for k in range(len(parties) + 1)
                   for s in itertools.combinations(parties, k)]
        expected = {s: recall_at_k(oracle_replay_coalition(initial, log, s), eval_set, 1)
                    for s in subsets}
        replayed = []
        one_by_one = contribution.replay_coalition
        monkeypatch.setattr(contribution, "replay_coalition",
                            lambda *args: replayed.append(args[2]) or one_by_one(*args))
        fn = fl_value_function(initial, log, eval_set, parties)
        exact_shapley(fn)
        assert replayed == []
        assert fn.cache == expected
        grand = frozenset(parties)
        assert fn.evaluate(grand) == expected[grand]
        assert replayed == [grand]

    @pytest.mark.parametrize("rows", [1, 3, 8, 9])
    def test_any_slice_size_gives_the_one_by_one_values(self, rows, monkeypatch):
        import flmm.contribution as contribution
        initial, log, _, eval_set, parties = make_fl_fixture(parties=("pa", "pb", "pc"))
        batch = eval_batch(initial, eval_set)
        monkeypatch.setattr(contribution, "_SLICE_BYTES",
                            rows * 8 * len(batch.xs) * len(batch.bank))
        assert slice_rows(batch) == rows
        scored = []
        stacked = contribution.recall_at_k
        monkeypatch.setattr(contribution, "recall_at_k",
                            lambda m, *a: scored.append(m) or stacked(m, *a))
        fn = fl_value_function(initial, log, batch, parties)
        exact_shapley(fn)
        assert [m.blocks["vision.a"].shape[0] for m in scored] == \
               [min(rows, 8 - lo) for lo in range(0, 8, rows)]
        assert fn.cache == {s: recall_at_k(oracle_replay_coalition(initial, log, s),
                                           eval_set, 1) for s in fn.cache}

    @pytest.mark.parametrize("tolerance", [0.0, 0.05])
    def test_wtdp_prepares_every_prefix_and_walks_as_unprepared(self, tolerance,
                                                                monkeypatch):
        import flmm.contribution as contribution
        initial, log, _, eval_set, parties = make_fl_fixture(
            parties=("pa", "pb", "pc", "pd"))
        weights = {"pa": 1.0, "pb": 2.0, "pc": 0.5, "pd": 1.0}
        plain = fl_value_function(initial, log, eval_set, parties)
        plain.prepare = None
        want = wtdp_shapley(plain, weights, budget=6, tolerance=tolerance, seed=5)
        fn = fl_value_function(initial, log, eval_set, parties)
        asked, replayed = [], []
        prepare = fn.prepare
        fn.prepare = lambda coalitions: asked.append(coalitions) or prepare(coalitions)
        one_by_one = contribution.replay_coalition
        monkeypatch.setattr(contribution, "replay_coalition",
                            lambda *args: replayed.append(args[2]) or one_by_one(*args))
        got = wtdp_shapley(fn, weights, budget=6, tolerance=tolerance, seed=5)
        assert got == want
        assert {p: v.hex() for p, v in got.values.items()} == \
               {p: v.hex() for p, v in want.values.items()}
        assert fn.evaluations == plain.evaluations
        assert fn.cache == plain.cache
        assert replayed == []
        [coalitions] = asked
        assert len(set(coalitions)) == len(coalitions)
        assert frozenset() in coalitions and frozenset(parties) in coalitions
        assert set(fn.cache) <= set(coalitions)


# ---------------------------------------------------------------------------
# Replay of a ServerCore round log follows each round's logged plan.
# ---------------------------------------------------------------------------

TOKEN = "tok"
PARTIES = ("pa", "pb", "pc")
VISION = frozenset({"vision.a", "vision.b"})


def block_crcs(model) -> str:
    """Block CRCs in the round log's ``blocks=`` format."""
    return ";".join(
        f"{n}:{zlib.crc32(np.ascontiguousarray(m, dtype='<f8').tobytes()):08x}"
        for n, m in sorted(snapshot_blocks(model).items()))


def logged_server_run(log_dir, plan, waves=3, parties=PARTIES, bridge=True,
                      gaps=False):
    """A ServerCore run fed random deltas. In each wave every party submits
    against the version the wave started at, so async_mix sees staleness 0, 1
    and 2; sample counts differ, so weighting matters.

    With ``gaps``, the second wave has holes: the last party sits it out (a
    sync round closes at its deadline without it), and the first party sends
    no bridge and no text.b."""
    mixing = plan.strategy == "async_mix"
    rounds = waves * len(parties) - gaps if mixing else waves
    cfg = ServerConfig(token=TOKEN, plan=plan, rounds=rounds, deadline=60.0,
                       expected_parties=parties)
    now = [0.0]
    core = ServerCore(cfg, small_snapshot(3, with_bridge=bridge), log_dir,
                      clock=lambda: now[0])
    for p in parties:
        core.handle(Message("REGISTER", {"party": p, "token": TOKEN}))
    rng = SplitMix64(17)
    for wave in range(waves):
        holes = gaps and wave == 1
        version = core.snapshot.version
        for i, p in enumerate(parties):
            if holes and i == len(parties) - 1:
                continue
            blocks = {n: rng.normal_matrix(*m.shape, 0.05) for n, m
                      in snapshot_blocks(core.snapshot).items()}
            if holes and i == 0:
                blocks = {n: m for n, m in blocks.items()
                          if n not in ("bridge", "text.b")}
            names, body = pack_blocks(blocks)
            resp = core.handle(Message("SUBMIT", {
                "party": p, "token": TOKEN, "base_version": str(version),
                "sample_count": str(i + 1), "blocks": names}, body))
            assert resp.msg_type == "ACK", resp.headers
        if holes and not mixing:
            now[0] += 61.0
            core.handle(Message("POLL", {"party": parties[0], "token": TOKEN}))
    assert core.finished
    return core


def blocks_bytes(model) -> dict:
    return {n: m.tobytes() for n, m in snapshot_blocks(model).items()}


class TestReplayFollowsTheLoggedPlan:
    @pytest.mark.parametrize("mask", [frozenset(BLOCK_NAMES), VISION],
                             ids=["all_blocks", "vision_only"])
    @pytest.mark.parametrize("strategy", ["sync_avg", "product_refactor", "async_mix"])
    def test_grand_coalition_reproduces_the_logged_blocks(self, tmp_path, strategy,
                                                           mask):
        plan = AggregationPlan(strategy=strategy, block_mask=mask)
        core = logged_server_run(str(tmp_path), plan)
        log = RoundLog(str(tmp_path))
        records = log.verify()
        assert [r["status"] for r in records] == ["ok"] * len(records)
        rounds = log.logged_rounds()
        assert all(rec.plan == plan for rec in rounds)
        initial = load_snapshot(log.checkpoint_bytes())
        replayed = replay_coalition(initial, rounds, frozenset(PARTIES))
        assert replayed.version == core.snapshot.version
        assert block_crcs(replayed) == records[-1]["blocks"]
        # a coalition that sat rounds out still ends on the logged version
        assert replay_coalition(initial, rounds, frozenset({"pc"})).version \
            == core.snapshot.version

    @pytest.mark.parametrize("bridge", [True, False], ids=["bridge", "no_bridge"])
    @pytest.mark.parametrize("mask", [frozenset(BLOCK_NAMES), VISION],
                             ids=["all_blocks", "vision_only"])
    @pytest.mark.parametrize("strategy", ["sync_avg", "product_refactor", "async_mix"])
    @pytest.mark.parametrize("n", [3, 5])
    def test_batched_replay_equals_the_per_coalition_oracle(self, tmp_path, n, strategy,
                                                            mask, bridge):
        parties = tuple(f"p{i}" for i in range(n))
        plan = AggregationPlan(strategy=strategy, block_mask=mask)
        logged_server_run(str(tmp_path), plan, parties=parties, bridge=bridge,
                          gaps=True)
        log = RoundLog(str(tmp_path))
        assert {r["status"] for r in log.verify()} == {"ok"}
        rounds = log.logged_rounds()
        last = parties[-1]
        assert any(last not in {u.client_id for u in rec.updates} for rec in rounds)
        initial = load_snapshot(log.checkpoint_bytes())
        coalitions = [frozenset(s) for k in range(n + 1)
                      for s in itertools.combinations(parties, k)]
        stack = replay_coalitions(initial, rounds, coalitions)
        for i, c in enumerate(coalitions):
            model = stack_rows(stack, i)
            oracle = oracle_replay_coalition(initial, rounds, c)
            assert model.version == oracle.version == len(rounds)
            assert blocks_bytes(model) == blocks_bytes(oracle), sorted(c)

    def test_replaying_no_coalitions_gives_no_models(self, tmp_path):
        logged_server_run(str(tmp_path), AggregationPlan())
        log = RoundLog(str(tmp_path))
        initial = load_snapshot(log.checkpoint_bytes())
        stack = replay_coalitions(initial, log.logged_rounds(), [])
        assert stack.version == len(log.logged_rounds())
        assert {n: m.shape for n, m in stack.blocks.items()} == \
               {n: (0,) + m.shape for n, m in initial.blocks.items()}

    def test_async_coalition_uses_its_own_history(self, tmp_path):
        plan = AggregationPlan(strategy="async_mix", mixing_rate=0.5,
                               staleness_exponent=1.0)
        logged_server_run(str(tmp_path), plan, waves=1)
        log = RoundLog(str(tmp_path))
        initial = load_snapshot(log.checkpoint_bytes())
        pc = log.load_update(log.verify()[2], "pc")
        # pc trained on v0 and was mixed in at v2: staleness 2, and with pa
        # and pb left out the coalition's own v0 and v2 are both the initial
        beta = 0.5 * (1 + 2) ** -1.0
        replayed = snapshot_blocks(replay_coalition(initial, log.logged_rounds(),
                                                    frozenset({"pc"})))
        for n, m in snapshot_blocks(initial).items():
            expected = (1.0 - beta) * m + beta * (m + pc.deltas[n])
            np.testing.assert_array_equal(replayed[n], expected)

    def test_another_plan_is_refused(self, tmp_path):
        logged_server_run(str(tmp_path), AggregationPlan(block_mask=VISION))
        log = RoundLog(str(tmp_path))
        assert len(log.logged_rounds(AggregationPlan(block_mask=VISION))) == 3
        with pytest.raises(HistoryError):
            log.logged_rounds(AggregationPlan())

    def test_a_grand_replay_off_the_logged_blocks_is_not_valued(self, tmp_path):
        from dataclasses import replace
        logged_server_run(str(tmp_path), AggregationPlan())
        log = RoundLog(str(tmp_path))
        rounds = log.logged_rounds()
        assert [rec.blocks for rec in rounds] == [r["blocks"] for r in log.verify()]
        wrong = rounds[:-1] + [replace(rounds[-1], blocks=rounds[0].blocks)]
        with pytest.raises(HistoryError, match="does not reproduce the blocks logged "
                                               f"in round {rounds[-1].round}"):
            fl_value_function(load_snapshot(log.checkpoint_bytes()), wrong, [], list(PARTIES))

    def test_masked_log_is_not_valued(self, tmp_path):
        logged_server_run(str(tmp_path), AggregationPlan(masking_enabled=True))
        log = RoundLog(str(tmp_path))
        rounds = log.logged_rounds()
        assert all(rec.plan.masking_enabled for rec in rounds)
        with pytest.raises(HistoryError):
            fl_value_function(load_snapshot(log.checkpoint_bytes()), rounds, [], list(PARTIES))
