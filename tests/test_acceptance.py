"""End-to-end acceptance suite.

Each criterion is one test class; tolerances and runtime budgets are asserted
inside the tests. Criterion 6 (a per-round upload below 5% of a full
checkpoint) is measured on a base model with vocab 512, where the frozen
token table dominates the checkpoint as it does for a real base model. At
the default toy dimensions 160 of the 1440 parameters are trainable (adapters
and bridge), so an adapter-only upload cannot be under 5% there. The same
test checks that the upload does not grow with the frozen base.
"""

import dataclasses
import io
import threading
import time

import numpy as np
import pytest

from support import BLACKLIST_TOKENS, REFUSAL_TOKEN, ConsensusMap, ProbeItem, ProbeSet, \
    ScalarStream, caption_bank, check_grads_fd, distillation_loss_and_grads, \
    logged_spans, output_filter, pairwise_mask, quantize_deltas, random_batch, \
    small_snapshot, uniforms

from flmm.aggregation import (
    AggregationPlan,
    BLOCK_NAMES,
    ClientUpdate,
    fedavg_adapters,
    product_mean,
    refactor_matrix,
    snapshot_blocks,
)
from flmm.client import ClientAgent, SocketTransport, run_client_loop
from flmm.config import ModelConfig, PartyConfig, QualityConfig, ScenarioConfig
from flmm.contribution import CoalitionValueFn, exact_shapley, \
    fl_value_function, wtdp_shapley
from flmm.dataquality import (
    CorpusSpec,
    generate_corpus,
    quality_loop,
    repair_corpus,
    score_and_filter,
)
from flmm.errors import ProtocolError
from flmm.fusion import text_anchor_loss_and_grads
from flmm.metrics import bleu, recall_at_k, rouge_l
from flmm.model import contrastive_loss_and_grads, init_snapshot, save_snapshot
from flmm.orchestrator import RoundLog, ServerCore, FederationServer
from flmm.privacy import PrivacyConfig, gaussian_mechanism
from flmm.protocol import MSG_TYPES, Message, encode_message, read_frame
from flmm.rng import SplitMix64, hash_text, mix_seed
from flmm.simulate import build_corpora, build_initial_model, run_simulation, \
    server_config
from flmm.training import TrainConfig, federated_train


def scenario(seed=7, parties=2, rounds=2, size=40, classes=(0, 1, 2, 3),
             epochs=2, lr=0.1, masking=False, pools=None):
    pools = pools or {f"p{i}": classes for i in range(parties)}
    party_cfgs = tuple(
        PartyConfig(party_id=pid,
                    corpus=CorpusSpec(party=pid, size=size, corruption_rates={},
                                      seed=seed + i, scene_class_pool=pools[pid]),
                    anchor_mu=2.0)
        for i, pid in enumerate(sorted(pools)))
    return ScenarioConfig(
        seed=seed, rounds=rounds, token="tok", deadline=60.0,
        train=TrainConfig(epochs=epochs, lr=lr, batch_size=16),
        model=ModelConfig(), plan=AggregationPlan(), history_window=16,
        privacy=PrivacyConfig(masking_enabled=masking), parties=party_cfgs,
        eval_spec=CorpusSpec(party="eval", size=60, corruption_rates={},
                             seed=seed + 99,
                             scene_class_pool=tuple(sorted({c for p in pools.values()
                                                            for c in p}))),
        quality=QualityConfig(iters=0, target=2.0))


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness against central finite differences.
# ---------------------------------------------------------------------------

class TestCriterion1Gradients:
    N_FIXTURES = 100
    STEP = 1e-5
    RTOL = 1e-4

    def _probe_and_consensus(self, seed):
        rng = ScalarStream(seed)
        items = tuple(
            [ProbeItem("image", f"i{k}", image=rng.gaussians(8))
             for k in range(2)] +
            [ProbeItem("text", f"t{k}",
                       tokens=tuple(int(rng.next_u64() % 16) for _ in range(3)))
             for k in range(2)])
        probe = ProbeSet(probe_id="acc", items=items)
        emb = {}
        for it in items:
            v = rng.gaussians(4)
            emb[it.item_id] = v / np.linalg.norm(v)
        return probe, ConsensusMap(probe_id="acc", round=0, embeddings=emb)

    def test_all_losses_match_finite_differences_under_30s(self):
        t0 = time.monotonic()
        for seed in range(self.N_FIXTURES):
            s = small_snapshot(seed)
            batch = random_batch(seed + 1)
            probe, cons = self._probe_and_consensus(seed + 2)

            _, g = contrastive_loss_and_grads(s, batch)
            check_grads_fd(s, lambda m: contrastive_loss_and_grads(m, batch)[0],
                           g, step=self.STEP, rtol=self.RTOL)

            _, g = distillation_loss_and_grads(s, probe, cons, 0.7)
            check_grads_fd(
                s, lambda m: distillation_loss_and_grads(m, probe, cons, 0.7)[0],
                g, step=self.STEP, rtol=self.RTOL)

            # text-side gradients are zero by the stop-gradient definition, so
            # only vision and bridge entries have meaningful finite differences
            _, g = text_anchor_loss_and_grads(s, batch, 1.3)
            check_grads_fd(
                s, lambda m: text_anchor_loss_and_grads(m, batch, 1.3)[0],
                g, step=self.STEP, rtol=self.RTOL,
                blocks=("vision.a", "vision.b", "bridge"))
        assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# Criterion 2: aggregation oracle equivalence.
# ---------------------------------------------------------------------------

SHAPES = {"vision.a": (2, 16), "vision.b": (8, 2),
          "text.a": (2, 16), "text.b": (8, 2), "bridge": (8, 8)}


def random_update(seed, client_id, scale=1.0):
    rng = ScalarStream(seed)
    deltas = {n: scale * rng.normal_matrix(*SHAPES[n]) for n in SHAPES}
    return ClientUpdate(client_id=client_id, base_version=0, deltas=deltas,
                        sample_count=1 + int(rng.next_u64() % 9),
                        submitted_round=0)


class TestCriterion2Aggregation:
    def test_fedavg_matches_naive_oracle_1000_cases(self):
        plan = AggregationPlan()
        for case in range(1000):
            rng = ScalarStream(mix_seed(0xACC, case))
            k = 2 + int(rng.next_u64() % 3)
            updates = [random_update(mix_seed(case, i), f"c{i}")
                       for i in range(k)]
            out = fedavg_adapters(updates, plan)
            total = sum(u.sample_count for u in updates)
            for name in SHAPES:
                oracle = sum(u.sample_count * u.deltas[name] for u in updates)
                oracle = oracle / total
                np.testing.assert_allclose(out[name], oracle, atol=1e-12)

    def test_fedavg_permutation_invariance_bit_exact(self):
        plan = AggregationPlan()
        updates = [random_update(mix_seed(1, i), f"c{i}") for i in range(4)]
        ref = fedavg_adapters(updates, plan)
        for perm_seed in range(10):
            shuffled = list(updates)
            SplitMix64(perm_seed).shuffle(shuffled)
            out = fedavg_adapters(shuffled, plan)
            for name in ref:
                np.testing.assert_array_equal(out[name], ref[name])

    def test_product_refactor_matches_dense_svd_oracle(self):
        # The iteration is driven to a tight stagnation tolerance here: the
        # operational default (1e-10, 500 iterations) bounds round-time cost,
        # not the distance to the optimum, which is what this oracle checks.
        rank, alpha = 2, 4.0
        scale = alpha / rank
        for case in range(50):
            updates = [random_update(mix_seed(7, case, i), f"c{i}")
                       for i in range(3)]
            m = product_mean(updates, "vision", scale)  # 8x16
            a, b = refactor_matrix(m, rank, scale, tol=1e-13, max_iters=5000)
            residual = np.linalg.norm(m - scale * (b @ a))
            svals = np.linalg.svd(m, compute_uv=False)
            oracle = float(np.sqrt(np.sum(svals[rank:] ** 2)))
            assert abs(residual - oracle) <= 1e-8


# ---------------------------------------------------------------------------
# Criterion 3: Shapley axioms and WTDP convergence on FL-replay games.
# ---------------------------------------------------------------------------

def constructed_game(seed):
    """Random-table game with two symmetric players and one null player."""
    n_real = 2 + seed % 3  # 2..4 real players, plus the null player: n <= 5
    others = tuple(f"o{i}" for i in range(n_real - 2))
    parties = ["p0", "p1", *others, "z"]
    rng = SplitMix64(mix_seed(0x9A3E, seed))
    table = {}

    def key(coalition):
        c01 = ("p0" in coalition) + ("p1" in coalition)
        return (c01, frozenset(coalition & frozenset(others)))

    def value(coalition):
        k = key(coalition - {"z"})
        if k not in table:
            salt = mix_seed(seed, k[0], *(hash_text(o) for o in sorted(k[1])))
            table[k] = uniforms(SplitMix64(salt), 1)[0]
        return table[k]

    # pre-populate so the table is deterministic regardless of call order
    import itertools
    for r in range(len(parties) + 1):
        for combo in itertools.combinations(parties, r):
            value(frozenset(combo))
    return CoalitionValueFn(parties=parties, evaluate=value)


class TestCriterion3Shapley:
    def test_axioms_on_20_games_and_wtdp_replay_under_2min(self, tmp_path):
        t0 = time.monotonic()
        for seed in range(20):
            fn = constructed_game(seed)
            res = exact_shapley(fn)
            grand = fn(frozenset(fn.parties))
            empty = fn(frozenset())
            assert res.efficiency_residual(grand, empty) <= 1e-9
            assert abs(res.values["p0"] - res.values["p1"]) <= 1e-9
            assert abs(res.values["z"]) <= 1e-9

        # 3-party FL replay: value = recall@1 of the coalition-replayed model
        pools = {"p0": (0, 1, 2), "p1": (3, 4, 5), "p2": (6, 7)}
        cfg = scenario(seed=5, rounds=2, size=30, pools=pools)
        result = run_simulation(cfg, str(tmp_path))
        rounds = RoundLog(result.log_dir).logged_rounds(cfg.plan)
        eval_set = generate_corpus(cfg.eval_spec)
        fn = fl_value_function(build_initial_model(cfg), rounds, eval_set,
                               ["p0", "p1", "p2"])
        exact = exact_shapley(fn)
        approx = wtdp_shapley(fn, {p: 1.0 for p in fn.parties},
                              budget=200, tolerance=0.0, seed=3)
        for p in fn.parties:
            assert abs(exact.values[p] - approx.values[p]) <= 0.05
        assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# Criterion 4: quality-loop effectiveness on the scaled 3-party scenario.
# ---------------------------------------------------------------------------

class TestCriterion4QualityLoop:
    def test_filtering_recovers_recall_and_drops_mismatches_under_10min(self):
        t0 = time.monotonic()
        seed = 11
        plan = AggregationPlan()
        cfg = TrainConfig(epochs=6, lr=0.2, batch_size=32)
        specs = {
            "p0": CorpusSpec(party="p0", size=2600,
                             corruption_rates={"mismatched": 0.3},
                             seed=1, scene_class_pool=tuple(range(8))),
            "p1": CorpusSpec(party="p1", size=1500,
                             corruption_rates={"mismatched": 0.3, "too_short": 0.1},
                             seed=2, scene_class_pool=tuple(range(8))),
            "p2": CorpusSpec(party="p2", size=1100,
                             corruption_rates={"mismatched": 0.3, "labels_only": 0.2},
                             seed=3, scene_class_pool=tuple(range(8))),
        }
        corpora = {p: repair_corpus(generate_corpus(s)) for p, s in specs.items()}
        eval_set = generate_corpus(CorpusSpec(
            party="eval", size=200, corruption_rates={}, seed=99,
            scene_class_pool=tuple(range(8))))
        model0 = init_snapshot(seed)

        def train_fn(m, cs):
            return federated_train(m, cs, cfg, rounds=4, plan=plan, seed=seed)

        nofilter = train_fn(model0, corpora)
        r_nofilter = recall_at_k(nofilter, eval_set, 1)

        mism_dropped = mism_total = clean_dropped = clean_total = 0
        for recs in corpora.values():
            _, dropped = score_and_filter(nofilter, recs, "auto")
            for r in recs:
                bad = "mismatched" in r.corruption
                mism_total += bad
                clean_total += not bad
            for r in dropped:
                bad = "mismatched" in r.corruption
                mism_dropped += bad
                clean_dropped += not bad
        assert mism_dropped / mism_total >= 0.8
        assert clean_dropped / clean_total <= 0.2

        final, _, iters = quality_loop(corpora, model0, train_fn, eval_set,
                                       max_iters=2, target_metric=2.0,
                                       threshold="auto", floor=10)
        assert recall_at_k(final, eval_set, 1) >= r_nofilter
        assert time.monotonic() - t0 < 600.0


# ---------------------------------------------------------------------------
# Criterion 5: collaboration benefit across 5 seeds.
# ---------------------------------------------------------------------------

class TestCriterion5Collaboration:
    def test_federated_beats_every_single_party_model(self):
        plan = AggregationPlan()
        cfg = TrainConfig(epochs=6, lr=0.1, batch_size=32, anchor_mu=2.0)
        pools = {"p0": (0, 1, 2), "p1": (3, 4, 5), "p2": (6, 7)}
        sizes = {"p0": 120, "p1": 100, "p2": 80}
        ties = 0
        for seed in range(5):
            corpora = {
                p: repair_corpus(generate_corpus(CorpusSpec(
                    party=p, size=sizes[p], corruption_rates={},
                    seed=mix_seed(seed, i), scene_class_pool=pools[p])))
                for i, p in enumerate(sorted(pools))}
            eval_set = generate_corpus(CorpusSpec(
                party="eval", size=160, corruption_rates={},
                seed=mix_seed(seed, 99), scene_class_pool=tuple(range(8))))
            model0 = init_snapshot(mix_seed(seed, 7))
            fed = federated_train(model0, corpora, cfg, rounds=5, plan=plan,
                                  seed=seed)
            r_fed = recall_at_k(fed, eval_set, 1)
            best_single = max(
                recall_at_k(federated_train(model0, {p: corpora[p]}, cfg,
                                            rounds=5, plan=plan, seed=seed),
                            eval_set, 1)
                for p in corpora)
            assert r_fed >= best_single, f"seed {seed}"
            ties += r_fed == best_single
        assert ties <= 1


# ---------------------------------------------------------------------------
# Criterion 6: communication saving below 5% of the checkpoint.
# An upload carries only the trainable blocks. At the default ModelConfig
# those are 160 of the checkpoint's 1440 parameters (vision.a 2x16, vision.b
# 8x2, text.a 2x16, text.b 8x2, bridge 8x8): 1280 B of float64 against an
# 11.6 KB checkpoint, so no lossless encoding meets 5% there. The bound is
# about a frozen base that dominates the checkpoint, so it is measured at
# vocab 512, where the frozen token table is most of it. The default-size run
# then pins that every upload is the same size as at vocab 512: a frozen block
# on the wire, or any upload that scales with the base, fails the test.
# ---------------------------------------------------------------------------

class TestCriterion6Communication:
    def test_per_round_upload_below_5_percent_of_checkpoint(self, tmp_path):
        def upload_sizes(cfg, run_dir):
            """Each logged frame's length, as its round record names it."""
            result = run_simulation(cfg, str(run_dir))
            return result, {f"r{r}_{party}": length for (r, party), (_, length)
                            in logged_spans(result.log_dir).items()}

        cfg = dataclasses.replace(scenario(), model=ModelConfig(vocab=512))
        result, sizes = upload_sizes(cfg, tmp_path / "vocab512")
        ckpt_bytes = len(save_snapshot(result.final_model))
        assert sizes
        for name, uploaded in sizes.items():
            assert uploaded < 0.05 * ckpt_bytes, \
                f"{name}: {uploaded}B vs checkpoint {ckpt_bytes}B"

        _, default_sizes = upload_sizes(scenario(), tmp_path / "default")
        assert default_sizes == sizes


# ---------------------------------------------------------------------------
# Criterion 7: privacy mechanics.
# ---------------------------------------------------------------------------

class TestCriterion7Privacy:
    def test_pairwise_mask_cancellation_bit_exact_1000_cases(self):
        for case in range(1000):
            updates = [random_update(mix_seed(0x3A5C, case, i), f"c{i}", 0.3)
                       for i in range(3)]
            masked = pairwise_mask(updates, mix_seed(case, 1))
            for name in SHAPES:
                total = sum(m.deltas[name] for m in masked)
                expected = sum(quantize_deltas(u.deltas)[name] for u in updates)
                np.testing.assert_array_equal(total, expected)

    def test_gaussian_noise_std_within_1_percent(self):
        rng = SplitMix64(99)
        deltas = {"bridge": rng.normal_matrix(250, 400)}
        update = ClientUpdate(client_id="c", base_version=0, deltas=deltas,
                              sample_count=1, submitted_round=0)
        cfg = PrivacyConfig(dp_enabled=True, clip_norm=1e9, noise_std=0.37)
        noised = gaussian_mechanism(update, cfg, seed=5)
        noise = noised.deltas["bridge"] - deltas["bridge"]
        assert noise.size == 100_000
        assert abs(noise.std() / 0.37 - 1.0) < 0.01

    def test_no_blacklisted_token_in_any_emitted_caption(self):
        records = []
        for party_seed in range(4):
            records += generate_corpus(CorpusSpec(
                party=f"p{party_seed}", size=100,
                corruption_rates={"mismatched": 0.2, "sensitive_noise": 0.2,
                                  "labels_only": 0.2, "too_short": 0.2},
                seed=party_seed, scene_class_pool=tuple(range(8))))
        bank = caption_bank([r for r in repair_corpus(records) if r.caption])
        bank.append([1, min(BLACKLIST_TOKENS), 3])  # planted violation
        assert bank
        for caption in bank:
            emitted, _ = output_filter(list(caption), BLACKLIST_TOKENS, (REFUSAL_TOKEN,))
            assert not set(emitted) & BLACKLIST_TOKENS


# ---------------------------------------------------------------------------
# Criterion 8: protocol and persistence.
# ---------------------------------------------------------------------------

class TestCriterion8ProtocolPersistence:
    def test_crash_recovery_reproduces_state_bit_exactly(self, tmp_path):
        cfg = scenario(rounds=3)
        result = run_simulation(cfg, str(tmp_path))
        recovered = ServerCore.recover(server_config(cfg), result.log_dir)
        assert recovered.snapshot.version == result.final_model.version
        assert save_snapshot(recovered.snapshot) == save_snapshot(result.final_model)
        log = RoundLog(result.log_dir)
        for rec in log.verify():
            if rec.get("status") == "ok":
                v = int(rec["post_version"])
                assert save_snapshot(log.load_checkpoint(v)) == \
                    save_snapshot(recovered.log.load_checkpoint(v))

    def test_distributed_loopback_equals_in_process_to_1e12(self, tmp_path):
        cfg = scenario()
        in_proc = run_simulation(cfg, str(tmp_path / "inproc"))
        core = ServerCore(server_config(cfg), build_initial_model(cfg),
                          str(tmp_path / "dist"))
        server = FederationServer("127.0.0.1", 0, core)
        port = server.server_address[1]
        server.serve_background()
        transports = []
        try:
            corpora = build_corpora(cfg)
            threads = []
            for p in cfg.parties:
                transports.append(SocketTransport("127.0.0.1", port))
                agent = ClientAgent(cfg, p, corpora[p.party_id], transports[-1])
                t = threading.Thread(target=run_client_loop, args=(agent,),
                                     daemon=True)
                t.start()
                threads.append(t)
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            for transport in transports:
                transport.close()
            server.shutdown()
            server.server_close()
        a = snapshot_blocks(in_proc.final_model)
        b = snapshot_blocks(core.snapshot)
        for name in a:
            np.testing.assert_allclose(a[name], b[name], atol=1e-12)

    def test_wire_roundtrip_identity_all_message_types(self):
        for msg_type in MSG_TYPES:
            msg = Message(msg_type, {"party": "p", "round": "1"},
                          body=b"\x00binary\xff\n\npayload")
            out = read_frame(io.BytesIO(encode_message(msg)))
            assert (out.msg_type, out.headers, out.body) == \
                (msg.msg_type, msg.headers, msg.body)

    def test_adversarial_truncation_cleanly_rejected(self):
        raw = encode_message(Message("SUBMIT", {"round": "2"}, b"0123456789"))
        for cut in range(len(raw)):
            with pytest.raises(ProtocolError):
                read_frame(io.BytesIO(raw[:cut]))


# ---------------------------------------------------------------------------
# Criterion 9: metric correctness.
# ---------------------------------------------------------------------------

class TestCriterion9Metrics:
    def test_bleu_hand_computed_examples_exact(self):
        assert bleu([1, 2, 3, 4], [[1, 2, 3, 4]]) == 1.0
        assert bleu([1, 2, 3], [[4, 5, 6]]) == 0.0
        # p1 = p2 = 1, BP = e^(1 - 4/3) -> e^(-1/3) ~ 0.7165
        expected = float(np.exp(1.0 - 4.0 / 3.0))
        assert bleu([1, 2, 3], [[1, 2, 3, 4]], max_n=2) == expected
        assert abs(expected - 0.7165) < 5e-5

    def test_rouge_hand_computed_examples_exact(self):
        assert rouge_l([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0
        assert rouge_l([1, 2], [3, 4]) == 0.0
        # LCS=3, P=1, R=0.75 -> F1 = 6/7
        assert rouge_l([1, 3, 4], [1, 2, 3, 4]) == 6.0 / 7.0

    def test_recall_at_k_monotone_on_100_fixtures(self):
        for seed in range(100):
            eval_set = generate_corpus(CorpusSpec(
                party="e", size=30, corruption_rates={}, seed=seed,
                scene_class_pool=tuple(range(1 + seed % 8))))
            model = init_snapshot(mix_seed(seed, 0xE))
            bank = caption_bank(eval_set)
            recalls = [recall_at_k(model, eval_set, k)
                       for k in range(1, len(bank) + 1)]
            assert all(b >= a for a, b in zip(recalls, recalls[1:]))
            assert recalls[-1] == 1.0
