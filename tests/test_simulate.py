"""The in-process driver: each pass's jobs train in one stacked local_train
call and must write exactly what the pass oracle, which trains each job
alone, writes."""

from dataclasses import replace

import pytest

import flmm.simulate
from flmm.cli import main
from flmm.aggregation import AggregationPlan
from flmm.client import InProcessTransport
from flmm.config import ModelConfig, PartyConfig, QualityConfig, ScenarioConfig
from flmm.contribution import fl_value_function
from flmm.dataquality import CorpusSpec
from flmm.model import save_snapshot
from flmm.orchestrator import RoundLog, ServerCore
from flmm.privacy import PrivacyConfig
from flmm.simulate import build_corpora, build_eval_set, build_initial_model, \
    run_simulation, server_config
from flmm.training import TrainConfig, trainable_records

from support import run_artifacts, run_sequential, spy_local_train


def scenario(strategy="sync_avg", masking=False, dp=False, anchor_mus=(0.0, 0.0, 0.0),
             sizes=None, rounds=3, quality_iters=0) -> ScenarioConfig:
    sizes = sizes or (40,) * len(anchor_mus)
    parties = tuple(
        PartyConfig(party_id=f"p{i}",
                    corpus=CorpusSpec(party=f"p{i}", size=size, corruption_rates={},
                                      seed=90 + i, scene_class_pool=(0, 1, 2, 3)),
                    anchor_mu=mu)
        for i, (mu, size) in enumerate(zip(anchor_mus, sizes)))
    return ScenarioConfig(
        seed=91, rounds=rounds, token="tok", deadline=60.0,
        train=TrainConfig(epochs=2, lr=0.1, batch_size=16), model=ModelConfig(),
        plan=AggregationPlan(strategy=strategy, masking_enabled=masking),
        history_window=16,
        privacy=PrivacyConfig(dp_enabled=dp, noise_std=0.001 if dp else 0.0),
        parties=parties,
        eval_spec=CorpusSpec(party="eval", size=40, corruption_rates={}, seed=190,
                             scene_class_pool=(0, 1, 2, 3)),
        quality=QualityConfig(iters=quality_iters, target=2.0, threshold=0.0))


def rows_per_call(calls) -> list:
    """Each local_train call's party count: a stack's length, or 1."""
    return [len(seed) if isinstance(seed, list) else 1 for _, _, seed in calls]


def submit_rejects(monkeypatch) -> list:
    """The kind of each REJECT a SUBMIT gets in the runs that follow."""
    kinds = []

    class Recording(InProcessTransport):
        def send(self, msg):
            resp = super().send(msg)
            if msg.msg_type == "SUBMIT" and resp.msg_type == "REJECT":
                kinds.append(resp.headers["kind"])
            return resp

    monkeypatch.setattr(flmm.simulate, "InProcessTransport", Recording)
    return kinds


# scenario, the rows of each of its local_train calls, and its SUBMITs the
# server REJECTs. Every strategy trains one stack per pass; an async_mix
# SUBMIT closes its round, so 3 parties x 5 rounds train 6 jobs and the last
# SUBMIT finds the run finished
CASES = {
    "sync_avg": (scenario(), [3] * 3, []),
    "product_refactor": (scenario(strategy="product_refactor"), [3] * 3, []),
    "masking_dp": (scenario(masking=True, dp=True), [3] * 3, []),
    "mixed_anchor_mu": (scenario(anchor_mus=(0.0, 2.0, 2.0, 0.0)), [4] * 3, []),
    "async_mix": (scenario(strategy="async_mix", rounds=5), [3, 3], ["StalenessError"]),
}


@pytest.mark.parametrize("case", CASES)
def test_stacked_rounds_write_what_sequential_agents_write(case, tmp_path, monkeypatch):
    cfg, rows, rejects = CASES[case]
    sequential = run_sequential(cfg, str(tmp_path / "sequential"))
    calls = spy_local_train(monkeypatch)
    rejected = submit_rejects(monkeypatch)
    stacked = run_simulation(cfg, str(tmp_path / "stacked"))
    assert rows_per_call(calls) == rows
    assert rejected == rejects
    assert stacked.failure is sequential.failure is None
    want = run_artifacts(str(tmp_path / "sequential"))
    assert run_artifacts(str(tmp_path / "stacked")) == want
    assert len(want["records"]) == cfg.rounds
    assert all(r["status"] == "ok" for r in want["records"])
    assert sum(len(r["updates"].split(",")) for r in want["records"]) \
        == sum(rows) - len(rejects)


def test_in_process_async_mix_logs_stale_updates_that_replay(tmp_path):
    cfg = CASES["async_mix"][0]
    result = run_simulation(cfg, str(tmp_path), with_shapley=True)
    assert result.failure is None
    log = RoundLog(result.log_dir)
    # each round logs one update, named "party:sample_count"; the k-th
    # SUBMIT of a pass is k versions behind the round it closes
    staleness = [int(rec["pre_version"])
                 - log.load_update(rec, rec["contributors"].split(":")[0]).base_version
                 for rec in log.verify()]
    assert staleness == [0, 1, 2, 0, 1]
    final = (tmp_path / "final.ckpt").read_bytes()
    assert save_snapshot(ServerCore.recover(server_config(cfg), result.log_dir).snapshot) \
        == final
    fn = fl_value_function(build_initial_model(cfg), log.logged_rounds(),
                           build_eval_set(cfg), list(cfg.party_ids()))
    assert result.shapley.efficiency_residual(fn(frozenset(cfg.party_ids())),
                                              fn(frozenset())) <= 1e-9


def test_mixed_anchor_mu_trains_one_stack_with_a_mu_per_row(tmp_path, monkeypatch):
    cfg = CASES["mixed_anchor_mu"][0]
    calls = spy_local_train(monkeypatch)
    run_simulation(cfg, str(tmp_path))
    assert len(calls) == cfg.rounds
    for data, cfg_, seed in calls:
        assert [d.records[0].party for d in data] == ["p0", "p1", "p2", "p3"]
        assert cfg_ == replace(cfg.train, anchor_mu=(0.0, 2.0, 2.0, 0.0))
        assert len(seed) == 4


def test_a_party_below_two_usable_records_trains_in_the_stack(tmp_path, monkeypatch):
    cfg = scenario(sizes=(40, 1, 40))
    assert len(trainable_records(build_corpora(cfg)["p1"])) == 1
    run_sequential(cfg, str(tmp_path / "sequential"))
    calls = spy_local_train(monkeypatch)
    run_simulation(cfg, str(tmp_path / "stacked"))
    assert rows_per_call(calls) == [3] * cfg.rounds
    want = run_artifacts(str(tmp_path / "sequential"))
    assert run_artifacts(str(tmp_path / "stacked")) == want
    assert [r["contributors"] for r in want["records"]] == ["p0:40,p1:1,p2:40"] * 3


class RejectFirstSubmitOfP1(InProcessTransport):
    """Sends p1's first SUBMIT with a wrong token, so the server REJECTs it."""

    def __init__(self, core):
        super().__init__(core)
        self.rejected = []

    def send(self, msg):
        if msg.msg_type == "SUBMIT" and msg.headers["party"] == "p1" and not self.rejected:
            msg = replace(msg, headers={**msg.headers, "token": "wrong"})
            self.rejected.append(super().send(msg))
            return self.rejected[-1]
        return super().send(msg)


def test_a_submit_reject_in_the_middle_of_a_batch(tmp_path, monkeypatch):
    cfg = scenario()
    transports = []

    def transport(core):
        transports.append(RejectFirstSubmitOfP1(core))
        return transports[-1]

    monkeypatch.setattr(flmm.simulate, "InProcessTransport", transport)
    run_sequential(cfg, str(tmp_path / "sequential"))
    calls = spy_local_train(monkeypatch)
    run_simulation(cfg, str(tmp_path / "stacked"))
    for t in transports:
        assert [(r.msg_type, r.headers["kind"]) for r in t.rejected] == \
            [("REJECT", "AuthError")]
    # p0 and p2 are in; p1 retrains round 0 alone and closes it
    assert rows_per_call(calls) == [3, 1, 3, 3]
    want = run_artifacts(str(tmp_path / "sequential"))
    assert run_artifacts(str(tmp_path / "stacked")) == want
    assert [r["status"] for r in want["records"]] == ["ok"] * cfg.rounds


class RejectEverySubmitOfP1(InProcessTransport):
    """Sends every SUBMIT of p1 with a wrong token: round 0 never closes."""

    def send(self, msg):
        if msg.msg_type == "SUBMIT" and msg.headers["party"] == "p1":
            msg = replace(msg, headers={**msg.headers, "token": "wrong"})
        return super().send(msg)


def test_a_run_whose_rounds_cannot_close_fails_and_still_writes(tmp_path, monkeypatch):
    monkeypatch.setattr(flmm.simulate, "InProcessTransport", RejectEverySubmitOfP1)
    retrained = []
    monkeypatch.setattr(flmm.simulate, "federated_train",
                        lambda *args, **kwargs: retrained.append(args))
    result = run_simulation(scenario(quality_iters=1), str(tmp_path), with_shapley=True)
    assert result.failure == "protocol stopped at round 0 of 3: no update accepted"
    assert result.round_records == [] and result.final_model.version == 0
    assert result.shapley is None and retrained == []
    assert len(result.reports) == 1  # the quality loop did not run
    assert (tmp_path / "final.ckpt").exists() and (tmp_path / "eval.txt").exists()


def test_flmm_simulate_exits_4_when_its_rounds_cannot_close(tmp_path, monkeypatch,
                                                             capsys):
    parties = "".join(f"\n[party:p{i}]\nsize = 40\nseed = {90 + i}\nclasses = 0,1,2,3\n"
                      for i in range(3))
    path = tmp_path / "scenario.ini"
    path.write_text("[run]\nseed = 91\nrounds = 3\nepochs = 2\nlr = 0.1\n"
                    "batch_size = 16\n" + parties
                    + "\n[eval]\nsize = 40\nseed = 190\nclasses = 0,1,2,3\n")
    monkeypatch.setattr(flmm.simulate, "InProcessTransport", RejectEverySubmitOfP1)
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(run)]) == 4
    assert "protocol stopped at round 0 of 3" in capsys.readouterr().err
    assert (run / "final.ckpt").exists() and (run / "eval.txt").exists()


def test_every_training_goes_through_local_train(tmp_path, monkeypatch):
    """Usable records x epochs over local_train's calls is the run's work:
    every party-round of the protocol rounds and of the quality loop's
    retraining."""
    cfg = scenario(anchor_mus=(0.0, 2.0, 2.0), quality_iters=1)
    retrained = []
    federated_train = flmm.simulate.federated_train

    def spy_federated_train(model, corpora_by_party, *args, **kwargs):
        retrained.append(corpora_by_party)
        return federated_train(model, corpora_by_party, *args, **kwargs)

    monkeypatch.setattr(flmm.simulate, "federated_train", spy_federated_train)
    calls = spy_local_train(monkeypatch)
    result = run_simulation(cfg, str(tmp_path))
    assert result.failure is None and len(retrained) == 2
    assert calls

    def party_rounds(corpora: dict) -> int:
        return cfg.rounds * sum(len(trainable_records(c)) for c in corpora.values())

    total = party_rounds(build_corpora(cfg)) + sum(map(party_rounds, retrained))
    assert sum(len(trainable_records(records)) * c.epochs for records, c, _ in calls) \
        == total * cfg.train.epochs
