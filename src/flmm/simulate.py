"""Multi-party simulation driver: in-process and socket-distributed runs.

Both modes share the client agents, the server core, and the wire protocol.
Under ``sync_avg`` and ``product_refactor``, with identical seeds, they
produce identical round logs and checkpoints. Only the in-process run has a
quality loop, so the socket path refuses ``[quality] iters`` above 0. A
socket ``async_mix`` run is reproduced from its round log, whose replay
gives its final model, and not from the seed: each client's base version
depends on when it polls.

In process, each pass ``take``s the jobs of its agents, trains them in one
stacked local_train call, and ``finish``es each in party order. Under
``sync_avg`` and ``product_refactor`` a pass holds every agent. An
``async_mix`` SUBMIT closes a round, so the k-th of a pass, from 0, is k
versions stale: a pass holds the next ``history_window`` + 1 agents, no more
than the party count or the rounds left, in party order that wraps, so
every SUBMIT is within the window and none trains for a round that is never
opened. A socket client ``step``s alone, one row at a time; every row has
the bits it would have alone.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

from flmm.aggregation import ASYNC_MIX
from flmm.client import ClientAgent, InProcessTransport, SocketTransport, \
    TrainingJob, run_client_loop
from flmm.config import ScenarioConfig
from flmm.contribution import ShapleyResult, exact_shapley, fl_value_function
from flmm.dataquality import generate_corpus, quality_loop, repair_corpus
from flmm.errors import ConfigError, StarvationError
from flmm.metrics import eval_batch, evaluate
from flmm.model import ModelSnapshot, init_snapshot, save_snapshot
from flmm.orchestrator import FederationServer, ServerConfig, ServerCore
from flmm.rng import mix_seed
from flmm.training import federated_train, local_train

_MODEL_SALT = 0x30DE1


@dataclass
class SimulationResult:
    final_model: ModelSnapshot
    round_records: list
    reports: list  # EvalReport per evaluation point
    shapley: ShapleyResult | None
    log_dir: str
    failure: str | None = None


def build_initial_model(cfg: ScenarioConfig) -> ModelSnapshot:
    m = cfg.model
    return init_snapshot(mix_seed(cfg.seed, _MODEL_SALT), d_v=m.d_v, d_t=m.d_t,
                         d_emb=m.d_emb, rank=m.rank, vocab=m.vocab,
                         temperature=m.temperature, with_bridge=m.bridge)


def build_corpora(cfg: ScenarioConfig) -> dict:
    return {p.party_id: repair_corpus(generate_corpus(p.corpus)) for p in cfg.parties}


def build_eval_set(cfg: ScenarioConfig):
    return generate_corpus(cfg.eval_spec)


def server_config(cfg: ScenarioConfig) -> ServerConfig:
    """The server's settings. It fuses with the scenario's own plan, which
    is masked exactly when the clients mask, and waits for every party."""
    return ServerConfig(token=cfg.token, plan=cfg.plan, rounds=cfg.rounds,
                        deadline=cfg.deadline, history_window=cfg.history_window,
                        expected_parties=cfg.party_ids())


def train_batch(agents: list) -> bool:
    """One pass over ``agents``: each takes its job, the jobs train in one
    local_train call, each row with its own anchor_mu, and each agent
    finishes its job in party order. Every take runs before any finish, so
    the jobs share an assigned model and a TrainConfig but for anchor_mu;
    they share the round they submit to too, except under async_mix, where
    each SUBMIT closes one. True when a SUBMIT was ACKed."""
    taken = [(agent, agent.take()) for agent in agents]
    jobs = [(agent, job) for agent, job in taken if isinstance(job, TrainingJob)]
    if not jobs:
        return False
    first = jobs[0][1]
    cfg = replace(first.cfg, anchor_mu=tuple(job.cfg.anchor_mu for _, job in jobs))
    trained = local_train(first.model, [job.data for _, job in jobs], cfg,
                          [job.seed for _, job in jobs])
    return any([agent.finish(job, t) == "ACK" for (agent, job), t in zip(jobs, trained)])


def run_simulation(cfg: ScenarioConfig, out_dir: str,
                   with_shapley: bool = False) -> SimulationResult:
    """Full in-process run: protocol-mediated rounds, optional quality loop,
    eval reports, and artifacts written under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    log_dir = os.path.join(out_dir, "log")
    corpora = build_corpora(cfg)
    initial = build_initial_model(cfg)
    # prepared once: every model this run scores shares initial's token_embed
    eval_set = eval_batch(initial, build_eval_set(cfg))
    core = ServerCore(server_config(cfg), initial, log_dir)
    transport = InProcessTransport(core)
    agents = [ClientAgent(cfg, p, corpora[p.party_id], transport)
              for p in cfg.parties]
    for agent in agents:
        agent.register()
    failure = None
    start = 0  # the agent the next pass starts at
    while not core.finished:
        size = len(agents)
        if cfg.plan.strategy == ASYNC_MIX:  # each SUBMIT closes a round
            size = min(cfg.history_window + 1, size, cfg.rounds - core.state.round)
        if not train_batch([agents[(start + i) % len(agents)] for i in range(size)]):
            # no SUBMIT accepted this pass: stop rather than spin, and say so
            failure = (f"protocol stopped at round {core.state.round} of {cfg.rounds}: "
                       f"no update accepted")
            break
        start = (start + size) % len(agents)

    del agents  # each agent holds its prepared corpus; the loop prepares its own
    model = core.snapshot
    reports = [evaluate(model, eval_set, "union-eval")]

    if cfg.quality.iters > 0 and failure is None:
        def train_fn(m, corpora_by_party):
            return federated_train(m, corpora_by_party, cfg.train,
                                   rounds=cfg.rounds, plan=cfg.plan, seed=cfg.seed)

        try:
            model, corpora = quality_loop(
                corpora, model, train_fn, eval_set,
                max_iters=cfg.quality.iters, target_metric=cfg.quality.target,
                threshold=cfg.quality.threshold, floor=cfg.quality.floor)
            reports.append(evaluate(model, eval_set, "union-eval-postloop"))
        except StarvationError as e:
            failure = str(e)

    with open(os.path.join(out_dir, "final.ckpt"), "wb") as f:
        f.write(save_snapshot(model))
    with open(os.path.join(out_dir, "eval.txt"), "w") as f:
        for rep in reports:
            f.write("\n".join(rep.lines()) + "\n\n")

    shapley = None  # valued after the artifacts are written: a masked log raises
    if with_shapley and failure is None:
        fn = fl_value_function(initial, core.log.logged_rounds(), eval_set,
                               list(cfg.party_ids()))
        shapley = exact_shapley(fn)

    return SimulationResult(final_model=model,
                            round_records=core.log.verify(),
                            reports=reports, shapley=shapley,
                            log_dir=log_dir, failure=failure)


def _refuse_quality_loop(cfg: ScenarioConfig) -> None:
    if cfg.quality.iters > 0:
        raise ConfigError(f"[quality] iters = {cfg.quality.iters}: a socket run has no "
                          f"quality loop; only flmm simulate runs one")


def run_server(cfg: ScenarioConfig, host: str, port: int, log_dir: str) -> ServerCore:
    """Socket server for a distributed run; blocks until rounds finish."""
    _refuse_quality_loop(cfg)
    core = ServerCore(server_config(cfg), build_initial_model(cfg), log_dir)
    server = FederationServer(host, port, core)
    server.serve_background()
    while not core.finished:
        time.sleep(0.05)
    time.sleep(0.5)  # grace period so polling clients receive NOTASK finished=1
    server.shutdown()
    server.server_close()
    return core


def run_client(cfg: ScenarioConfig, party_id: str, host: str, port: int) -> int:
    _refuse_quality_loop(cfg)
    party = next((p for p in cfg.parties if p.party_id == party_id), None)
    if party is None:
        raise ConfigError(f"unknown party {party_id!r}")
    records = repair_corpus(generate_corpus(party.corpus))
    transport = SocketTransport(host, port)
    try:
        return run_client_loop(ClientAgent(cfg, party, records, transport))
    finally:
        transport.close()
