"""Multi-party simulation driver: in-process and socket-distributed runs.

Both modes share the client agents, the server core, and the wire protocol;
with identical seeds they produce identical round logs and checkpoints.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from flmm.client import ClientAgent, InProcessTransport, SocketTransport, \
    run_client_loop
from flmm.config import ScenarioConfig
from flmm.contribution import ShapleyResult, exact_shapley, fl_value_function
from flmm.dataquality import generate_corpus, quality_loop, repair_corpus
from flmm.errors import ConfigError, StarvationError
from flmm.metrics import eval_batch, evaluate
from flmm.model import ModelSnapshot, init_snapshot, save_snapshot
from flmm.orchestrator import FederationServer, ServerConfig, ServerCore
from flmm.rng import mix_seed
from flmm.training import federated_train

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


def build_corpora(cfg: ScenarioConfig, repaired: bool = True) -> dict:
    out = {}
    for p in cfg.parties:
        records = generate_corpus(p.corpus)
        out[p.party_id] = repair_corpus(records) if repaired else records
    return out


def build_eval_set(cfg: ScenarioConfig):
    return generate_corpus(cfg.eval_spec)


def server_config(cfg: ScenarioConfig) -> ServerConfig:
    """The server's settings; its plan is masked exactly when the clients mask."""
    plan = replace(cfg.plan, masking_enabled=cfg.privacy.masking_enabled)
    return ServerConfig(token=cfg.token, plan=plan, rounds=cfg.rounds,
                        deadline=cfg.deadline, history_window=cfg.history_window,
                        expected_parties=cfg.party_ids())


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
    try:
        while not core.finished:
            progressed = False
            for agent in agents:
                if agent.step() == "ACK":
                    progressed = True
            if not progressed:
                break  # nothing accepted this sweep; avoid spinning
    except StarvationError as e:
        failure = str(e)

    del agents  # each holds its prepared corpus; the quality loop prepares its own
    model = core.snapshot
    reports = [evaluate(model, eval_set, "union-eval")]

    if cfg.quality.iters > 0 and failure is None:
        def train_fn(m, corpora_by_party):
            return federated_train(m, corpora_by_party, cfg.train,
                                   rounds=cfg.rounds, plan=cfg.plan, seed=cfg.seed)

        try:
            model, corpora, _loop = quality_loop(
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


def run_server(cfg: ScenarioConfig, host: str, port: int, log_dir: str) -> ServerCore:
    """Socket server for a distributed run; blocks until rounds finish."""
    import time
    core = ServerCore(server_config(cfg), build_initial_model(cfg), log_dir)
    server = FederationServer(host, port, core)
    server.serve_background()
    while not core.finished:
        time.sleep(0.05)
    time.sleep(0.5)  # grace period so clients can fetch the final model
    server.shutdown()
    server.server_close()
    return core


def run_client(cfg: ScenarioConfig, party_id: str, host: str, port: int) -> int:
    party = next((p for p in cfg.parties if p.party_id == party_id), None)
    if party is None:
        raise ConfigError(f"unknown party {party_id!r}")
    records = repair_corpus(generate_corpus(party.corpus))
    transport = SocketTransport(host, port)
    try:
        return run_client_loop(ClientAgent(cfg, party, records, transport))
    finally:
        transport.close()
