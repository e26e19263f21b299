"""The benchmark's three closed-loop workloads, driven through flmm's public API.

Each workload has a set-up (inputs and initial model; for shapley_replay also
the run that writes the round log), a timed phase, and checks that run
outside the timed phase. All inputs derive from the workload seed, so every
repetition of a workload with one seed must produce identical output bits.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import flmm.client
import flmm.simulate
from flmm.aggregation import snapshot_blocks
from flmm.client import ClientAgent, InProcessTransport, SocketTransport
from flmm.config import load_config
from flmm.contribution import exact_shapley, fl_value_function, replay_coalition
from flmm.errors import FlmmError
from flmm.model import save_snapshot
from flmm.orchestrator import FederationServer, RoundLog, ServerCore
from flmm.rng import mix_seed
from flmm.simulate import (build_corpora, build_eval_set, build_initial_model,
                           run_simulation, server_config)

DEFAULT_SEED = 42
_CORPUS_SALT = 0xBE7C


# --- scenarios ----------------------------------------------------------------

def _party(seed: int, index: int, size: int, classes: str, extra: str = "") -> str:
    return (f"[party:p{index}]\nsize = {size}\nclasses = {classes}\n"
            f"seed = {mix_seed(seed, _CORPUS_SALT, index)}\n{extra}")


def _eval(seed: int, size: int) -> str:
    return (f"[eval]\nsize = {size}\nclasses = 0,1,2,3,4,5,6,7\n"
            f"seed = {mix_seed(seed, _CORPUS_SALT, 999)}\n")


def sim_quality_ini(seed: int) -> str:
    """4 parties x 400 records: two with 20% mismatched captions, two with a
    text anchor; 5 rounds x 4 epochs; one quality-loop iteration.

    The filter threshold is fixed at cosine 0. With ``auto`` (Otsu), a clean
    party's unimodal score histogram is cut at an arbitrary point: the kept
    set swung from 60 to 338 of 400 records across seeds 1-6, so the
    retraining work, and wall time, depended on the seed."""
    parties = [
        _party(seed, 0, 400, "0,1,2,3", "mismatched = 0.2\n"),
        _party(seed, 1, 400, "4,5,6,7", "mismatched = 0.2\n"),
        _party(seed, 2, 400, "0,1,2,3,4,5,6,7", "anchor_mu = 2.0\n"),
        _party(seed, 3, 400, "0,2,4,6,1", "anchor_mu = 2.0\n"),
    ]
    return (f"[run]\nseed = {seed}\nrounds = 5\nepochs = 4\nlr = 0.1\n"
            f"batch_size = 32\n\n" + "\n".join(parties) + "\n" + _eval(seed, 200)
            + "\n[quality]\niters = 1\ntarget = 2.0\nthreshold = 0.0\n")


def loopback_masked_ini(seed: int) -> str:
    """3 parties x 16 records, one SGD step per party-round, 300 rounds,
    pairwise masking and DP on."""
    parties = [_party(seed, i, 16, "0,1,2,3,4,5,6,7") for i in range(3)]
    return (f"[run]\nseed = {seed}\nrounds = 300\nepochs = 1\nlr = 0.1\n"
            f"batch_size = 16\n\n" + "\n".join(parties)
            + "\n[privacy]\nmasking_enabled = true\ndp_enabled = true\n"
            "clip_norm = 1.0\nnoise_std = 0.001\n")


def shapley_replay_ini(seed: int) -> str:
    """8 parties x 40 records x 6 rounds; every coalition is scored by
    recall@1 on a 600-record eval set."""
    pools = ("0,1", "2,3", "4,5", "6,7", "0,1,2,3", "4,5,6,7", "0,2,4,6",
             "1,3,5,7")
    parties = [_party(seed, i, 40, pools[i]) for i in range(8)]
    return (f"[run]\nseed = {seed}\nrounds = 6\nepochs = 2\nlr = 0.1\n"
            f"batch_size = 16\n\n" + "\n".join(parties) + "\n" + _eval(seed, 600))


def load_scenario(ini: str, workdir: str):
    path = os.path.join(workdir, "scenario.ini")
    with open(path, "w") as f:
        f.write(ini)
    return load_config(path)


# --- output bits --------------------------------------------------------------

def block_crcs(model) -> str:
    """Final-model block CRCs in the round log's ``blocks=`` format."""
    return ";".join(
        f"{name}:{zlib.crc32(np.ascontiguousarray(m, dtype='<f8').tobytes()):08x}"
        for name, m in sorted(snapshot_blocks(model).items()))


def corpus_crc(corpora: dict, eval_set=()) -> str:
    """CRC over every generated record, so a seed pins its inputs too."""
    acc = 0
    for rec in [r for p in sorted(corpora) for r in corpora[p]] + list(eval_set):
        acc = zlib.crc32(np.ascontiguousarray(rec.image, dtype="<f8").tobytes(), acc)
        acc = zlib.crc32(repr(rec.caption).encode(), acc)
    return f"{acc:08x}"


def check_log(records: list, errors: list) -> int:
    """Appends an error per round logged failed; returns that count."""
    failed = [r["round"] for r in records if r.get("status") != "ok"]
    if failed:
        errors.append(f"rounds logged status=failed: {failed}")
    return len(failed)


# --- request accounting ---------------------------------------------------------

@dataclass
class Tally:
    """Client-observed requests: round-trip times, REJECTs by kind, and
    connection attempts (attempts beyond one per request are retries)."""

    rtts_ms: list = field(default_factory=list)
    requests: int = 0
    rejects: Counter = field(default_factory=Counter)
    connections: int = 0

    def observe(self, resp) -> None:
        self.requests += 1
        if resp.msg_type == "REJECT":
            self.rejects[resp.headers.get("kind", "unknown")] += 1

    @property
    def retries(self) -> int:
        return max(0, self.connections - self.requests)


class TimedTransport:
    """Times each request the agent sends through the wrapped transport."""

    def __init__(self, inner, tally: Tally):
        self.inner = inner
        self.tally = tally

    def send(self, msg):
        t0 = time.perf_counter()
        resp = self.inner.send(msg)
        self.tally.rtts_ms.append((time.perf_counter() - t0) * 1e3)
        self.tally.observe(resp)
        return resp


class _ConnectionCounter:
    """Stands in for the socket module inside flmm.client, counting connection
    attempts so SocketTransport retries are visible."""

    def __init__(self, tally: Tally):
        self._tally = tally

    def create_connection(self, *args, **kwargs):
        self._tally.connections += 1
        return socket.create_connection(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(socket, name)


@contextmanager
def _patched(obj, name: str, value):
    saved = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, saved)


def _counting_inprocess(tally: Tally):
    class CountingInProcessTransport(InProcessTransport):
        def send(self, msg):
            resp = super().send(msg)
            tally.observe(resp)
            return resp
    return CountingInProcessTransport


# --- workloads ------------------------------------------------------------------

@dataclass
class Outcome:
    """What one repetition produced: output bits, operation counts, and the
    errors its checks found."""

    bits: dict
    attempted: int
    failed: int
    tally: Tally
    counts: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


class SimQuality:
    """In-process run_simulation with the quality loop: the training-heavy
    workload."""

    name = "sim_quality"

    def setup(self, seed: int, workdir: str) -> dict:
        cfg = load_scenario(sim_quality_ini(seed), workdir)
        corpora = build_corpora(cfg)
        eval_set = build_eval_set(cfg)
        build_initial_model(cfg)
        return {"cfg": cfg, "workdir": workdir,
                "inputs": corpus_crc(corpora, eval_set)}

    def run(self, state: dict) -> Outcome:
        tally = Tally()
        with _patched(flmm.simulate, "InProcessTransport", _counting_inprocess(tally)):
            result = run_simulation(state["cfg"], os.path.join(state["workdir"], "out"))
        state["result"] = result
        rounds = len(result.round_records)
        return Outcome(
            bits={"inputs": state["inputs"],
                  "logged_blocks": result.round_records[-1]["blocks"],
                  "final_blocks": block_crcs(result.final_model),
                  "recall_at_1": result.reports[-1].recall_at_1.hex()},
            attempted=tally.requests + rounds,
            failed=sum(tally.rejects.values()) + int(result.failure is not None),
            tally=tally, counts={"rounds": rounds})

    def check(self, state: dict, out: Outcome) -> None:
        result = state["result"]
        if result.failure is not None:
            out.errors.append(f"simulation failed: {result.failure}")
        out.failed += check_log(RoundLog(result.log_dir).verify(), out.errors)

    def teardown(self, state: dict) -> None:
        pass


class LoopbackMasked:
    """A real FederationServer on 127.0.0.1 driven over SocketTransport, with
    masking and DP: the wire-and-persistence workload."""

    name = "loopback_masked"

    def setup(self, seed: int, workdir: str) -> dict:
        cfg = load_scenario(loopback_masked_ini(seed), workdir)
        corpora = build_corpora(cfg)
        initial = build_initial_model(cfg)
        log_dir = os.path.join(workdir, "log")
        core = ServerCore(server_config(cfg), initial, log_dir)
        server = FederationServer("127.0.0.1", 0, core)
        before = set(threading.enumerate())
        thread = server.serve_background()
        return {"cfg": cfg, "corpora": corpora, "core": core, "log_dir": log_dir,
                "server": server, "thread": thread, "threads_before": before,
                "inputs": corpus_crc(corpora)}

    def run(self, state: dict) -> Outcome:
        cfg, core = state["cfg"], state["core"]
        tally = Tally()
        host, port = state["server"].server_address[:2]
        transport = TimedTransport(SocketTransport(host, port), tally)
        agents = [ClientAgent(cfg, p, state["corpora"][p.party_id], transport)
                  for p in cfg.parties]
        with _patched(flmm.client, "socket", _ConnectionCounter(tally)):
            for agent in agents:
                agent.register()
            # one thread sweeps the agents in party order, as run_simulation does
            while not core.finished:
                if not any([agent.step() == "ACK" for agent in agents]):
                    raise FlmmError("no agent progressed in a full sweep")
        rounds = core.state.round
        return Outcome(
            bits={"inputs": state["inputs"], "final_blocks": block_crcs(core.snapshot)},
            attempted=tally.requests + rounds,
            failed=sum(tally.rejects.values()) + tally.retries,
            tally=tally, counts={"rounds": rounds})

    def check(self, state: dict, out: Outcome) -> None:
        core = state["core"]
        records = RoundLog(state["log_dir"]).verify()
        out.failed += check_log(records, out.errors)
        if records[-1]["blocks"] != out.bits["final_blocks"]:
            out.errors.append("last logged blocks= differ from the final model")
        recovered = ServerCore.recover(server_config(state["cfg"]), state["log_dir"])
        if save_snapshot(recovered.snapshot) != save_snapshot(core.snapshot):
            out.errors.append("ServerCore.recover did not reproduce the final snapshot")

    def teardown(self, state: dict) -> None:
        server = state.get("server")
        if server is None:
            return  # set-up failed before the server started
        server.shutdown()
        server.server_close()
        state["thread"].join(timeout=10)
        # connection handlers are daemon threads; wait until each has ended
        for t in set(threading.enumerate()) - state["threads_before"]:
            t.join(timeout=10)


class ShapleyReplay:
    """Exact Shapley over a logged 8-party run: the read-and-replay workload."""

    name = "shapley_replay"

    def setup(self, seed: int, workdir: str) -> dict:
        cfg = load_scenario(shapley_replay_ini(seed), workdir)
        result = run_simulation(cfg, os.path.join(workdir, "out"))
        return {"cfg": cfg, "log_dir": result.log_dir,
                "eval_set": build_eval_set(cfg),
                "initial": build_initial_model(cfg),
                "trained": result.final_model}

    def run(self, state: dict) -> Outcome:
        cfg = state["cfg"]
        rounds = RoundLog(state["log_dir"]).logged_rounds(cfg.plan)
        fn = fl_value_function(state["initial"], rounds, state["eval_set"],
                               list(cfg.party_ids()))
        evaluations = Counter()
        evaluate = fn.evaluate

        def counted(coalition):
            evaluations["attempted"] += 1
            try:
                return evaluate(coalition)
            except Exception:
                evaluations["raised"] += 1
                raise

        fn.evaluate = counted
        shapley = exact_shapley(fn)
        state.update(fn=fn, rounds=rounds, shapley=shapley)
        return Outcome(
            bits={"final_blocks": block_crcs(state["trained"]),
                  "shapley": {p: v.hex() for p, v in shapley.values.items()}},
            attempted=evaluations["attempted"], failed=evaluations["raised"],
            tally=Tally(), counts={"coalitions": fn.evaluations})

    def check(self, state: dict, out: Outcome) -> None:
        cfg, fn = state["cfg"], state["fn"]
        records = RoundLog(state["log_dir"]).verify()
        out.failed += check_log(records, out.errors)
        grand = frozenset(cfg.party_ids())
        residual = state["shapley"].efficiency_residual(fn(grand), fn(frozenset()))
        out.counts["efficiency_residual"] = residual
        if not residual <= 1e-9:
            out.errors.append(f"efficiency residual {residual:.3e} > 1e-9")
        replayed = replay_coalition(state["initial"], state["rounds"], grand)
        if block_crcs(replayed) != records[-1]["blocks"] \
                or records[-1]["blocks"] != out.bits["final_blocks"]:
            out.errors.append("grand-coalition replay differs from the logged model")

    def teardown(self, state: dict) -> None:
        pass


WORKLOADS = {w.name: w for w in (SimQuality(), LoopbackMasked(), ShapleyReplay())}
