import os
import socket
import sys
import threading
import time

import numpy as np
import pytest

from support import logged_frames

import flmm.client
from flmm.aggregation import AggregationPlan, BLOCK_NAMES, snapshot_blocks
from flmm.client import ClientAgent, SocketTransport, run_client_loop
from flmm.config import ModelConfig, PartyConfig, QualityConfig, ScenarioConfig
from flmm.dataquality import CorpusSpec
from flmm.errors import TransportError
from flmm.model import load_snapshot, save_snapshot
from flmm.orchestrator import FederationServer, ServerCore
from flmm.privacy import PrivacyConfig
from flmm.protocol import Message, decode_payload
from flmm.simulate import (
    build_corpora,
    build_initial_model,
    run_simulation,
    server_config,
)
from flmm.training import TrainConfig


def make_scenario(seed=7, parties=2, rounds=2, size=40, masking=False,
                  quality_iters=0, epochs=2, lr=0.1, classes=(0, 1, 2, 3)):
    party_cfgs = tuple(
        PartyConfig(
            party_id=f"p{i}",
            corpus=CorpusSpec(party=f"p{i}", size=size, corruption_rates={},
                              seed=seed + i, scene_class_pool=classes),
            anchor_mu=2.0)
        for i in range(parties))
    return ScenarioConfig(
        seed=seed, rounds=rounds, token="tok", deadline=60.0,
        train=TrainConfig(epochs=epochs, lr=lr, batch_size=16),
        model=ModelConfig(),
        plan=AggregationPlan(masking_enabled=masking),
        history_window=16,
        privacy=PrivacyConfig(),
        parties=party_cfgs,
        eval_spec=CorpusSpec(party="eval", size=40, corruption_rates={},
                             seed=seed + 99, scene_class_pool=classes),
        quality=QualityConfig(iters=quality_iters, target=2.0),
    )


class TestSimulationDeterminism:
    def test_bit_identical_reruns(self, tmp_path):
        cfg = make_scenario()
        r1 = run_simulation(cfg, str(tmp_path / "a"))
        r2 = run_simulation(cfg, str(tmp_path / "b"))
        assert save_snapshot(r1.final_model) == save_snapshot(r2.final_model)
        assert r1.reports == r2.reports
        # round logs agree on everything except wall-clock durations
        for x, y in zip(r1.round_records, r2.round_records):
            for k in x:
                if k in ("duration", "crc", "prev_crc"):
                    continue
                assert x[k] == y[k], k

    def test_seed_changes_result(self, tmp_path):
        r1 = run_simulation(make_scenario(seed=7), str(tmp_path / "a"))
        r2 = run_simulation(make_scenario(seed=8), str(tmp_path / "b"))
        assert save_snapshot(r1.final_model) != save_snapshot(r2.final_model)


class TestSingleParty:
    def test_one_party_round_equals_local_training(self, tmp_path):
        from flmm.rng import hash_text, mix_seed
        from flmm.training import local_train, trainable_records
        cfg = make_scenario(parties=1, rounds=1)
        result = run_simulation(cfg, str(tmp_path))
        initial = build_initial_model(cfg)
        records = trainable_records(build_corpora(cfg)["p0"])
        train_cfg = TrainConfig(epochs=cfg.train.epochs, lr=cfg.train.lr,
                                batch_size=cfg.train.batch_size,
                                anchor_mu=cfg.parties[0].anchor_mu)
        expected = local_train(initial, records, train_cfg,
                               mix_seed(cfg.seed, 0, hash_text("p0")))
        a = snapshot_blocks(result.final_model)
        b = snapshot_blocks(expected)
        for n in a:
            np.testing.assert_allclose(a[n], b[n], atol=1e-15)


class TestWireDiscipline:
    def test_no_frozen_blocks_and_small_uploads(self, tmp_path):
        cfg = make_scenario()
        result = run_simulation(cfg, str(tmp_path))
        ckpt_bytes = len(save_snapshot(result.final_model))
        frames = logged_frames(result.log_dir)
        assert frames
        for data in frames.values():
            msg = decode_payload(data[4:])
            names = [n for n in msg.header("blocks").split(",") if n]
            assert set(names) <= set(BLOCK_NAMES)
            for frozen in ("w_v", "w_t", "token_embed"):
                assert all(frozen not in n for n in names)
            assert len(data) < 0.15 * ckpt_bytes


class TestMaskedRun:
    def test_masked_equals_unmasked_uniform_average(self, tmp_path):
        # masks cancel in the server's unweighted sum; because every party
        # here holds the same record count, the masked run must match the
        # unmasked run up to the masking grid (2**-40 per entry per round)
        plain = run_simulation(make_scenario(), str(tmp_path / "plain"))
        masked = run_simulation(make_scenario(masking=True), str(tmp_path / "mask"))
        a = snapshot_blocks(plain.final_model)
        b = snapshot_blocks(masked.final_model)
        for n in a:
            np.testing.assert_allclose(a[n], b[n], atol=1e-9)


class TestDistributedLoopback:
    def test_loopback_equals_in_process(self, tmp_path):
        cfg = make_scenario()
        in_proc = run_simulation(cfg, str(tmp_path / "inproc"))

        core = ServerCore(server_config(cfg), build_initial_model(cfg),
                          str(tmp_path / "dist"))
        server = FederationServer("127.0.0.1", 0, core)
        port = server.server_address[1]
        server.serve_background()
        transports = [SocketTransport("127.0.0.1", port) for _ in cfg.parties]
        try:
            corpora = build_corpora(cfg)
            threads = []
            for p, transport in zip(cfg.parties, transports):
                agent = ClientAgent(cfg, p, corpora[p.party_id], transport)
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
        for n in a:
            np.testing.assert_allclose(a[n], b[n], atol=1e-12)


class CountingServer(FederationServer):
    """Counts the connections the server accepts."""

    connections = 0

    def process_request(self, request, client_address):
        self.connections += 1
        super().process_request(request, client_address)


def request(msg_type, party="p0"):
    return Message(msg_type, {"party": party, "token": "tok"})


class TestSocketTransport:
    @pytest.fixture
    def served(self, tmp_path, monkeypatch):
        monkeypatch.setattr(flmm.client, "_BASE_DELAY", 0.01)
        cfg = make_scenario()
        core = ServerCore(server_config(cfg), build_initial_model(cfg),
                          str(tmp_path / "log"))
        server = CountingServer("127.0.0.1", 0, core)
        server.serve_background()
        transport = SocketTransport("127.0.0.1", server.server_address[1])
        yield cfg, server, transport
        transport.close()
        server.shutdown()
        server.server_close()

    def test_requests_reuse_one_connection(self, served):
        _, server, transport = served
        assert transport.send(request("REGISTER")).msg_type == "ACK"
        for _ in range(20):
            assert transport.send(request("POLL")).msg_type == "ASSIGN"
        assert server.connections == 1

    def test_shared_between_threads(self, served):
        _, server, transport = served
        transport.send(request("REGISTER"))
        responses = []

        def poll():
            for _ in range(50):
                responses.append(transport.send(request("POLL")))

        threads = [threading.Thread(target=poll) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert len(responses) == 200
        for resp in responses:
            assert resp.msg_type in ("NOTASK", "ASSIGN")
            assert int(resp.header("round")) == 0
        assert server.connections == 1

    def test_each_thread_gets_its_own_response(self, served):
        _, _, transport = served
        wrong = []

        def poll(party):
            for _ in range(50):
                resp = transport.send(request("POLL", party))
                if party not in resp.headers.get("reason", ""):
                    wrong.append((party, resp))

        # none of these parties registered: each REJECT names its party
        threads = [threading.Thread(target=poll, args=(f"x{i}",))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_server_close_ends_handlers_of_open_connections(self, served):
        _, server, transport = served
        before = set(threading.enumerate())
        transport.send(request("REGISTER"))  # the connection stays open
        handlers = set(threading.enumerate()) - before
        assert len(handlers) == 1
        server.shutdown()
        server.server_close()
        assert not any(t.is_alive() for t in handlers)

    def test_reconnects_to_a_recovered_server(self, served, tmp_path):
        cfg, server, transport = served
        corpora = build_corpora(cfg)
        agents = [ClientAgent(cfg, p, corpora[p.party_id], transport)
                  for p in cfg.parties]
        for agent in agents:
            agent.register()
        old = server.core
        port = server.server_address[1]
        server.shutdown()
        server.server_close()

        core = ServerCore.recover(server_config(cfg), str(tmp_path / "log"))
        restarted = FederationServer("127.0.0.1", port, core)
        restarted.serve_background()
        try:
            for agent in agents:
                assert agent.register().msg_type == "ACK"
            while core.state.round == 0:
                assert any([agent.step() == "ACK" for agent in agents])
        finally:
            transport.close()
            restarted.shutdown()
            restarted.server_close()
        assert core.state.round == 1
        assert old.state.round == 0

    def test_agents_that_do_not_register_again_finish_a_round(self, served, tmp_path):
        cfg, server, transport = served
        corpora = build_corpora(cfg)
        agents = [ClientAgent(cfg, p, corpora[p.party_id], transport)
                  for p in cfg.parties]
        for agent in agents:
            agent.register()
        port = server.server_address[1]
        server.shutdown()
        server.server_close()

        core = ServerCore.recover(server_config(cfg), str(tmp_path / "log"))
        restarted = FederationServer("127.0.0.1", port, core)
        restarted.serve_background()
        try:
            while core.state.round == 0:
                assert any([agent.step() == "ACK" for agent in agents])
        finally:
            transport.close()
            restarted.shutdown()
            restarted.server_close()
        assert core.state.round == 1

    def test_retry_is_bounded(self, monkeypatch):
        attempts = []
        sleeps = []

        class CountingSocket:
            def create_connection(self, *args, **kwargs):
                attempts.append(args)
                return socket.create_connection(*args, **kwargs)

        class RecordingTime:
            def sleep(self, seconds):
                sleeps.append(seconds)

        monkeypatch.setattr(flmm.client, "socket", CountingSocket())
        monkeypatch.setattr(flmm.client, "time", RecordingTime())
        monkeypatch.setattr(flmm.client, "_BASE_DELAY", 0.125)
        monkeypatch.setattr(flmm.client, "_MAX_DELAY", 0.5)
        monkeypatch.setattr(flmm.client, "_MAX_ATTEMPTS", 5)
        with socket.socket() as idle:  # bound, never listening: refuses
            idle.bind(("127.0.0.1", 0))
            transport = SocketTransport("127.0.0.1", idle.getsockname()[1])
            t0 = time.monotonic()
            with pytest.raises(TransportError):
                transport.send(request("POLL"))
        assert len(attempts) == 5
        # doubling up to _MAX_DELAY between attempts, none after the last
        assert sleeps == [0.125, 0.25, 0.5, 0.5]
        assert time.monotonic() - t0 < 5.0


class TestArtifacts:
    def test_final_checkpoint_and_eval_written(self, tmp_path):
        cfg = make_scenario()
        result = run_simulation(cfg, str(tmp_path))
        ckpt = os.path.join(str(tmp_path), "final.ckpt")
        assert os.path.exists(ckpt)
        with open(ckpt, "rb") as f:
            loaded = load_snapshot(f.read())
        a = snapshot_blocks(loaded)
        b = snapshot_blocks(result.final_model)
        for n in a:
            np.testing.assert_array_equal(a[n], b[n])
        with open(os.path.join(str(tmp_path), "eval.txt")) as f:
            eval_txt = f.read()
        assert "recall_at_1=" in eval_txt

    def test_shapley_option(self, tmp_path):
        result = run_simulation(make_scenario(), str(tmp_path), with_shapley=True)
        assert result.shapley is not None
        assert set(result.shapley.values) == {"p0", "p1"}
        assert result.shapley.method == "exact"

    def test_quality_loop_option(self, tmp_path):
        cfg = make_scenario(quality_iters=1, size=50)
        result = run_simulation(cfg, str(tmp_path))
        assert result.failure is None
        assert len(result.reports) == 2
