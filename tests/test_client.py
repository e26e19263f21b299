"""The adapter-only downlink: what an ASSIGN carries and how an agent uses it."""

import threading
import zlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import flmm.simulate
from flmm.aggregation import snapshot_blocks
from flmm.client import ClientAgent, InProcessTransport, SocketTransport, \
    run_client_loop
from flmm.config import ModelConfig
from flmm.errors import IdentityError, ProtocolError
from flmm.model import frozen_checksum, save_snapshot
from flmm.orchestrator import FederationServer, ServerCore
from flmm.protocol import pack_blocks, unpack_blocks
from flmm.simulate import (
    build_corpora,
    build_initial_model,
    run_simulation,
    server_config,
)

from support import count_pair_batches
from test_harness import make_scenario


class Recording(InProcessTransport):
    """In-process transport that keeps every (request, response) pair and may
    rewrite a response before the agent sees it."""

    def __init__(self, core, rewrite=None):
        super().__init__(core)
        self.rewrite = rewrite
        self.log = []

    def send(self, msg):
        resp = super().send(msg)
        if self.rewrite is not None:
            resp = self.rewrite(resp)
        self.log.append((msg, resp))
        return resp

    def sent(self, msg_type):
        return [m for m, _ in self.log if m.msg_type == msg_type]

    def received(self, msg_type):
        return [r for _, r in self.log if r.msg_type == msg_type]


def agents_for(cfg, transport):
    corpora = build_corpora(cfg)
    return [ClientAgent(cfg, p, corpora[p.party_id], transport)
            for p in cfg.parties]


def sweep_until(agents, done):
    """Step the agents in party order, as run_simulation does."""
    while not done():
        assert any([agent.step() == "ACK" for agent in agents])


def rewrite_assign(changes):
    def rewrite(resp):
        if resp.msg_type != "ASSIGN":
            return resp
        return replace(resp, **changes(resp))
    return rewrite


class TestBudget:
    def test_one_fetch_per_party_and_assign_size_independent_of_vocab(
            self, tmp_path, monkeypatch):
        parties, rounds = 3, 4
        transports = []

        def recording(core):
            transports.append(Recording(core))
            return transports[-1]

        monkeypatch.setattr(flmm.simulate, "InProcessTransport", recording)
        sizes, ckpt = {}, {}
        for vocab in (64, 512):
            cfg = replace(make_scenario(parties=parties, rounds=rounds),
                          model=ModelConfig(vocab=vocab))
            result = run_simulation(cfg, str(tmp_path / f"vocab{vocab}"))
            transport = transports[-1]
            requests = Counter(m.msg_type for m, _ in transport.log)
            assert requests["REGISTER"] == parties
            assert requests["FETCH"] == parties
            assert requests["SUBMIT"] == parties * rounds
            assigns = transport.received("ASSIGN")
            assert len(assigns) == parties * rounds
            sizes[vocab] = {len(a.body) for a in assigns}
            ckpt[vocab] = len(save_snapshot(result.final_model))
        assert len(sizes[64]) == 1
        assert sizes[64] == sizes[512]
        # the downlink mirror of Criterion 6, measured where it applies
        assert max(sizes[512]) < 0.05 * ckpt[512]


class TestSocketLoop:
    def test_each_party_receives_one_assign_per_round(self, tmp_path):
        rounds = 3
        cfg = make_scenario(parties=2, rounds=rounds)
        core = ServerCore(server_config(cfg), build_initial_model(cfg),
                          str(tmp_path))
        server = FederationServer("127.0.0.1", 0, core)
        server.serve_background()
        port = server.server_address[1]

        class Counting(SocketTransport):
            assigns = 0

            def send(self, msg):
                resp = super().send(msg)
                self.assigns += resp.msg_type == "ASSIGN"
                return resp

        transports = [Counting("127.0.0.1", port) for _ in cfg.parties]
        finished = []
        try:
            corpora = build_corpora(cfg)
            threads = [threading.Thread(
                target=lambda a: finished.append(run_client_loop(a)),
                args=(ClientAgent(cfg, p, corpora[p.party_id], t),), daemon=True)
                for p, t in zip(cfg.parties, transports)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            for t in transports:
                t.close()
            server.shutdown()
            server.server_close()
        assert finished == [rounds, rounds]
        assert [t.assigns for t in transports] == [rounds, rounds]


def test_each_agent_prepares_its_corpus_once_per_base(tmp_path, monkeypatch):
    calls = count_pair_batches(monkeypatch)
    result = run_simulation(make_scenario(parties=2, rounds=3, size=40), str(tmp_path))
    assert len(result.round_records) == 3
    assert calls == [40, 40]


class TestIdentity:
    def test_new_frozen_base_refetches_and_matches_a_fresh_client(self, tmp_path,
                                                                   monkeypatch):
        cfg = make_scenario(parties=1, rounds=1)
        other = build_initial_model(make_scenario(seed=8))
        assert frozen_checksum(other) != frozen_checksum(build_initial_model(cfg))
        # the new base's text features differ, so the old prepared set is stale
        assert not np.array_equal(other.token_embed,
                                  build_initial_model(cfg).token_embed)
        prepared = count_pair_batches(monkeypatch)

        first = Recording(ServerCore(server_config(cfg), build_initial_model(cfg),
                                     str(tmp_path / "first")))
        [moved] = agents_for(cfg, first)
        moved.register()
        assert moved.step() == "ACK"
        assert len(first.sent("FETCH")) == 1

        second = Recording(ServerCore(server_config(cfg), other,
                                      str(tmp_path / "second")))
        moved.transport = second
        moved.register()
        assert moved.step() == "ACK"
        assert len(second.sent("FETCH")) == 1
        assert len(prepared) == 2

        fresh_transport = Recording(ServerCore(server_config(cfg), other,
                                               str(tmp_path / "fresh")))
        [fresh] = agents_for(cfg, fresh_transport)
        fresh.register()
        assert fresh.step() == "ACK"

        [got] = second.sent("SUBMIT")
        [want] = fresh_transport.sent("SUBMIT")
        assert (got.headers, got.body) == (want.headers, want.body)
        assert moved.base_checksum == fresh.base_checksum \
            == f"{frozen_checksum(other):08x}"

    def test_base_that_still_differs_after_refetch_raises(self, tmp_path):
        cfg = make_scenario(parties=1)
        core = ServerCore(server_config(cfg), build_initial_model(cfg), str(tmp_path))
        transport = Recording(core, rewrite_assign(
            lambda r: {"headers": {**r.headers, "base": "00000000"}}))
        [agent] = agents_for(cfg, transport)
        agent.register()
        with pytest.raises(IdentityError):
            agent.step()
        assert len(transport.sent("FETCH")) == 1
        assert transport.sent("SUBMIT") == []
        agent.transport = Recording(core)  # the failed step left nothing to reset
        assert agent.step() == "ACK"

    def test_flipped_body_byte_raises_before_submit(self, tmp_path):
        cfg = make_scenario(parties=1)
        core = ServerCore(server_config(cfg), build_initial_model(cfg), str(tmp_path))
        _, body = pack_blocks(snapshot_blocks(core.snapshot))
        positions = iter(range(len(body)))  # each ASSIGN flips the next byte

        def flipped(resp):
            body = bytearray(resp.body)
            body[next(positions)] ^= 0x01
            return {"body": bytes(body)}

        transport = Recording(core, rewrite_assign(flipped))
        [agent] = agents_for(cfg, transport)
        agent.register()
        for _ in range(len(body)):
            with pytest.raises(ProtocolError):
                agent.step()
        assert transport.sent("SUBMIT") == []
        assert core.state.received == {}
        agent.transport = Recording(core)  # the failed steps left nothing to reset
        assert agent.step() == "ACK"

    def test_assign_without_a_base_block_raises_before_submit(self, tmp_path):
        cfg = make_scenario(parties=1)
        core = ServerCore(server_config(cfg), build_initial_model(cfg), str(tmp_path))

        def no_bridge(resp):
            blocks = unpack_blocks(resp.header("blocks"), resp.body)
            del blocks["bridge"]
            names, body = pack_blocks(blocks)
            return {"headers": {**resp.headers, "blocks": names,
                                "crc": f"{zlib.crc32(body):08x}"}, "body": body}

        transport = Recording(core, rewrite_assign(no_bridge))
        [agent] = agents_for(cfg, transport)
        agent.register()
        with pytest.raises(ProtocolError):
            agent.step()
        assert transport.sent("SUBMIT") == []

    def test_assign_naming_a_block_twice_raises_before_submit(self, tmp_path):
        cfg = make_scenario(parties=1)
        core = ServerCore(server_config(cfg), build_initial_model(cfg), str(tmp_path))

        def bridge_twice(resp):
            bridge = unpack_blocks(resp.header("blocks"), resp.body)["bridge"]
            _, spurious = pack_blocks({"bridge": np.zeros_like(bridge)})
            body = spurious + resp.body
            return {"headers": {**resp.headers, "blocks": "bridge," + resp.header("blocks"),
                                "crc": f"{zlib.crc32(body):08x}"}, "body": body}

        transport = Recording(core, rewrite_assign(bridge_twice))
        [agent] = agents_for(cfg, transport)
        agent.register()
        with pytest.raises(ProtocolError, match="block 'bridge' named twice"):
            agent.step()
        assert transport.sent("SUBMIT") == []


class TestRecovery:
    def test_clients_keep_their_base_across_server_recovery(self, tmp_path):
        cfg = make_scenario(parties=3, rounds=4, masking=True, epochs=1)
        plain = run_simulation(cfg, str(tmp_path / "plain"))

        log_dir = str(tmp_path / "log")
        before = Recording(ServerCore(server_config(cfg), build_initial_model(cfg),
                                      log_dir))
        agents = agents_for(cfg, before)
        for agent in agents:
            agent.register()
        sweep_until(agents, lambda: before.core.state.round == 2)

        core = ServerCore.recover(server_config(cfg), log_dir)
        after = Recording(core)
        for agent in agents:
            agent.transport = after
            agent.register()
        sweep_until(agents, lambda: core.finished)

        assert len(before.sent("FETCH")) == len(cfg.parties)
        assert after.sent("FETCH") == []
        assert core.log.verify()[-1]["blocks"] == plain.round_records[-1]["blocks"]
        assert save_snapshot(core.snapshot) == save_snapshot(plain.final_model)
