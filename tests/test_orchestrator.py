import zlib

import numpy as np
import pytest

from flmm.aggregation import AggregationPlan, snapshot_blocks
from flmm.errors import HistoryError
from flmm.model import frozen_checksum, load_snapshot, save_snapshot
from flmm.orchestrator import RoundLog, ServerConfig, ServerCore
from flmm.protocol import Message, pack_blocks, unpack_blocks
from flmm.rng import SplitMix64

from support import small_snapshot

TOKEN = "secret"


class FakeClock:
    def __init__(self):
        self.t = 1000.0

    def __call__(self):
        return self.t


def make_core(tmp_path, parties=("pa", "pb"), rounds=3, strategy="sync_avg",
              masking=False, deadline=60.0, clock=None):
    plan = AggregationPlan(strategy=strategy, masking_enabled=masking)
    cfg = ServerConfig(token=TOKEN, plan=plan, rounds=rounds, deadline=deadline,
                       expected_parties=tuple(parties))
    return ServerCore(cfg, small_snapshot(1), str(tmp_path),
                      clock=clock or FakeClock())


def random_deltas(seed, model):
    rng = SplitMix64(seed)
    return {n: 0.01 * rng.normal_matrix(*m.shape)
            for n, m in snapshot_blocks(model).items()}


def register(core, party, token=TOKEN):
    return core.handle(Message("REGISTER", {"party": party, "token": token}))


def submit(core, party, deltas, base_version, token=TOKEN, samples=4):
    names, body = pack_blocks(deltas)
    return core.handle(Message("SUBMIT", {
        "party": party, "token": token, "base_version": str(base_version),
        "sample_count": str(samples), "blocks": names}, body))


class TestRegistration:
    def test_register_ack(self, tmp_path):
        core = make_core(tmp_path)
        assert register(core, "pa").msg_type == "ACK"
        assert "pa" in core.registry

    def test_bad_token_rejected(self, tmp_path):
        core = make_core(tmp_path)
        resp = register(core, "pa", token="wrong")
        assert resp.msg_type == "REJECT" and resp.header("kind") == "AuthError"

    @pytest.mark.parametrize("party", ["", "a b", "a\tb", "a,b", "a:b", "a=b"])
    def test_party_id_the_log_cannot_record_rejected(self, tmp_path, party):
        core = make_core(tmp_path)
        resp = register(core, party)
        assert resp.msg_type == "REJECT"
        assert resp.headers["kind"] == "ValidationError"
        assert party not in core.registry
        RoundLog(str(tmp_path))  # the log still opens

    def test_unregistered_poll_rejected(self, tmp_path):
        core = make_core(tmp_path)
        resp = core.handle(Message("POLL", {"party": "ghost", "token": TOKEN}))
        assert resp.msg_type == "REJECT" and resp.header("kind") == "AuthError"


class TestSyncRound:
    def test_full_round_flow(self, tmp_path):
        core = make_core(tmp_path)
        for p in ("pa", "pb"):
            register(core, p)
        poll = core.handle(Message("POLL", {"party": "pa", "token": TOKEN}))
        assert poll.msg_type == "ASSIGN"
        v0 = core.snapshot.version
        assert submit(core, "pa", random_deltas(1, core.snapshot), v0).msg_type == "ACK"
        assert core.state.phase == "collecting"
        # pa already submitted: no task until the round turns
        assert core.handle(Message("POLL", {"party": "pa", "token": TOKEN})
                           ).msg_type == "NOTASK"
        assert submit(core, "pb", random_deltas(2, core.snapshot), v0).msg_type == "ACK"
        assert core.snapshot.version == v0 + 1
        assert core.state.round == 1

    def test_aggregation_is_base_plus_weighted_mean(self, tmp_path):
        core = make_core(tmp_path)
        register(core, "pa")
        register(core, "pb")
        base = snapshot_blocks(core.snapshot)
        d1 = random_deltas(3, core.snapshot)
        d2 = random_deltas(4, core.snapshot)
        submit(core, "pa", d1, 0, samples=1)
        submit(core, "pb", d2, 0, samples=3)
        after = snapshot_blocks(core.snapshot)
        for n in base:
            expected = base[n] + (1 * d1[n] + 3 * d2[n]) / 4
            np.testing.assert_allclose(after[n], expected, atol=1e-15)

    def test_duplicate_submission_rejected(self, tmp_path):
        core = make_core(tmp_path)
        for p in ("pa", "pb"):
            register(core, p)
        submit(core, "pa", random_deltas(5, core.snapshot), 0)
        resp = submit(core, "pa", random_deltas(6, core.snapshot), 0)
        assert resp.msg_type == "REJECT" and resp.header("kind") == "DuplicateError"

    def test_stale_base_version_rejected(self, tmp_path):
        core = make_core(tmp_path)
        for p in ("pa", "pb"):
            register(core, p)
        resp = submit(core, "pa", random_deltas(7, core.snapshot), 99)
        assert resp.msg_type == "REJECT" and resp.header("kind") == "StalenessError"

    def test_nan_update_rejected(self, tmp_path):
        core = make_core(tmp_path)
        for p in ("pa", "pb"):
            register(core, p)
        bad = random_deltas(8, core.snapshot)
        bad["bridge"][0, 0] = np.nan
        resp = submit(core, "pa", bad, 0)
        assert resp.msg_type == "REJECT" and resp.header("kind") == "ValidationError"
        assert "pa" not in core.state.received

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reject_names_the_block(self, tmp_path, bad):
        core = make_core(tmp_path)
        register(core, "pa")
        for name in sorted(snapshot_blocks(core.snapshot)):
            deltas = random_deltas(9, core.snapshot)
            deltas[name][-1, -1] = bad
            resp = submit(core, "pa", deltas, 0)
            assert resp.msg_type == "REJECT"
            assert resp.header("kind") == "ValidationError"
            assert resp.header("reason") == f"non-finite values in block {name!r}"
        assert core.state.received == {}

    @pytest.mark.parametrize("block, shape", [("bridge", (3, 3)), ("vision.a", (16, 2))],
                             ids=["bridge_3x3", "vision_a_16x2"])
    def test_wrong_block_shape_rejected_and_round_closes_for_the_others(
            self, tmp_path, block, shape):
        core = make_core(tmp_path)
        for p in ("pa", "pb"):
            register(core, p)
        bad = random_deltas(10, core.snapshot)
        bad[block] = np.zeros(shape)
        resp = submit(core, "pa", bad, 0)
        assert resp.msg_type == "REJECT"
        assert resp.header("kind") == "ValidationError"
        assert "pa" not in core.state.received
        assert submit(core, "pb", random_deltas(11, core.snapshot), 0).msg_type == "ACK"
        assert submit(core, "pa", random_deltas(12, core.snapshot), 0).msg_type == "ACK"
        record = core.log.verify()[-1]
        assert (record["round"], record["status"], record["post_version"]) == \
            ("0", "ok", "1")
        assert core.snapshot.version == 1

    @pytest.mark.parametrize("case", ["zero_samples", "frozen_block"])
    def test_malformed_update_rejected_not_raised(self, tmp_path, case):
        core = make_core(tmp_path)
        register(core, "pa")
        deltas = random_deltas(11, core.snapshot)
        samples = 0 if case == "zero_samples" else 4
        if case == "frozen_block":
            deltas["w_base"] = deltas.pop("bridge")
        resp = submit(core, "pa", deltas, 0, samples=samples)
        assert resp.msg_type == "REJECT"
        assert resp.header("kind") == "ValidationError"
        assert core.state.received == {}

    def test_finished_after_configured_rounds(self, tmp_path):
        core = make_core(tmp_path, rounds=2)
        for p in ("pa", "pb"):
            register(core, p)
        for r in range(2):
            v = core.snapshot.version
            for i, p in enumerate(("pa", "pb")):
                submit(core, p, random_deltas(10 + 2 * r + i, core.snapshot), v)
        assert core.finished
        resp = core.handle(Message("POLL", {"party": "pa", "token": TOKEN}))
        assert resp.msg_type == "NOTASK" and resp.header("finished") == "1"
        resp = submit(core, "pa", random_deltas(20, core.snapshot),
                      core.snapshot.version)
        assert resp.msg_type == "REJECT"


class TestDeadline:
    def test_deadline_closes_with_absentees(self, tmp_path):
        clock = FakeClock()
        core = make_core(tmp_path, deadline=30.0, clock=clock)
        for p in ("pa", "pb"):
            register(core, p)
        submit(core, "pa", random_deltas(30, core.snapshot), 0)
        assert core.state.round == 0
        clock.t += 31.0
        core.handle(Message("POLL", {"party": "pa", "token": TOKEN}))
        assert core.state.round == 1
        records = core.log.verify()
        assert records[-1]["absent"] == "pb"
        assert records[-1]["contributors"].startswith("pa:")

    def test_no_close_when_nothing_received(self, tmp_path):
        clock = FakeClock()
        core = make_core(tmp_path, deadline=30.0, clock=clock)
        register(core, "pa")
        clock.t += 31.0
        core.handle(Message("POLL", {"party": "pa", "token": TOKEN}))
        assert core.state.round == 0


def poll(core, party):
    return core.handle(Message("POLL", {"party": party, "token": TOKEN}))


class TestAssign:
    def test_carries_the_version_blocks_and_the_frozen_base(self, tmp_path):
        core = make_core(tmp_path)
        for p in ("pa", "pb"):
            register(core, p)
        for r in range(2):
            names, body = pack_blocks(snapshot_blocks(core.snapshot))
            first, second = poll(core, "pa"), poll(core, "pb")
            assert first.msg_type == second.msg_type == "ASSIGN"
            assert first.body is second.body  # packed once per version
            assert first.body == body
            assert first.header("blocks") == names
            assert first.header("crc") == f"{zlib.crc32(body):08x}"
            assert first.header("base") == f"{frozen_checksum(core.snapshot):08x}"
            assert int(first.header("version")) == core.snapshot.version
            v = core.snapshot.version
            for i, p in enumerate(("pa", "pb")):
                submit(core, p, random_deltas(90 + 2 * r + i, core.snapshot), v)
        assert core.snapshot.version == 2

    def test_recovered_server_assigns_the_same_bytes(self, tmp_path):
        core = make_core(tmp_path / "live", rounds=3)
        for p in ("pa", "pb"):
            register(core, p)
        for i, p in enumerate(("pa", "pb")):
            submit(core, p, random_deltas(95 + i, core.snapshot), 0)
        live = poll(core, "pa")
        recovered = ServerCore.recover(core.cfg, str(tmp_path / "live"),
                                       clock=FakeClock())
        register(recovered, "pa")
        again = poll(recovered, "pa")
        assert (again.headers, again.body) == (live.headers, live.body)


class TestFetch:
    def test_fetch_returns_checkpoint(self, tmp_path):
        core = make_core(tmp_path)
        register(core, "pa")
        resp = core.handle(Message("FETCH", {"party": "pa", "token": TOKEN,
                                             "version": "0"}))
        assert resp.msg_type == "MODEL"
        model = load_snapshot(resp.body)
        a, b = snapshot_blocks(model), snapshot_blocks(core.snapshot)
        for n in a:
            np.testing.assert_array_equal(a[n], b[n])

    def test_unregistered_fetch_rejected(self, tmp_path):
        core = make_core(tmp_path)
        resp = core.handle(Message("FETCH", {"party": "ghost", "token": TOKEN,
                                             "version": "0"}))
        assert resp.msg_type == "REJECT"
        assert resp.headers["kind"] == "AuthError"
        assert resp.body == b""

    def test_fetch_missing_version(self, tmp_path):
        core = make_core(tmp_path)
        register(core, "pa")
        resp = core.handle(Message("FETCH", {"party": "pa", "token": TOKEN,
                                             "version": "7"}))
        assert resp.msg_type == "REJECT" and resp.header("kind") == "HistoryError"


class TestAsync:
    def test_each_submit_advances_version(self, tmp_path):
        core = make_core(tmp_path, strategy="async_mix", rounds=4)
        for p in ("pa", "pb"):
            register(core, p)
        v0 = core.snapshot.version
        submit(core, "pa", random_deltas(40, core.snapshot), v0)
        assert core.snapshot.version == v0 + 1
        # pb may submit against the old base: staleness-weighted, not rejected
        resp = submit(core, "pb", random_deltas(41, core.snapshot), v0)
        assert resp.msg_type == "ACK"
        assert core.snapshot.version == v0 + 2

    def test_tau_zero_beta_one_reproduces_client_state(self, tmp_path):
        plan = AggregationPlan(strategy="async_mix", mixing_rate=1.0,
                               staleness_exponent=0.5)
        cfg = ServerConfig(token=TOKEN, plan=plan, rounds=4,
                           expected_parties=("pa", "pb"))
        core = ServerCore(cfg, small_snapshot(1), str(tmp_path), clock=FakeClock())
        register(core, "pa")
        base = snapshot_blocks(core.snapshot)
        d = random_deltas(42, core.snapshot)
        submit(core, "pa", d, core.snapshot.version)
        after = snapshot_blocks(core.snapshot)
        for n in base:
            np.testing.assert_allclose(after[n], base[n] + d[n], atol=1e-15)


class TestMasking:
    def test_masked_round_recovers_unweighted_mean(self, tmp_path):
        from flmm.aggregation import ClientUpdate
        from flmm.privacy import pairwise_mask, quantize_deltas
        core = make_core(tmp_path, masking=True)
        for p in ("pa", "pb"):
            register(core, p)
        base = snapshot_blocks(core.snapshot)
        raw = {p: quantize_deltas(random_deltas(50 + i, core.snapshot))
               for i, p in enumerate(("pa", "pb"))}
        ups = [ClientUpdate(p, 0, raw[p], 1, 0) for p in ("pa", "pb")]
        masked = pairwise_mask(ups, round_seed=123)
        for m in masked:
            submit(core, m.client_id, m.deltas, 0)
        after = snapshot_blocks(core.snapshot)
        for n in base:
            expected = base[n] + (raw["pa"][n] + raw["pb"][n]) / 2.0
            np.testing.assert_allclose(after[n], expected, atol=1e-15)

    def test_round_with_an_absentee_fails_and_keeps_the_model(self, tmp_path):
        from flmm.aggregation import ClientUpdate
        from flmm.privacy import apply_pairwise_masks
        parties = ("pa", "pb", "pc")
        clock = FakeClock()
        core = make_core(tmp_path, parties=parties, masking=True, deadline=30.0,
                         clock=clock)
        for p in parties:
            register(core, p)
        before = save_snapshot(core.snapshot)
        for i, p in enumerate(("pa", "pb")):
            u = ClientUpdate(p, 0, random_deltas(70 + i, core.snapshot), 4, 0)
            masked = apply_pairwise_masks(u, list(parties), round_seed=123)
            assert submit(core, p, masked.deltas, 0).msg_type == "ACK"
        clock.t += 31.0
        poll(core, "pa")
        record = core.log.verify()[-1]
        assert (record["status"], record["reason"]) == ("failed", "MaskingError")
        assert record["absent"] == "pc" and record["blocks"] == ""
        assert record["pre_version"] == record["post_version"] == "0"
        assert core.state.round == 1
        assert save_snapshot(core.snapshot) == before
        assert core.log.logged_rounds() == []


class TestRoundLog:
    def run_rounds(self, tmp_path, n=2):
        core = make_core(tmp_path, rounds=n)
        for p in ("pa", "pb"):
            register(core, p)
        for r in range(n):
            v = core.snapshot.version
            for i, p in enumerate(("pa", "pb")):
                submit(core, p, random_deltas(60 + 2 * r + i, core.snapshot), v)
        return core

    def test_chain_verifies(self, tmp_path):
        core = self.run_rounds(tmp_path)
        records = core.log.verify()
        assert len(records) == 2
        assert [r["status"] for r in records] == ["ok", "ok"]

    def test_unparseable_line_is_a_history_error(self, tmp_path):
        core = self.run_rounds(tmp_path)
        # a well-chained record whose body is not all key=value pairs
        core.log.append({"round": 2, "contributors": "a b:4"})
        with pytest.raises(HistoryError):
            core.log.verify()
        with pytest.raises(HistoryError):
            RoundLog(str(tmp_path))

    def test_single_byte_flip_detected(self, tmp_path):
        core = self.run_rounds(tmp_path)
        path = core.log.path
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x01
        open(path, "wb").write(bytes(data))
        with pytest.raises(HistoryError):
            RoundLog(str(tmp_path))

    def test_update_files_roundtrip(self, tmp_path):
        core = self.run_rounds(tmp_path)
        u = core.log.load_update(0, "pa")
        assert u.client_id == "pa" and u.sample_count == 4
        assert set(u.deltas) == set(snapshot_blocks(core.snapshot))

    def test_update_file_golden_bytes(self, tmp_path):
        from flmm.aggregation import ClientUpdate
        from flmm.model import init_snapshot
        log = RoundLog(str(tmp_path))
        log.save_update(3, ClientUpdate("p1", 2, snapshot_blocks(init_snapshot(5)), 17, 3))
        data = (tmp_path / "updates" / "r3_p1.upd").read_bytes()
        assert (len(data), f"{zlib.crc32(data):08x}") == (1446, "8ab182e7")

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda d: d.replace(b"base_version: 1", b"base_version: x"),
                     id="non_integer"),
        pytest.param(lambda d: d.replace(b"sample_count: ", b"sample_kount: "),
                     id="missing_header"),
        pytest.param(lambda d: d.replace(b"FLMM/1 SUBMIT", b"FLMM/1 SUBMIX"),
                     id="bad_start_line"),
        pytest.param(lambda d: d.replace(b"blocks: bridge", b"blocks: w_base"),
                     id="unknown_block"),
        pytest.param(lambda d: d.replace(b"party: pa", b"party: pb"), id="other_party"),
        pytest.param(lambda d: d[:-3], id="truncated"),
        pytest.param(lambda d: d + b"\x00", id="trailing_bytes"),
        pytest.param(lambda d: b"", id="empty"),
    ])
    def test_malformed_update_file_is_a_history_error(self, tmp_path, corrupt):
        core = self.run_rounds(tmp_path)
        path = tmp_path / "updates" / "r1_pa.upd"
        data = path.read_bytes()
        assert corrupt(data) != data
        path.write_bytes(corrupt(data))
        with pytest.raises(HistoryError, match="round 1 party 'pa'"):
            core.log.load_update(1, "pa")

    def test_logged_rounds_for_replay(self, tmp_path):
        core = self.run_rounds(tmp_path)
        rounds = core.log.logged_rounds(core.cfg.plan)
        assert [r.round for r in rounds] == [0, 1]
        assert all(len(r.updates) == 2 for r in rounds)

    def test_logged_rounds_refuses_updates_that_did_not_train_the_model(self, tmp_path):
        from flmm.aggregation import ClientUpdate
        core = self.run_rounds(tmp_path)
        logged = core.log.load_update(1, "pa")
        core.log.save_update(1, ClientUpdate(
            "pa", logged.base_version, random_deltas(999, core.snapshot),
            logged.sample_count, logged.submitted_round))
        with pytest.raises(HistoryError, match="does not reproduce"):
            core.log.logged_rounds()


class TestRecovery:
    def test_recover_is_bit_exact(self, tmp_path):
        core = TestRoundLog().run_rounds(tmp_path, n=2)
        recovered = ServerCore.recover(core.cfg, str(tmp_path), clock=FakeClock())
        a, b = snapshot_blocks(core.snapshot), snapshot_blocks(recovered.snapshot)
        for n in a:
            np.testing.assert_array_equal(a[n], b[n])
        assert recovered.snapshot.version == core.snapshot.version
        assert recovered.state.round == core.state.round
        assert recovered.finished == core.finished

    def test_recover_midway_continues(self, tmp_path):
        core = make_core(tmp_path, rounds=3)
        for p in ("pa", "pb"):
            register(core, p)
        v = core.snapshot.version
        for i, p in enumerate(("pa", "pb")):
            submit(core, p, random_deltas(70 + i, core.snapshot), v)
        assert core.state.round == 1
        recovered = ServerCore.recover(core.cfg, str(tmp_path), clock=FakeClock())
        assert not recovered.finished
        assert recovered.state.round == 1
        # the recovered server finishes the remaining rounds normally
        for p in ("pa", "pb"):
            register(recovered, p)
        for r in range(1, 3):
            v = recovered.snapshot.version
            for i, p in enumerate(("pa", "pb")):
                submit(recovered, p, random_deltas(80 + 2 * r + i,
                                                   recovered.snapshot), v)
        assert recovered.finished

    def test_recover_from_empty_log(self, tmp_path):
        core = make_core(tmp_path, rounds=2)
        recovered = ServerCore.recover(core.cfg, str(tmp_path), clock=FakeClock())
        assert recovered.state.round == 0 and not recovered.finished
        a, b = snapshot_blocks(core.snapshot), snapshot_blocks(recovered.snapshot)
        for n in a:
            np.testing.assert_array_equal(a[n], b[n])


class TestHandleBytes:
    def test_byte_path_equals_object_path(self, tmp_path):
        from flmm.protocol import decode_payload, encode_message
        core = make_core(tmp_path)
        msg = Message("REGISTER", {"party": "pa", "token": TOKEN})
        resp_bytes = core.handle_bytes(encode_message(msg)[4:])
        resp = decode_payload(resp_bytes)
        assert resp.msg_type == "ACK"

    @pytest.mark.parametrize("msg_type,headers,bad", [
        ("FETCH", {"version": "1.5"}, "version"),
        ("SUBMIT", {"base_version": "zero", "sample_count": "4"}, "base_version"),
        ("SUBMIT", {"base_version": "0", "sample_count": ""}, "sample_count"),
    ], ids=["fetch_version", "submit_base_version", "submit_sample_count"])
    def test_non_integer_header_rejected(self, tmp_path, msg_type, headers, bad):
        from flmm.protocol import decode_payload, encode_message
        core = make_core(tmp_path)
        register(core, "pa")
        names, body = pack_blocks(random_deltas(1, core.snapshot))
        msg = Message(msg_type, {"party": "pa", "token": TOKEN, "blocks": names,
                                 **headers}, body if msg_type == "SUBMIT" else b"")
        resp = decode_payload(core.handle_bytes(encode_message(msg)[4:]))
        assert resp.msg_type == "REJECT"
        assert resp.headers["kind"] == "ProtocolError"
        assert repr(bad) in resp.headers["reason"]

    def test_garbage_bytes_rejected(self, tmp_path):
        from flmm.protocol import decode_payload
        core = make_core(tmp_path)
        resp = decode_payload(core.handle_bytes(b"not a frame"))
        assert resp.msg_type == "REJECT"
