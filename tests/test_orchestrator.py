import os
import zlib

import numpy as np
import pytest

from flmm.aggregation import AggregationPlan, snapshot_blocks
from flmm.errors import HistoryError
from flmm.model import frozen_checksum, load_snapshot, save_snapshot
from flmm.orchestrator import RoundLog, ServerConfig, ServerCore
from flmm.protocol import Message, encode_message, pack_blocks, unpack_blocks, \
    update_message
from flmm.rng import SplitMix64

from support import logged_frames, logged_spans, relog, relog_update, \
    relog_with_wrong_blocks, small_snapshot

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
        assert set(core.state.received) == {"pa"} and core.state.round == 0
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

    def test_block_named_twice_rejected(self, tmp_path):
        core = make_core(tmp_path)
        register(core, "pa")
        deltas = random_deltas(13, core.snapshot)
        names, body = pack_blocks(deltas)
        _, spurious = pack_blocks({"vision.a": deltas["vision.a"] + 1.0})
        resp = core.handle(Message("SUBMIT", {
            "party": "pa", "token": TOKEN, "base_version": "0", "sample_count": "4",
            "blocks": "vision.a," + names}, spurious + body))
        assert resp.msg_type == "REJECT"
        assert resp.header("kind") == "ValidationError"
        assert resp.header("reason") == "block 'vision.a' named twice"
        assert core.state.received == {}

    @pytest.mark.parametrize("case", ["zero_samples", "frozen_block"])
    def test_malformed_update_rejected_not_raised(self, tmp_path, case):
        core = make_core(tmp_path)
        register(core, "pa")
        deltas = random_deltas(11, core.snapshot)
        samples = 0 if case == "zero_samples" else 4
        if case == "frozen_block":
            deltas["w_v"] = deltas.pop("bridge")
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

    def test_failed_update_write_fails_the_round_and_the_next_opens(
            self, tmp_path, monkeypatch):
        core = make_core(tmp_path, parties=("pa",))
        register(core, "pa")
        before = save_snapshot(core.snapshot)

        def disk_full(updates):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(core.log, "append_updates", disk_full)
        assert submit(core, "pa", random_deltas(21, core.snapshot), 0).msg_type == "ACK"
        record = core.log.verify()[-1]
        assert (record["round"], record["status"], record["reason"]) == \
            ("0", "failed", "OSError")
        assert record["pre_version"] == record["post_version"] == "0"
        assert record["updates"] == ""  # no frame of the round is durable
        assert save_snapshot(core.snapshot) == before
        assert (core.state.round, core.state.received) == (1, {})
        monkeypatch.undo()
        assert poll(core, "pa").msg_type == "ASSIGN"
        assert submit(core, "pa", random_deltas(22, core.snapshot), 0).msg_type == "ACK"
        assert core.snapshot.version == 1
        assert core.log.verify()[-1]["status"] == "ok"

    def test_failed_record_append_fails_the_round_and_installs_nothing(
            self, tmp_path, monkeypatch):
        core = make_core(tmp_path, parties=("pa",))
        register(core, "pa")
        assert submit(core, "pa", random_deltas(23, core.snapshot), 0).msg_type == "ACK"
        before = save_snapshot(core.snapshot)
        window = dict(core.log.versions)
        assigned = poll(core, "pa")
        append, statuses = core.log.append, []

        def first_append_fails(fields):
            statuses.append(fields["status"])
            if len(statuses) == 1:
                raise OSError(5, "Input/output error")
            append(fields)

        monkeypatch.setattr(core.log, "append", first_append_fails)
        assert submit(core, "pa", random_deltas(24, core.snapshot), 1).msg_type == "ACK"
        assert statuses == ["ok", "failed"]
        record = core.log.verify()[-1]
        assert (record["round"], record["status"], record["reason"]) == \
            ("1", "failed", "OSError")
        assert record["pre_version"] == record["post_version"] == "1"
        assert save_snapshot(core.snapshot) == before
        assert core.log.versions.keys() == window.keys()
        assert all(core.log.versions[v] is window[v] for v in window)
        again = poll(core, "pa")
        assert (again.header("round"), again.header("version")) == (2, 1)
        assert again.body == assigned.body and again.header("crc") == assigned.header("crc")

        recovered = ServerCore.recover(core.cfg, str(tmp_path), clock=FakeClock())
        assert save_snapshot(recovered.snapshot) == before
        assert recovered.log.versions.keys() == window.keys()
        register(recovered, "pa")
        replayed = poll(recovered, "pa")
        assert (replayed.headers, replayed.body) == (again.headers, again.body)


    def test_failed_fsync_leaves_no_line_and_the_log_verifies(self, tmp_path, monkeypatch):
        core = make_core(tmp_path, parties=("pa",))
        register(core, "pa")
        before = save_snapshot(core.snapshot)
        fsync, calls = os.fsync, []

        def record_fsync_fails(fd):
            calls.append(fd)
            if len(calls) == 2:  # the ok record's, after the stream's
                raise OSError(5, "Input/output error")
            fsync(fd)

        monkeypatch.setattr(os, "fsync", record_fsync_fails)
        assert submit(core, "pa", random_deltas(25, core.snapshot), 0).msg_type == "ACK"
        monkeypatch.undo()
        assert len(calls) == 3  # the stream's, the ok record's, which failed,
        # then the failed one's
        records = core.log.verify()
        assert [(r["round"], r["status"], r.get("reason")) for r in records] == \
            [("0", "failed", "OSError")]
        assert records[0]["prev_crc"] == "00000000"
        assert save_snapshot(core.snapshot) == before
        assert submit(core, "pa", random_deltas(26, core.snapshot), 0).msg_type == "ACK"
        assert [r["status"] for r in core.log.verify()] == ["failed", "ok"]

        recovered = ServerCore.recover(core.cfg, str(tmp_path), clock=FakeClock())
        assert save_snapshot(recovered.snapshot) == save_snapshot(core.snapshot)
        assert recovered.state.round == core.state.round == 2


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
        from support import pairwise_mask, quantize_deltas
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


STRAY = ("notes.txt", ".v2.ckpt")


def fetch(core, version):
    return core.handle(Message("FETCH", {"party": "pa", "token": TOKEN,
                                         "version": str(version)}))


def log_files(path):
    return {str(p.relative_to(path)) for p in path.rglob("*") if p.is_file()}


class TestDerivedVersions:
    """Only v0 is stored: every later version comes from the round log."""

    @staticmethod
    def assert_recovers(core, tmp_path, made):
        """A recovered server serves the live one's window and next ASSIGN,
        and a fresh RoundLog derives every version made so far."""
        recovered = ServerCore.recover(core.cfg, str(tmp_path), clock=FakeClock())
        for p in ("pa", "pb"):
            register(recovered, p)
        window = sorted(core.log.versions)
        assert sorted(recovered.log.versions) == window
        assert window == list(range(max(0, core.snapshot.version - 2),
                                    core.snapshot.version + 1))
        for v in window:
            live, again = fetch(core, v), fetch(recovered, v)
            assert live.msg_type == "MODEL" and live.body == made[v]
            assert (again.headers, again.body) == (live.headers, live.body)
        if window[0] > 0:
            assert fetch(recovered, window[0] - 1).header("kind") == "HistoryError"
        live, again = poll(core, "pa"), poll(recovered, "pa")
        assert (again.msg_type, again.headers, again.body) == \
            (live.msg_type, live.headers, live.body)
        log = RoundLog(str(tmp_path), history_window=2)
        for v, data in made.items():
            assert save_snapshot(log.load_checkpoint(v)) == data

    @pytest.mark.parametrize("strategy", ["sync_avg", "async_mix"])
    def test_recover_at_every_round_boundary(self, tmp_path, strategy):
        cfg = ServerConfig(token=TOKEN, plan=AggregationPlan(strategy=strategy),
                           rounds=6, history_window=2, expected_parties=("pa", "pb"))
        core = ServerCore(cfg, small_snapshot(1), str(tmp_path), clock=FakeClock())
        for p in ("pa", "pb"):
            register(core, p)
        made = {0: save_snapshot(core.snapshot)}
        for r in range(6):
            self.assert_recovers(core, tmp_path, made)
            v = core.snapshot.version
            if strategy == "async_mix":  # one update per round, some on an older base
                party = ("pa", "pb")[r % 2]
                assert submit(core, party, random_deltas(200 + r, core.snapshot),
                              max(0, v - r % 3)).msg_type == "ACK"
            else:
                for i, p in enumerate(("pa", "pb")):
                    assert submit(core, p, random_deltas(200 + 2 * r + i, core.snapshot),
                                  v).msg_type == "ACK"
            made[core.snapshot.version] = save_snapshot(core.snapshot)
        self.assert_recovers(core, tmp_path, made)
        assert core.finished and core.snapshot.version == 6
        assert [r["status"] for r in core.log.verify()] == ["ok"] * 6

    def test_recover_refuses_an_update_that_did_not_train_the_model(self, tmp_path):
        from flmm.aggregation import ClientUpdate
        core = TestRoundLog().run_rounds(tmp_path, n=3)
        logged = core.log.load_update(1, "pa")
        relog_update(str(tmp_path), 1, "pa", encode_message(update_message(ClientUpdate(
            "pa", logged.base_version, random_deltas(999, core.snapshot),
            logged.sample_count, logged.submitted_round), "")))
        with pytest.raises(HistoryError, match="round 1: replaying"):
            ServerCore.recover(core.cfg, str(tmp_path), clock=FakeClock())
        log = RoundLog(str(tmp_path))
        assert save_snapshot(log.load_checkpoint(1)) == \
            save_snapshot(core.log.load_checkpoint(1))
        with pytest.raises(HistoryError, match="round 1: replaying"):
            log.load_checkpoint(2)

    def test_every_reader_refuses_a_wrong_middle_record(self, tmp_path):
        core = TestRoundLog().run_rounds(tmp_path, n=3)
        relog_with_wrong_blocks(str(tmp_path), 1)
        log = RoundLog(str(tmp_path))
        assert [r["status"] for r in log.verify()] == ["ok"] * 3
        wrong = "round 1: replaying .* the blocks logged in round 1$"
        with pytest.raises(HistoryError, match=wrong):
            log.logged_rounds()
        with pytest.raises(HistoryError, match=wrong):
            ServerCore.recover(core.cfg, str(tmp_path), clock=FakeClock())
        assert save_snapshot(log.load_checkpoint(1)) == \
            save_snapshot(core.log.load_checkpoint(1))
        with pytest.raises(HistoryError, match=wrong):
            log.load_checkpoint(2)

    def test_a_base_older_than_the_readers_window_replays(self, tmp_path):
        """The server's window is 20, a reader's 16: an update 18 versions
        stale still replays, and recovery keeps the reader's window."""
        from dataclasses import replace
        cfg = ServerConfig(token=TOKEN, plan=AggregationPlan(strategy="async_mix"),
                           rounds=19, history_window=20, expected_parties=("pa", "pb"))
        core = ServerCore(cfg, small_snapshot(1), str(tmp_path), clock=FakeClock())
        for p in ("pa", "pb"):
            register(core, p)
        for r in range(19):
            base = 0 if r == 18 else core.snapshot.version
            assert submit(core, ("pa", "pb")[r % 2], random_deltas(400 + r, core.snapshot),
                          base).msg_type == "ACK"
        assert core.finished and core.snapshot.version == 19
        assert core.log.load_update(18, "pa").base_version == 0
        log = RoundLog(str(tmp_path))
        assert [rec.round for rec in log.logged_rounds()] == list(range(19))
        assert save_snapshot(log.load_checkpoint(19)) == save_snapshot(core.snapshot)
        recovered = ServerCore.recover(replace(cfg, history_window=16), str(tmp_path),
                                       clock=FakeClock())
        assert sorted(recovered.log.versions) == list(range(3, 20))
        assert save_snapshot(recovered.snapshot) == save_snapshot(core.snapshot)

    def test_a_closed_round_creates_no_file_and_grows_the_stream_by_its_frames(
            self, tmp_path):
        core = make_core(tmp_path, rounds=3)
        for p in ("pa", "pb"):
            register(core, p)
        seg = tmp_path / "updates.seg"
        for r in range(3):
            before = log_files(tmp_path)
            size = seg.stat().st_size if r else 0
            v = core.snapshot.version
            for i, p in enumerate(("pa", "pb")):
                submit(core, p, random_deltas(300 + 2 * r + i, core.snapshot), v)
            added = log_files(tmp_path) - before
            # the first round creates the stream and the round log, no later one
            assert added == ({"updates.seg", "rounds.log"} if r == 0 else set())
            assert before <= log_files(tmp_path)
            spans = [logged_spans(str(tmp_path))[r, p] for p in ("pa", "pb")]
            assert spans[0][0] == size and spans[1][0] == size + spans[0][1]
            assert seg.stat().st_size == size + spans[0][1] + spans[1][1]
        assert core.finished
        assert os.listdir(tmp_path / "checkpoints") == ["v0.ckpt"]

    def test_server_finishes_every_round_with_stray_files(self, tmp_path):
        cfg = ServerConfig(token=TOKEN, plan=AggregationPlan(), rounds=3,
                           history_window=1, expected_parties=("pa", "pb"))
        core = ServerCore(cfg, small_snapshot(1), str(tmp_path), clock=FakeClock())
        for stray in STRAY:
            (tmp_path / "checkpoints" / stray).write_bytes(b"x")
        for p in ("pa", "pb"):
            register(core, p)
        for r in range(3):
            v = core.snapshot.version
            for i, p in enumerate(("pa", "pb")):
                assert submit(core, p, random_deltas(70 + 2 * r + i, core.snapshot),
                              v).msg_type == "ACK"
        assert core.finished and core.snapshot.version == 3
        assert sorted(os.listdir(tmp_path / "checkpoints")) == \
            sorted(STRAY + ("v0.ckpt",))


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
        with open(path, "rb") as f:
            data = bytearray(f.read())
        data[len(data) // 2] ^= 0x01
        with open(path, "wb") as f:
            f.write(bytes(data))
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
        field = log.append_updates(
            [ClientUpdate("p1", 2, snapshot_blocks(init_snapshot(5)), 17, 3)])
        data = (tmp_path / "updates.seg").read_bytes()
        assert (len(data), f"{zlib.crc32(data):08x}") == (1446, "8ab182e7")
        assert field == "0:1446:8ab182e7"

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda d: d.replace(b"base_version: 1", b"base_version: x"),
                     id="non_integer"),
        pytest.param(lambda d: d.replace(b"sample_count: ", b"sample_kount: "),
                     id="missing_header"),
        pytest.param(lambda d: d.replace(b"FLMM/1 SUBMIT", b"FLMM/1 SUBMIX"),
                     id="bad_start_line"),
        pytest.param(lambda d: d.replace(b"blocks: bridge", b"blocks: w_v"),
                     id="unknown_block"),
        pytest.param(lambda d: d.replace(b"party: pa", b"party: pb"), id="other_party"),
        pytest.param(lambda d: d[:-3], id="truncated"),
        pytest.param(lambda d: d + b"\x00", id="trailing_bytes"),
        pytest.param(lambda d: b"", id="empty"),
    ])
    def test_malformed_update_file_is_a_history_error(self, tmp_path, corrupt):
        core = self.run_rounds(tmp_path)
        data = logged_frames(str(tmp_path))[1, "pa"]
        assert corrupt(data) != data
        relog_update(str(tmp_path), 1, "pa", corrupt(data))
        # the range and its CRC hold, so the frame's own fault is reported
        with pytest.raises(HistoryError, match="round 1 party 'pa'"
                           "(: | has bytes after its frame| names party 'pb')"):
            core.log.load_update(1, "pa")

    def test_a_logged_frame_naming_a_block_twice_is_a_history_error(self, tmp_path):
        core = self.run_rounds(tmp_path)
        msg = update_message(core.log.load_update(1, "pa"), "")
        _, bridge = pack_blocks({"bridge": np.zeros((4, 4))})
        relog_update(str(tmp_path), 1, "pa", encode_message(Message(
            "SUBMIT", {**msg.headers, "blocks": "bridge," + msg.header("blocks")},
            bridge + msg.body)))
        with pytest.raises(HistoryError,
                           match="round 1 party 'pa': block 'bridge' named twice"):
            core.log.load_update(1, "pa")

    @pytest.mark.parametrize("damage, error", [
        ("flip", "round 1 party 'pa' fails its CRC"),
        ("cut", "round 1 party 'pb' runs past the end of updates.seg"),
        ("swap", "round 1 party 'pa' names party 'pb'"),
    ])
    def test_a_bad_range_is_a_history_error_naming_its_round(self, tmp_path, damage,
                                                             error):
        core = self.run_rounds(tmp_path)
        seg = tmp_path / "updates.seg"
        if damage == "flip":  # one byte of pa's round-1 frame; its record holds
            data = bytearray(seg.read_bytes())
            data[logged_spans(str(tmp_path))[1, "pa"][0] + 10] ^= 0x01
            seg.write_bytes(bytes(data))
        elif damage == "cut":  # the stream loses the tail of its last frame
            os.truncate(seg, seg.stat().st_size - 3)
        else:  # pa's range names pb's frame, with pb's length and CRC
            _, pb = core.log.verify()[1]["updates"].split(",")
            relog(str(tmp_path), 1, updates=f"{pb},{pb}")
        party = "pb" if damage == "cut" else "pa"
        with pytest.raises(HistoryError, match=error):
            core.log.load_update(1, party)
        with pytest.raises(HistoryError, match=error):
            RoundLog(str(tmp_path)).logged_rounds()
        with pytest.raises(HistoryError, match=error):
            ServerCore.recover(core.cfg, str(tmp_path), clock=FakeClock())

    @pytest.mark.parametrize("fails", ["write", "fsync"])
    def test_a_failed_stream_write_leaves_the_stream_and_fails_the_round(
            self, tmp_path, monkeypatch, fails):
        core = make_core(tmp_path, parties=("pa",))
        register(core, "pa")
        assert submit(core, "pa", random_deltas(27, core.snapshot), 0).msg_type == "ACK"
        seg = tmp_path / "updates.seg"
        size = seg.stat().st_size
        before = save_snapshot(core.snapshot)
        real, calls = getattr(os, fails), []

        def first_fails(fd, *args):
            calls.append(fd)
            if len(calls) > 1:
                return real(fd, *args)
            if fails == "write":  # half the round's frames land, then the disk is full
                real(fd, args[0][:len(args[0]) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, fails, first_fails)
        assert submit(core, "pa", random_deltas(28, core.snapshot), 1).msg_type == "ACK"
        monkeypatch.undo()
        assert seg.stat().st_size == size
        record = core.log.verify()[-1]
        assert (record["round"], record["status"], record["reason"], record["updates"]) \
            == ("1", "failed", "OSError", "")
        assert save_snapshot(core.snapshot) == before
        assert core.state.round == 2 and poll(core, "pa").msg_type == "ASSIGN"
        assert submit(core, "pa", random_deltas(29, core.snapshot), 1).msg_type == "ACK"
        assert [r["status"] for r in core.log.verify()] == ["ok", "failed", "ok"]
        assert logged_spans(str(tmp_path))[2, "pa"][0] == size
        recovered = ServerCore.recover(core.cfg, str(tmp_path), clock=FakeClock())
        assert save_snapshot(recovered.snapshot) == save_snapshot(core.snapshot)

    def test_an_ok_round_fsyncs_the_stream_then_the_record(self, tmp_path, monkeypatch):
        core = make_core(tmp_path, rounds=2)
        for p in ("pa", "pb"):
            register(core, p)
        fsync, synced = os.fsync, []

        def spy(fd):
            synced.append(os.fstat(fd).st_ino)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        for r in range(2):
            synced.clear()
            v = core.snapshot.version
            for i, p in enumerate(("pa", "pb")):
                submit(core, p, random_deltas(80 + 2 * r + i, core.snapshot), v)
            assert core.log.verify()[-1]["status"] == "ok"
            assert synced == [(tmp_path / "updates.seg").stat().st_ino,
                              (tmp_path / "rounds.log").stat().st_ino]

    def test_logged_rounds_for_replay(self, tmp_path):
        core = self.run_rounds(tmp_path)
        rounds = core.log.logged_rounds(core.cfg.plan)
        assert [r.round for r in rounds] == [0, 1]
        assert all(len(r.updates) == 2 for r in rounds)

    def test_logged_rounds_refuses_updates_that_did_not_train_the_model(self, tmp_path):
        from flmm.aggregation import ClientUpdate
        core = self.run_rounds(tmp_path)
        logged = core.log.load_update(1, "pa")
        relog_update(str(tmp_path), 1, "pa", encode_message(update_message(ClientUpdate(
            "pa", logged.base_version, random_deltas(999, core.snapshot),
            logged.sample_count, logged.submitted_round), "")))
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
