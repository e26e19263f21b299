"""Round-based coordination server.

Clients always initiate (register, poll, submit, fetch); the server opens no
connections. An ASSIGN carries the current version's trainable blocks and the
checksum of the frozen base they belong to; FETCH returns a whole checkpoint,
which a client needs only for its frozen base. All round-state mutations are
serialized under one lock; reads of the current model touch only immutable
snapshots. Every round is appended to a CRC-chained log with per-version
checkpoints, enough to recover after a crash and to replay coalitions for
contribution measurement.
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from flmm.aggregation import ASYNC_MIX, AggregationPlan, ClientUpdate, aggregate
from flmm.contribution import LoggedRound, replay_coalition
from flmm.errors import (
    AuthError,
    DuplicateError,
    HistoryError,
    MaskingError,
    PlanError,
    ProtocolError,
    StalenessError,
    ValidationError,
)
from flmm.model import ModelSnapshot, frozen_checksum, load_snapshot, save_snapshot, \
    snapshot_blocks
from flmm.protocol import Message, decode_payload, encode_message, message_update, \
    pack_blocks, read_frame, update_message


@dataclass
class RoundState:
    round: int
    model_version: int
    phase: str
    expected: set
    received: dict  # party -> ClientUpdate
    opened_at: float
    absentees: tuple = ()


@dataclass(frozen=True)
class ServerConfig:
    token: str
    plan: AggregationPlan
    rounds: int
    deadline: float = 60.0
    history_window: int = 16
    expected_parties: tuple = ()


def blocks_field(snapshot: ModelSnapshot) -> str:
    """A round record's ``blocks=`` field: each trainable block's CRC."""
    return ";".join(
        f"{name}:{zlib.crc32(np.ascontiguousarray(m, dtype='<f8').tobytes()):08x}"
        for name, m in sorted(snapshot_blocks(snapshot).items()))


def valid_party_id(party: str) -> bool:
    """Non-empty, without whitespace or the round log's separators ,:="""
    return bool(party) and not any(c.isspace() or c in ",:=" for c in party)


class RoundLog:
    """Append-only CRC-chained round log plus checkpoint/update files."""

    def __init__(self, log_dir: str):
        self.dir = log_dir
        os.makedirs(os.path.join(log_dir, "checkpoints"), exist_ok=True)
        os.makedirs(os.path.join(log_dir, "updates"), exist_ok=True)
        self.path = os.path.join(log_dir, "rounds.log")
        self._last_crc = 0
        if os.path.exists(self.path):
            for fields in self.verify():
                self._last_crc = int(fields["crc"], 16)

    def append(self, fields: dict) -> None:
        body = " ".join(f"{k}={v}" for k, v in fields.items())
        body += f" prev_crc={self._last_crc:08x}"
        crc = zlib.crc32(body.encode())
        line = f"{body} crc={crc:08x}\n"
        with open(self.path, "a") as f:
            f.write(line)
            f.flush()
            os.fsync(f.fileno())
        self._last_crc = crc

    def verify(self) -> list:
        """Parse all records, checking per-line CRCs and the chain."""
        records = []
        prev = 0
        if not os.path.exists(self.path):
            return records
        with open(self.path) as f:
            for i, line in enumerate(f):
                line = line.rstrip("\n")
                if not line:
                    continue
                body, _, crc_field = line.rpartition(" crc=")
                if not body:
                    raise HistoryError(f"round log line {i}: no crc field")
                if f"{zlib.crc32(body.encode()):08x}" != crc_field:
                    raise HistoryError(f"round log line {i}: CRC mismatch")
                try:
                    fields = dict(kv.split("=", 1) for kv in body.split(" "))
                    chained = int(fields["prev_crc"], 16) == prev
                except (KeyError, ValueError) as e:
                    raise HistoryError(f"round log line {i}: cannot parse") from e
                if not chained:
                    raise HistoryError(f"round log line {i}: broken chain")
                fields["crc"] = crc_field
                prev = int(crc_field, 16)
                records.append(fields)
        return records

    def save_checkpoint(self, snapshot: ModelSnapshot) -> None:
        data = save_snapshot(snapshot)
        with open(self._ckpt_path(snapshot.version), "wb") as f:
            f.write(data)

    def load_checkpoint(self, version: int) -> ModelSnapshot:
        return load_snapshot(self.checkpoint_bytes(version))

    def checkpoint_bytes(self, version: int) -> bytes:
        path = self._ckpt_path(version)
        if not os.path.exists(path):
            raise HistoryError(f"no checkpoint for version {version}")
        with open(path, "rb") as f:
            return f.read()

    def prune_checkpoints(self, keep_from: int) -> None:
        """Delete checkpoints older than keep_from, except v0: coalition
        replay for Shapley starts from it."""
        for name in os.listdir(os.path.join(self.dir, "checkpoints")):
            v = int(name[1:].split(".")[0])
            if 0 < v < keep_from:
                os.remove(os.path.join(self.dir, "checkpoints", name))

    def _ckpt_path(self, version: int) -> str:
        return os.path.join(self.dir, "checkpoints", f"v{version}.ckpt")

    def save_update(self, round_num: int, update: ClientUpdate) -> None:
        """Write the update as its SUBMIT frame, with an empty token."""
        path = os.path.join(self.dir, "updates", f"r{round_num}_{update.client_id}.upd")
        with open(path, "wb") as f:
            f.write(encode_message(update_message(update, "")))

    def load_update(self, round_num: int, party: str) -> ClientUpdate:
        """The logged update; a missing, truncated or malformed file, one
        with bytes after its frame, or one that names another party, raises
        HistoryError."""
        path = os.path.join(self.dir, "updates", f"r{round_num}_{party}.upd")
        where = f"logged update for round {round_num} party {party!r}"
        if not os.path.exists(path):
            raise HistoryError(f"no {where}")
        try:
            with open(path, "rb") as f:
                update = message_update(read_frame(f))
                trailing = f.read(1)
        except (ProtocolError, ValidationError) as e:
            raise HistoryError(f"{where}: {e}") from e
        if trailing:
            raise HistoryError(f"{where} has bytes after its frame")
        if update.client_id != party:
            raise HistoryError(f"{where} names party {update.client_id!r}")
        return update

    def logged_rounds(self, plan: AggregationPlan | None = None) -> list:
        """Successful rounds with their updates and the plan each ran with,
        for coalition replay. A ``plan``, if given, must be the logged one.

        Replaying every contributor from v0 must reproduce the last round's
        logged blocks; otherwise the updates on disk did not train the
        logged model, and a HistoryError says so.
        """
        out = []
        last = None
        for fields in self.verify():
            if fields.get("status") != "ok":
                continue
            r = int(fields["round"])
            logged = _logged_plan(fields)
            if plan is not None and plan != logged:
                raise HistoryError(f"round {r} ran with {logged}, not {plan}")
            contributors = [kv.split(":")[0]
                            for kv in fields["contributors"].split(",") if kv]
            updates = tuple(self.load_update(r, p) for p in contributors)
            out.append(LoggedRound(round=r, plan=logged, updates=updates))
            last = fields
        if out:
            everyone = frozenset(u.client_id for rec in out for u in rec.updates)
            replayed = replay_coalition(self.load_checkpoint(0), out, everyone)
            if blocks_field(replayed) != last["blocks"]:
                raise HistoryError(f"replaying the logged updates does not reproduce "
                                   f"the blocks logged in round {last['round']}")
        return out


def _logged_plan(fields: dict) -> AggregationPlan:
    """The plan a round record names."""
    try:
        return AggregationPlan(
            strategy=fields["strategy"],
            block_mask=frozenset(fields["block_mask"].split(",")),
            mixing_rate=float(fields["mixing_rate"]),
            staleness_exponent=float(fields["staleness_exponent"]),
            masking_enabled=fields["masked"] == "1")
    except (KeyError, ValueError, PlanError) as e:
        raise HistoryError(f"round {fields['round']} records no valid plan") from e


class ServerCore:
    """Protocol-level request handler; shared by socket and in-process use."""

    def __init__(self, cfg: ServerConfig, initial: ModelSnapshot, log_dir: str,
                 clock=time.monotonic):
        self._attach(cfg, RoundLog(log_dir), initial, clock)
        self.finished = False
        self.log.save_checkpoint(initial)
        self.state = self._open_round(0)

    def _attach(self, cfg: ServerConfig, log: RoundLog, snapshot: ModelSnapshot,
                clock) -> None:
        self.cfg = cfg
        self.clock = clock
        self.lock = threading.RLock()
        self.registry: set = set()  # registered party ids
        self.log = log
        self.snapshot = snapshot
        # every version shares the frozen base and the block shapes, so both
        # are taken once
        self.base_checksum = f"{frozen_checksum(snapshot):08x}"
        self._block_shapes = {n: m.shape for n, m in snapshot_blocks(snapshot).items()}
        self._assign_body = None  # (version, block names, body, body crc)

    # -- lifecycle ----------------------------------------------------------

    def _open_round(self, round_num: int) -> RoundState:
        expected = set(self.cfg.expected_parties) or set(self.registry)
        return RoundState(round=round_num, model_version=self.snapshot.version,
                          phase="open", expected=expected, received={},
                          opened_at=self.clock())

    @classmethod
    def recover(cls, cfg: ServerConfig, log_dir: str, clock=time.monotonic):
        """Rebuild server state from the round log after a crash."""
        log = RoundLog(log_dir)
        records = log.verify()
        version = 0
        next_round = 0
        for f in records:
            if f.get("status") == "ok":
                version = int(f["post_version"])
            next_round = int(f["round"]) + 1
        snapshot = log.load_checkpoint(version)
        core = cls.__new__(cls)
        core._attach(cfg, log, snapshot, clock)
        core.finished = next_round >= cfg.rounds
        core.state = core._open_round(next_round)
        return core

    # -- protocol dispatch --------------------------------------------------

    def handle_bytes(self, payload: bytes) -> bytes:
        """Full protocol path: parse request payload, return response frame
        minus the length prefix (callers add it when framing)."""
        try:
            msg = decode_payload(payload)
            resp = self.handle(msg)
        except ProtocolError as e:
            resp = self._reject(str(e))
        return encode_message(resp)[4:]

    def handle(self, msg: Message) -> Message:
        with self.lock:
            self._check_deadline()
            try:
                if msg.msg_type == "REGISTER":
                    return self._register(msg)
                if msg.msg_type == "POLL":
                    return self._poll(msg)
                if msg.msg_type == "SUBMIT":
                    return self._submit(msg)
                if msg.msg_type == "FETCH":
                    return self._fetch(msg)
                raise ProtocolError(f"unexpected message type {msg.msg_type}")
            except (AuthError, DuplicateError, StalenessError,
                    ValidationError, HistoryError, ProtocolError) as e:
                return self._reject(str(e), kind=type(e).__name__)

    def _respond(self, msg_type: str, headers: dict | None = None,
                 body: bytes = b"") -> Message:
        h = {"round": self.state.round, "version": self.snapshot.version}
        h.update(headers or {})
        return Message(msg_type, h, body)

    def _reject(self, reason: str, kind: str = "ProtocolError") -> Message:
        return self._respond("REJECT", {"reason": reason, "kind": kind})

    def _token_party(self, msg: Message) -> str:
        """The requesting party, which must hold the token."""
        party = msg.header("party")
        if msg.header("token") != self.cfg.token:
            raise AuthError(f"bad token for party {party!r}")
        return party

    def _auth(self, msg: Message) -> str:
        """The requesting party, which must hold the token and be registered."""
        party = self._token_party(msg)
        if party not in self.registry:
            raise AuthError(f"party {party!r} is not registered")
        return party

    def _register(self, msg: Message) -> Message:
        party = self._token_party(msg)
        if not valid_party_id(party):
            raise ValidationError(f"party id {party!r} cannot go in the round log")
        self.registry.add(party)
        if not self.cfg.expected_parties:
            self.state.expected.add(party)
        return self._respond("ACK")

    def _poll(self, msg: Message) -> Message:
        party = self._auth(msg)
        st = self.state
        if (self.finished or st.phase not in ("open", "collecting")
                or party not in st.expected or party in st.received):
            return self._respond("NOTASK", {"finished": "1" if self.finished else "0"})
        deadline_left = max(0.0, self.cfg.deadline - (self.clock() - st.opened_at))
        _, names, body, crc = self._adapter_body()
        return self._respond("ASSIGN", {"deadline": f"{deadline_left:.3f}",
                                        "base": self.base_checksum, "blocks": names,
                                        "crc": crc}, body)

    def _adapter_body(self) -> tuple:
        """The current version's trainable blocks, packed once per version."""
        if self._assign_body is None or self._assign_body[0] != self.snapshot.version:
            names, body = pack_blocks(snapshot_blocks(self.snapshot))
            self._assign_body = (self.snapshot.version, names, body,
                                 f"{zlib.crc32(body):08x}")
        return self._assign_body

    def _submit(self, msg: Message) -> Message:
        party = self._auth(msg)
        st = self.state
        if self.finished or st.phase not in ("open", "collecting"):
            raise StalenessError("no round accepting submissions")
        if party in st.received:
            raise DuplicateError(f"duplicate submission from {party!r}")
        # a bad header is a ProtocolError, bad blocks a ValidationError
        update = message_update(msg, st.round)
        for name, m in update.deltas.items():
            if m.shape != self._block_shapes.get(name):
                raise ValidationError(f"block {name!r} has shape {m.shape}, the "
                                      f"model's is {self._block_shapes.get(name)}")
        mixing = self.cfg.plan.strategy == ASYNC_MIX  # each update closes a round
        oldest = max(0, st.model_version - self.cfg.history_window) if mixing \
            else st.model_version
        if not oldest <= update.base_version <= st.model_version:
            raise StalenessError(f"update base {update.base_version} outside versions "
                                 f"{oldest}..{st.model_version}; refetch")
        st.received[party] = update
        st.phase = "collecting"
        if mixing or set(st.received) >= st.expected:
            st.phase = "aggregating"
            self.close_round()
        return self._respond("ACK")

    def _fetch(self, msg: Message) -> Message:
        self._auth(msg)
        version = msg.int_header("version")
        if version < max(0, self.snapshot.version - self.cfg.history_window):
            raise HistoryError(f"version {version} evicted from history")
        data = self.log.checkpoint_bytes(version)
        return self._respond("MODEL", body=data)

    # -- aggregation --------------------------------------------------------

    def _check_deadline(self) -> None:
        st = self.state
        if (not self.finished and st.phase in ("open", "collecting") and st.received
                and self.cfg.plan.strategy != ASYNC_MIX
                and self.clock() - st.opened_at > self.cfg.deadline):
            st.absentees = tuple(sorted(st.expected - set(st.received)))
            st.phase = "aggregating"
            self.close_round()

    def close_round(self) -> None:
        """Aggregate the collected updates and install the new snapshot."""
        st = self.state
        assert st.phase == "aggregating"
        updates = sorted(st.received.values(), key=lambda u: u.client_id)
        started = self.clock()
        pre = self.snapshot.version
        for u in updates:
            self.log.save_update(st.round, u)
        try:  # only async_mix reads base models, from their checkpoints
            if self.cfg.plan.masking_enabled and st.absentees:
                raise MaskingError(f"absent {','.join(st.absentees)}: their pair "
                                   f"masks would not cancel")
            history = {u.base_version: self.log.load_checkpoint(u.base_version)
                       for u in updates if self.cfg.plan.strategy == ASYNC_MIX}
            self.snapshot = aggregate(self.cfg.plan, self.snapshot, updates, history)
            self.log.save_checkpoint(self.snapshot)
            self._append_round_record(updates, pre, started, status="ok")
        except Exception as e:  # failed rounds leave the model untouched
            self._append_round_record(updates, pre, started, status="failed",
                                      reason=type(e).__name__)
        st.phase = "closed"
        self._advance_round()

    def _append_round_record(self, updates, pre_version: int, started: float,
                             status: str, reason: str = "") -> None:
        plan = self.cfg.plan
        fields = {
            "round": self.state.round,
            "strategy": plan.strategy,
            "block_mask": ",".join(sorted(plan.block_mask)),
            "mixing_rate": repr(plan.mixing_rate),
            "staleness_exponent": repr(plan.staleness_exponent),
            "masked": int(plan.masking_enabled),
            "contributors": ",".join(f"{u.client_id}:{u.sample_count}" for u in updates),
            "absent": ",".join(self.state.absentees),
            "blocks": blocks_field(self.snapshot) if status == "ok" else "",
            "pre_version": pre_version,
            "post_version": self.snapshot.version,
            "metric": "NA",
            "duration": f"{self.clock() - started:.6f}",
            "status": status,
        }
        if reason:
            fields["reason"] = reason
        self.log.append(fields)

    def _advance_round(self) -> None:
        next_round = self.state.round + 1
        self.log.prune_checkpoints(self.snapshot.version - self.cfg.history_window)
        if next_round >= self.cfg.rounds:
            self.finished = True
        self.state = self._open_round(next_round)


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        while True:
            try:
                msg = read_frame(self.rfile)
            except (OSError, ProtocolError):
                return  # connection closed, shut down or garbage: drop it
            resp = encode_message(self.server.core.handle(msg))
            try:
                self.wfile.write(resp)
                self.wfile.flush()
            except OSError:
                return  # the client left, or server_close shut the connection


class FederationServer(socketserver.ThreadingTCPServer):
    """Socket front end over a ServerCore; each client keeps one connection.

    ``server_close()`` also shuts down the connections still open and waits
    for their handler threads, so no handler outlives the server.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host: str, port: int, core: ServerCore):
        super().__init__((host, port), _Handler)
        self.core = core
        self._live = {}  # open request socket -> its handler thread
        self._live_lock = threading.Lock()

    def process_request(self, request, client_address):
        t = threading.Thread(target=self.process_request_thread,
                             args=(request, client_address), daemon=True)
        with self._live_lock:  # so server_close never sees an unstarted thread
            self._live[request] = t
            t.start()

    def shutdown_request(self, request):
        with self._live_lock:
            self._live.pop(request, None)
        super().shutdown_request(request)

    def server_close(self):
        super().server_close()
        with self._live_lock:  # held so no handler closes its socket meanwhile
            live = list(self._live.items())
            for request, _ in live:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer has already reset it
        for _, t in live:
            t.join()

    def serve_background(self) -> threading.Thread:
        t = threading.Thread(target=self.serve_forever, daemon=True)
        t.start()
        return t
