"""Round-based coordination server.

Clients always initiate (register, poll, submit, fetch); the server opens no
connections. An ASSIGN carries the current version's trainable blocks and the
checksum of the frozen base they belong to; FETCH returns ``v0``'s checkpoint,
which a client needs only for the frozen base every version shares. All
round-state mutations are serialized under one lock; reads of the current
model touch only immutable snapshots. The stored state is three files:
``rounds.log``, a CRC-chained record per round; ``updates.seg``, the
append-only stream of the updates the rounds fused; and one checkpoint,
``v0``. The server's state is its config, whose ``expected_parties`` are the
only parties it serves, plus what the log rebuilds, so ``ServerCore.recover``
restores all of it after a crash, its window of recent versions included;
the log also replays coalitions for contribution measurement. A round
commits in two durable appends: its frames go to ``updates.seg`` in one
write and one fsync, and only then its record, whose ``updates=`` field
names each frame by offset, length and CRC32, goes to ``rounds.log`` with a
second fsync. Every later version is derived from ``v0`` by one walk over the log
(``RoundLog.replay``), which checks each replayed round against its logged
block CRCs and keeps the versions the round's logged ``history_window=``
kept. A ``RoundLog`` is a view of a checked prefix of ``rounds.log``: it
checks the file once, when it opens, and holds only the last record and the
prefix's length, so its memory does not grow with the rounds it has logged.
Every read streams that prefix again, and the writer's appends extend it.
"""

from __future__ import annotations

import io
import os
import re
import socket
import socketserver
import threading
import time
import zlib
from dataclasses import dataclass

from flmm.aggregation import ASYNC_MIX, AggregationPlan, ClientUpdate, aggregate
from flmm.contribution import LoggedRound
from flmm.errors import (
    AuthError,
    ConfigError,
    DuplicateError,
    FlmmError,
    HistoryError,
    MaskingError,
    PlanError,
    ProtocolError,
    StalenessError,
    UsedLogError,
    ValidationError,
)
from flmm.model import ModelSnapshot, blocks_field, frozen_checksum, load_snapshot, \
    save_snapshot
from flmm.protocol import Message, decode_payload, encode_message, message_update, \
    pack_blocks, read_frame, update_message


@dataclass
class RoundState:
    """The open round: what it has received, until ``close_round``."""

    round: int
    received: dict  # party -> ClientUpdate
    opened_at: float


def valid_party_id(party: str) -> bool:
    """Non-empty, without whitespace or the round log's separators ,:="""
    return bool(party) and not any(c.isspace() or c in ",:=" for c in party)


@dataclass(frozen=True)
class ServerConfig:
    token: str
    plan: AggregationPlan
    rounds: int
    expected_parties: tuple  # the run's parties; every round waits for them
    deadline: float = 60.0
    history_window: int = 16

    def __post_init__(self):
        if not self.expected_parties:
            raise ConfigError("a server needs at least one expected party")
        for party in self.expected_parties:
            if not valid_party_id(party):
                raise ConfigError(f"party id {party!r} cannot go in the round log")


def _durable_append(path: str, data: bytes) -> int:
    """Append ``data`` to ``path`` and fsync it; returns the offset it starts
    at. It counts once fsynced: a write or fsync that raises cuts the file
    back to its old size."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666)
    try:
        size = os.lseek(fd, 0, os.SEEK_END)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
        except BaseException:
            os.ftruncate(fd, size)  # bytes that are not durable are not logged
            raise
    finally:
        os.close(fd)
    return size


_SPAN = re.compile(r"(\d+):(\d+):([0-9a-f]{8})")  # offset:length:crc of a frame


def _contributors(fields: dict) -> list:
    """The parties a round record names, in its ``contributors=`` order."""
    return [kv.split(":")[0] for kv in fields["contributors"].split(",") if kv]


# the fields of an ok record that ``replay`` reads beside its plan
_REPLAYED = ("blocks", "post_version", "history_window", "contributors", "updates")


def _checked(i: int, fields: dict) -> dict:
    """``fields``, parsed from line ``i``, if they hold what every reader
    reads: an integer ``round`` and a ``status``, and for an ok round the
    ``_REPLAYED`` fields, its window a count; else HistoryError."""
    where = f"round log line {i}"
    if not fields.get("round", "").isdecimal():
        raise HistoryError(f"{where}: no integer round")
    if "status" not in fields:
        raise HistoryError(f"{where}: no status")
    if fields["status"] == "ok":
        missing = [k for k in _REPLAYED if k not in fields]
        if missing:
            raise HistoryError(f"{where}: ok round with no {missing[0]}")
        if not fields["history_window"].isdecimal():
            raise HistoryError(f"{where}: history_window is not a count")
    return fields


def recent(window: dict, history_window: int) -> dict:
    """The last ``history_window`` + 1 versions of ``window``."""
    oldest = max(window) - history_window
    return {v: m for v, m in window.items() if v >= oldest}


class RoundLog:
    """The stored state of a run in ``log_dir``: ``rounds.log``, the
    append-only CRC-chained round records; ``updates.seg``, the append-only
    stream of the update frames those records name; and ``v0``'s checkpoint.
    A record's ``updates=`` field holds ``offset:length:crc`` per contributor,
    in ``contributors=`` order, for that party's SUBMIT frame (empty token) in
    ``updates.seg``, and its ``history_window=`` the server's window.

    A RoundLog is a view of a checked prefix of ``rounds.log``. When it
    opens, it checks the whole file once, as ``verify`` does, and keeps only
    ``tail``, the last record, and ``size``, the bytes it checked; it holds
    nothing per round. ``verify`` and ``replay`` stream that prefix again and
    read no byte written after the view opened, so a reader sees what it saw
    at open; a reader that must see later writes opens a new RoundLog. The
    writer's ``append`` chains from ``tail`` and extends the prefix.
    A RoundLog holds no model: ``checkpoint_bytes`` reads ``v0`` from its
    file, and ``replay`` derives every later version from the files. Only
    the writer (``ServerCore``) creates files; a reader creates nothing.
    """

    def __init__(self, log_dir: str):
        self.dir = log_dir
        self.path = os.path.join(log_dir, "rounds.log")
        self.seg_path = os.path.join(log_dir, "updates.seg")
        # the bytes of rounds.log this view has checked, and its last record,
        # which the next one chains from
        self.size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        self.tail = None
        for record in self._scan(self.size):
            self.tail = record

    def append(self, fields: dict) -> None:
        """Append one record chained to ``tail``, durably
        (``_durable_append``); only then does it become the tail."""
        prev = self.tail["crc"] if self.tail else "00000000"
        record = {k: str(v) for k, v in fields.items()}
        record["prev_crc"] = prev
        body = " ".join(f"{k}={v}" for k, v in record.items())
        record["crc"] = f"{zlib.crc32(body.encode()):08x}"
        line = f"{body} crc={record['crc']}\n".encode()
        offset = _durable_append(self.path, line)
        self.tail, self.size = record, offset + len(line)

    def append_updates(self, updates) -> str:
        """Append ``updates`` to ``updates.seg`` as their SUBMIT frames, with
        an empty token, in one durable write (``_durable_append``); returns
        the ``updates=`` field a record names them by."""
        frames = [encode_message(update_message(u, "")) for u in updates]
        offset = _durable_append(self.seg_path, b"".join(frames))
        ranges = []
        for frame in frames:
            ranges.append(f"{offset}:{len(frame)}:{zlib.crc32(frame):08x}")
            offset += len(frame)
        return ",".join(ranges)

    def verify(self) -> list:
        """The records of this view's prefix, each checked again as at open."""
        return list(self._records())

    def _records(self):
        """Stream the records of this view's prefix; HistoryError if it no
        longer ends at ``tail``, because rounds.log changed under the view."""
        last = None
        for last in self._scan(self.size):
            yield last
        if (last and last["crc"]) != (self.tail and self.tail["crc"]):
            raise HistoryError("rounds.log changed since this view of it opened")

    def _scan(self, size: int):
        """Stream the records in the first ``size`` bytes of rounds.log,
        checking per-line CRCs, the chain, and the fields every reader reads
        (``_checked``)."""
        if not size or not os.path.exists(self.path):
            return
        prev = 0
        end = 0
        with open(self.path, "rb") as f:
            for i, raw in enumerate(f):
                if end >= size:
                    return
                raw = raw[:size - end]
                end += len(raw)
                line = raw.rstrip(b"\n")
                if not line:
                    continue
                body, _, crc_field = line.rpartition(b" crc=")
                if not body:
                    raise HistoryError(f"round log line {i}: no crc field")
                if f"{zlib.crc32(body):08x}".encode() != crc_field:
                    raise HistoryError(f"round log line {i}: CRC mismatch")
                try:
                    fields = dict(kv.split("=", 1) for kv in body.decode().split(" "))
                    chained = int(fields["prev_crc"], 16) == prev
                except (KeyError, ValueError) as e:
                    raise HistoryError(f"round log line {i}: cannot parse") from e
                if not chained:
                    raise HistoryError(f"round log line {i}: broken chain")
                fields["crc"] = crc_field.decode()
                prev = int(crc_field, 16)
                yield _checked(i, fields)

    def save_checkpoint(self, snapshot: ModelSnapshot) -> None:
        """Write ``v0``, the one checkpoint file."""
        data = save_snapshot(snapshot)
        path = self._ckpt_path(snapshot.version)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            f.write(data)

    def checkpoint_bytes(self) -> bytes:
        """The bytes of ``v0``'s checkpoint file."""
        try:
            with open(self._ckpt_path(0), "rb") as f:
                return f.read()
        except FileNotFoundError:
            raise HistoryError("no checkpoint for version 0") from None

    def replay(self):
        """The one walk over the records, from ``v0``: yields ``(None,
        window)`` at ``v0``, then ``(LoggedRound, window)`` after each ok
        round. Each such round loads its updates once and ``aggregate``s
        them into the newest version under its logged plan, as
        ``close_round`` did; one that does not reproduce its logged
        ``blocks=`` and ``post_version`` raises HistoryError naming it.
        ``window`` then keeps the ``recent`` versions of the round's logged
        ``history_window``, as the server's did."""
        window = {0: load_snapshot(self.checkpoint_bytes())}
        yield None, window
        for fields in self._records():
            if fields["status"] != "ok":
                continue
            r = int(fields["round"])
            rec = LoggedRound(round=r, plan=_logged_plan(fields),
                              updates=tuple(self.load_update(fields, p)
                                            for p in _contributors(fields)),
                              blocks=fields["blocks"])
            wrong = (f"round {r}: replaying its logged updates does not reproduce "
                     f"the blocks logged in round {r}")
            try:
                model = aggregate(rec.plan, window[max(window)], rec.updates, window)
            except (KeyError, ValueError, FlmmError) as e:
                raise HistoryError(f"{wrong}: {e!r}") from e
            if (blocks_field(model), str(model.version)) != \
                    (rec.blocks, fields["post_version"]):
                raise HistoryError(wrong)
            window = recent({**window, model.version: model},
                            int(fields["history_window"]))
            yield rec, window

    def _ckpt_path(self, version: int) -> str:
        return os.path.join(self.dir, "checkpoints", f"v{version}.ckpt")

    def load_update(self, record: dict, party: str) -> ClientUpdate:
        """The update ``party`` gave in the round of ``record`` (a record of
        this log), read from ``updates.seg``. A range that the record does
        not name, that runs past the end of the stream or fails its CRC, a
        frame that is malformed, does not fill its range, or names another
        party, raises HistoryError naming the round and the party."""
        where = f"logged update for round {record['round']} party {party!r}"
        parties = _contributors(record)
        spans = record["updates"].split(",")
        span = None
        if party in parties and len(spans) == len(parties):
            span = _SPAN.fullmatch(spans[parties.index(party)])
        if span is None:
            raise HistoryError(f"no {where}")
        offset, length, crc = int(span[1]), int(span[2]), span[3]
        try:
            with open(self.seg_path, "rb") as f:
                f.seek(offset)
                data = f.read(length)
        except OSError as e:
            raise HistoryError(f"{where}: {e}") from e
        if len(data) != length:
            raise HistoryError(f"{where} runs past the end of updates.seg")
        if f"{zlib.crc32(data):08x}" != crc:
            raise HistoryError(f"{where} fails its CRC")
        frame = io.BytesIO(data)
        try:
            update = message_update(read_frame(frame))
        except (ProtocolError, ValidationError) as e:
            raise HistoryError(f"{where}: {e}") from e
        if frame.tell() != length:
            raise HistoryError(f"{where} has bytes after its frame")
        if update.client_id != party:
            raise HistoryError(f"{where} names party {update.client_id!r}")
        return update

    def logged_rounds(self, plan: AggregationPlan | None = None) -> list:
        """Successful rounds with their updates and the plan each ran with,
        for coalition replay. ``replay`` reads them, so each round has
        reproduced the blocks it logged: the updates on disk trained the
        logged model. A ``plan``, if given, must be the logged one."""
        rounds = [rec for rec, _ in self.replay() if rec is not None]
        for rec in rounds:
            if plan is not None and rec.plan != plan:
                raise HistoryError(f"round {rec.round} ran with {rec.plan}, not {plan}")
        return rounds


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
    """Protocol-level request handler; shared by socket and in-process use.
    A new core starts one run in a directory whose log holds no record;
    ``recover`` resumes a logged one. ``window`` holds the last
    ``history_window`` + 1 versions, which ``async_mix`` mixes stale
    updates against; its newest version is the current model."""

    def __init__(self, cfg: ServerConfig, initial: ModelSnapshot, log_dir: str,
                 clock=time.monotonic):
        log = RoundLog(log_dir)
        if log.tail is not None:  # checked before v0 is rewritten
            raise UsedLogError(f"{log_dir} already holds a run's round log; "
                               f"start a new run in an empty directory")
        log.save_checkpoint(initial)
        self._attach(cfg, log, {initial.version: initial}, clock)
        self.state = self._open_round(0)

    def _attach(self, cfg: ServerConfig, log: RoundLog, window: dict, clock) -> None:
        self.cfg = cfg
        self.clock = clock
        self.lock = threading.RLock()
        self.log = log
        self.window = window  # version -> snapshot
        # every version shares the frozen base and the block shapes, so both
        # are taken once
        self.base_checksum = f"{frozen_checksum(self.snapshot):08x}"
        self._block_shapes = {n: m.shape for n, m in self.snapshot.blocks.items()}
        self._assign_body = None  # (version, block names, body, body crc)

    @property
    def snapshot(self) -> ModelSnapshot:
        """The current model: the newest version in the window."""
        return self.window[max(self.window)]

    # -- lifecycle ----------------------------------------------------------

    def _open_round(self, round_num: int) -> RoundState:
        return RoundState(round=round_num, received={}, opened_at=self.clock())

    @property
    def finished(self) -> bool:
        return self.state.round >= self.cfg.rounds

    @classmethod
    def recover(cls, cfg: ServerConfig, log_dir: str, clock=time.monotonic):
        """Rebuild server state from the round log after a crash: every ok
        round is replayed from ``v0`` and checked against its logged blocks
        (``RoundLog.replay``), which also refills the window."""
        log = RoundLog(log_dir)
        for _, window in log.replay():
            pass  # each round is checked; only the last window is kept
        next_round = int(log.tail["round"]) + 1 if log.tail else 0
        core = cls.__new__(cls)
        core._attach(cfg, log, recent(window, cfg.history_window), clock)
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
                    self._auth(msg)
                    return self._respond("ACK")
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

    def _auth(self, msg: Message) -> str:
        """The requesting party, which must hold the token and be one of the
        run's parties."""
        party = msg.header("party")
        if msg.header("token") != self.cfg.token:
            raise AuthError(f"bad token for party {party!r}")
        if party not in self.cfg.expected_parties:
            raise AuthError(f"party {party!r} is not in this run")
        return party

    def _poll(self, msg: Message) -> Message:
        party = self._auth(msg)
        st = self.state
        if self.finished or party in st.received:
            return self._respond("NOTASK", {"finished": "1" if self.finished else "0"})
        deadline_left = max(0.0, self.cfg.deadline - (self.clock() - st.opened_at))
        _, names, body, crc = self._adapter_body()
        return self._respond("ASSIGN", {"deadline": f"{deadline_left:.3f}",
                                        "base": self.base_checksum, "blocks": names,
                                        "crc": crc}, body)

    def _adapter_body(self) -> tuple:
        """The current version's trainable blocks, packed once per version."""
        if self._assign_body is None or self._assign_body[0] != self.snapshot.version:
            names, body = pack_blocks(self.snapshot.blocks)
            self._assign_body = (self.snapshot.version, names, body,
                                 f"{zlib.crc32(body):08x}")
        return self._assign_body

    def _submit(self, msg: Message) -> Message:
        party = self._auth(msg)
        st = self.state
        if self.finished:
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
        current = self.snapshot.version
        oldest = max(0, current - self.cfg.history_window) if mixing else current
        if not oldest <= update.base_version <= current:
            raise StalenessError(f"update base {update.base_version} outside versions "
                                 f"{oldest}..{current}; refetch")
        st.received[party] = update
        if mixing or st.received.keys() >= set(self.cfg.expected_parties):
            self.close_round()
        return self._respond("ACK")

    def _fetch(self, msg: Message) -> Message:
        self._auth(msg)
        return self._respond("MODEL", body=self.log.checkpoint_bytes())

    # -- aggregation --------------------------------------------------------

    def _check_deadline(self) -> None:
        st = self.state
        if (st.received and self.cfg.plan.strategy != ASYNC_MIX
                and self.clock() - st.opened_at > self.cfg.deadline):
            absent = set(self.cfg.expected_parties) - st.received.keys()
            self.close_round(absent=tuple(sorted(absent)))

    def close_round(self, absent: tuple = ()) -> None:
        """Append the received updates to ``updates.seg``, fuse them, log the
        round's record, and only then install the new version; a round that
        fails at any step changes no model. ``absent`` names the expected
        parties the deadline closed it without."""
        st = self.state
        updates = sorted(st.received.values(), key=lambda u: u.client_id)
        started = self.clock()
        logged = ""  # the updates= field, once the frames are durable
        try:  # a failed write fails the round
            logged = self.log.append_updates(updates)
            if self.cfg.plan.masking_enabled and absent:
                raise MaskingError(f"absent {','.join(absent)}: their pair "
                                   f"masks would not cancel")
            model = aggregate(self.cfg.plan, self.snapshot, updates, self.window)
            self._append_round_record(updates, logged, absent, model, started)
        except Exception as e:  # failed rounds leave the model untouched
            self._append_round_record(updates, logged, absent, self.snapshot, started,
                                      reason=type(e).__name__)
        else:
            self.window = recent({**self.window, model.version: model},
                                 self.cfg.history_window)
        self.state = self._open_round(st.round + 1)

    def _append_round_record(self, updates, logged: str, absent: tuple,
                             model: ModelSnapshot, started: float,
                             reason: str = "") -> None:
        """Log the round as ok on ``model``, the fused version, or with a
        ``reason`` as failed on ``model``, the unchanged current one.
        ``logged`` is ``append_updates``'s field for ``updates``."""
        plan = self.cfg.plan
        fields = {
            "round": self.state.round,
            "strategy": plan.strategy,
            "block_mask": ",".join(sorted(plan.block_mask)),
            "mixing_rate": repr(plan.mixing_rate),
            "staleness_exponent": repr(plan.staleness_exponent),
            "masked": int(plan.masking_enabled),
            "history_window": self.cfg.history_window,
            "contributors": ",".join(f"{u.client_id}:{u.sample_count}" for u in updates),
            "updates": logged,
            "absent": ",".join(absent),
            "blocks": "" if reason else blocks_field(model),
            "pre_version": self.snapshot.version,
            "post_version": model.version,
            "metric": "NA",
            "duration": f"{self.clock() - started:.6f}",
            "status": "failed" if reason else "ok",
        }
        if reason:
            fields["reason"] = reason
        self.log.append(fields)


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
