"""Client agent: each step polls, trains the model an ASSIGN names and
submits its update.

A step has two halves around its training: ``take`` polls and turns an
ASSIGN into a TrainingJob, and ``finish`` turns the trained model into an
update and submits it. ``step`` trains the job's one row with local_train
in between; the in-process driver takes every agent's job for a pass
first and trains them in one stacked local_train call.

The agent only ever initiates requests; its transport may be a real socket
or an in-process shim, both speaking the same frames. The model to train
arrives with each ASSIGN as trainable blocks only; the frozen base is fetched
once and kept, and the party's corpus is prepared for training once per base.
"""

from __future__ import annotations

import socket
import threading
import time
import zlib
from dataclasses import dataclass, replace

from flmm.config import PartyConfig, ScenarioConfig
from flmm.dataquality import SceneRecord
from flmm.errors import AuthError, IdentityError, ProtocolError, TransportError
from flmm.model import ModelSnapshot, frozen_checksum, load_snapshot, with_blocks
from flmm.privacy import apply_pairwise_masks, gaussian_mechanism
from flmm.protocol import Message, decode_payload, encode_message, read_frame, \
    unpack_blocks, update_message
from flmm.rng import hash_text, mix_seed
from flmm.training import TrainConfig, TrainingSet, local_train, make_update, \
    training_set

_DP_SALT = 0xD9
_MASK_SALT = 0x3A5C
_POLL_INTERVAL = 0.05  # seconds an idle cycle of run_client_loop sleeps
_MAX_IDLE_POLLS = 2400  # idle cycles before run_client_loop gives up
_BASE_DELAY = 0.1  # seconds SocketTransport.send sleeps after a first failure
_MAX_DELAY = 5.0  # the cap its doubling sleep reaches
_MAX_ATTEMPTS = 10  # attempts before send raises TransportError


class InProcessTransport:
    """Routes frames straight into a ServerCore, still via encode/decode."""

    def __init__(self, core):
        self.core = core

    def send(self, msg: Message) -> Message:
        payload = encode_message(msg)[4:]
        return decode_payload(self.core.handle_bytes(payload))


class SocketTransport:
    """One connection, reused for every request and reopened after a failure,
    with bounded exponential-backoff retry.

    The connection is opened on the first ``send``. A lock serialises
    requests, so one transport may be shared between threads. Between failed
    attempts ``send`` sleeps ``_BASE_DELAY``, doubling up to ``_MAX_DELAY``;
    after ``_MAX_ATTEMPTS`` it raises TransportError without sleeping.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._lock = threading.Lock()
        self._sock = None
        self._rfile = None

    def send(self, msg: Message) -> Message:
        delay = _BASE_DELAY
        last = None
        with self._lock:
            for attempt in range(1, _MAX_ATTEMPTS + 1):
                try:
                    if self._sock is None:
                        self._sock = socket.create_connection(
                            (self.host, self.port), timeout=30)
                        self._rfile = self._sock.makefile("rb")
                    self._sock.sendall(encode_message(msg))
                    return read_frame(self._rfile)
                except (OSError, ProtocolError) as e:
                    last = e
                    self._close()
                    if attempt < _MAX_ATTEMPTS:
                        time.sleep(delay)
                        delay = min(_MAX_DELAY, delay * 2)
        raise TransportError(f"{self.host}:{self.port} unreachable: {last}")

    def close(self) -> None:
        with self._lock:
            self._close()

    def _close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None


@dataclass(frozen=True, eq=False)
class TrainingJob:
    """What one ASSIGN asks of an agent: train ``model``, the round's
    assigned snapshot, on ``data`` under ``cfg`` with ``seed``."""

    round: int
    model: ModelSnapshot
    data: TrainingSet
    cfg: TrainConfig
    seed: int


class ClientAgent:
    """One party: polls, trains the model an ASSIGN names, submits its update.

    An ASSIGN carries the round's trainable blocks (``blocks`` names them,
    ``crc`` is the CRC32 of the body) and ``base``, the frozen-weight
    checksum they belong to. A FETCH carries no version and returns ``v0``'s
    checkpoint; the agent keeps it as ``base`` and rebuilds each round's
    model from its frozen weights and the ASSIGN's version and blocks. It
    FETCHes again only when ``base`` changes; a base that still differs
    after that raises IdentityError, and a body that fails its CRC raises
    before anything is submitted. Its records are prepared as a TrainingSet
    at the first ASSIGN it takes after each FETCH.
    """

    def __init__(self, cfg: ScenarioConfig, party: PartyConfig,
                 records: list[SceneRecord], transport):
        self.cfg = cfg
        self.party = party
        self.records = records
        self.transport = transport
        self.base: ModelSnapshot | None = None
        self.base_checksum = ""  # hex frozen_checksum of base
        self._block_shapes: dict = {}
        self._inputs: TrainingSet | None = None  # records prepared for base
        self.finished_round: int | None = None  # set by a NOTASK saying finished

    def _request(self, msg_type: str) -> Message:
        return self.transport.send(Message(
            msg_type, {"party": self.party.party_id, "token": self.cfg.token}))

    def register(self) -> Message:
        return self._request("REGISTER")

    def step(self) -> str:
        """One poll cycle: ``take``, train the job's one row, ``finish``.
        Returns "NOTASK", "REJECT" (the POLL's or the SUBMIT's) or "ACK"; an
        agent whose step raised simply steps again."""
        job = self.take()
        if isinstance(job, str):
            return job
        return self.finish(job, local_train(job.model, job.data, job.cfg, job.seed))

    def take(self) -> TrainingJob | str:
        """POLL; an ASSIGN becomes the TrainingJob it asks for, and anything
        else "NOTASK" or "REJECT"."""
        resp = self._request("POLL")
        if resp.msg_type == "NOTASK":
            if resp.headers.get("finished") == "1":
                self.finished_round = int(resp.header("round"))
            return "NOTASK"
        if resp.msg_type == "REJECT":
            return "REJECT"
        if resp.msg_type != "ASSIGN":
            raise ProtocolError(f"unexpected poll response {resp.msg_type}")
        round_num = int(resp.header("round"))
        model = self._assigned_model(resp)
        if self._inputs is None:
            self._inputs = training_set(model, self.records)
        return TrainingJob(round=round_num, model=model, data=self._inputs,
                           cfg=replace(self.cfg.train, anchor_mu=self.party.anchor_mu),
                           seed=mix_seed(self.cfg.seed, round_num,
                                         hash_text(self.party.party_id)))

    def finish(self, job: TrainingJob, trained: ModelSnapshot) -> str:
        """Submit ``trained``, the job's model after training, as this
        party's update, with DP noise and pairwise masks when the run has
        them. Returns "ACK" or "REJECT"."""
        party = self.party.party_id
        update = make_update(job.model, trained, party, len(job.data), job.round)
        if self.cfg.privacy.dp_enabled:
            update = gaussian_mechanism(
                update, self.cfg.privacy,
                mix_seed(self.cfg.seed, _DP_SALT, job.round, hash_text(party)))
        if self.cfg.plan.masking_enabled:
            update = apply_pairwise_masks(
                update, list(self.cfg.party_ids()),
                mix_seed(self.cfg.seed, _MASK_SALT, job.round))
        ack = self.transport.send(update_message(update, self.cfg.token))
        return "ACK" if ack.msg_type == "ACK" else "REJECT"

    def _fetch(self) -> ModelSnapshot:
        resp = self._request("FETCH")
        if resp.msg_type != "MODEL":
            raise ProtocolError(f"fetch failed: {resp.headers.get('reason')}")
        return load_snapshot(resp.body)

    def _assigned_model(self, assign: Message) -> ModelSnapshot:
        """The snapshot an ASSIGN names: the kept frozen base plus its blocks."""
        version = int(assign.header("version"))
        if assign.header("base") != self.base_checksum:
            self.base = self._fetch()
            self._inputs = None
            self.base_checksum = f"{frozen_checksum(self.base):08x}"
            self._block_shapes = {n: m.shape for n, m in self.base.blocks.items()}
            if assign.header("base") != self.base_checksum:
                raise IdentityError(
                    f"ASSIGN base {assign.header('base')} != fetched base "
                    f"{self.base_checksum}")
        if f"{zlib.crc32(assign.body):08x}" != assign.header("crc"):
            raise ProtocolError("ASSIGN body CRC mismatch")
        blocks = unpack_blocks(assign.header("blocks"), assign.body)
        if {n: m.shape for n, m in blocks.items()} != self._block_shapes:
            raise ProtocolError("ASSIGN blocks do not match the base's trainable blocks")
        return with_blocks(self.base, blocks, version)


def run_client_loop(agent: ClientAgent) -> int:
    """Register, then step until the server reports the run finished;
    returns round count. A refused REGISTER raises AuthError with the
    server's reason.

    Each cycle is one ``step``, so one POLL; a cycle that submits nothing
    accepted sleeps ``_POLL_INTERVAL`` and counts as idle.
    """
    resp = agent.register()
    if resp.msg_type != "ACK":
        raise AuthError(f"register refused: {resp.headers.get('reason')}")
    idle = 0
    while idle < _MAX_IDLE_POLLS:
        if agent.step() == "ACK":
            idle = 0
        elif agent.finished_round is not None:
            return agent.finished_round
        else:
            idle += 1
            time.sleep(_POLL_INTERVAL)
    raise TransportError("server never finished the run")
