"""Client agent: poll -> train -> package -> submit state machine.

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

from flmm.config import PartyConfig, ScenarioConfig
from flmm.dataquality import SceneRecord
from flmm.errors import FlmmError, IdentityError, ProtocolError, TransportError
from flmm.model import ModelSnapshot, frozen_checksum, load_snapshot, snapshot_blocks, \
    with_blocks
from flmm.privacy import apply_pairwise_masks, gaussian_mechanism
from flmm.protocol import Message, encode_message, read_frame, unpack_blocks, \
    update_message
from flmm.rng import hash_text, mix_seed
from flmm.training import TrainConfig, TrainingSet, local_train, make_update, \
    training_set

PHASES = ("idle", "training", "submitting", "waiting")
_ALLOWED = {
    ("idle", "training"),
    ("training", "submitting"),
    ("submitting", "waiting"),
    ("submitting", "idle"),
    ("waiting", "idle"),
}

_DP_SALT = 0xD9
_MASK_SALT = 0x3A5C


class StateMachineViolation(FlmmError):
    pass


class InProcessTransport:
    """Routes frames straight into a ServerCore, still via encode/decode."""

    def __init__(self, core):
        self.core = core

    def send(self, msg: Message) -> Message:
        from flmm.protocol import decode_payload
        payload = encode_message(msg)[4:]
        return decode_payload(self.core.handle_bytes(payload))


class SocketTransport:
    """One connection, reused for every request and reopened after a failure,
    with bounded exponential-backoff retry.

    The connection is opened on the first ``send``. A lock serialises
    requests, so one transport may be shared between threads. Between failed
    attempts ``send`` sleeps ``base_delay``, doubling up to ``max_delay``;
    after the last one it raises TransportError without sleeping.
    """

    def __init__(self, host: str, port: int, base_delay: float = 0.1,
                 max_delay: float = 5.0, max_attempts: int = 10):
        self.host = host
        self.port = port
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.max_attempts = max_attempts
        self._lock = threading.Lock()
        self._sock = None
        self._rfile = None

    def send(self, msg: Message) -> Message:
        delay = self.base_delay
        last = None
        with self._lock:
            for attempt in range(1, self.max_attempts + 1):
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
                    if attempt < self.max_attempts:
                        time.sleep(delay)
                        delay = min(self.max_delay, delay * 2)
        raise TransportError(f"{self.host}:{self.port} unreachable: {last}")

    def close(self) -> None:
        with self._lock:
            self._close()

    def _close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = None


class ClientAgent:
    """One party: polls, trains the model an ASSIGN names, submits its update.

    An ASSIGN carries the round's trainable blocks (``blocks`` names them,
    ``crc`` is the CRC32 of the body) and ``base``, the frozen-weight
    checksum they belong to. The agent keeps ``base``, the snapshot of its
    first FETCH, and rebuilds each round's model from its frozen weights and
    the ASSIGN's blocks. It FETCHes again only when ``base`` changes; a base
    that still differs after that raises IdentityError, and a body that fails
    its CRC raises before anything is submitted. Its records are prepared as
    a TrainingSet at the first training after each FETCH.
    """

    def __init__(self, cfg: ScenarioConfig, party: PartyConfig,
                 records: list[SceneRecord], transport):
        self.cfg = cfg
        self.party = party
        self.records = records
        self.transport = transport
        self.phase = "idle"
        self.base: ModelSnapshot | None = None
        self.base_checksum = ""  # hex frozen_checksum of base
        self._block_shapes: dict = {}
        self._inputs: TrainingSet | None = None  # records prepared for base
        self.last_round = -1
        self.finished_round: int | None = None  # set by a NOTASK saying finished

    def _transition(self, new: str) -> None:
        if (self.phase, new) not in _ALLOWED:
            raise StateMachineViolation(f"{self.phase} -> {new}")
        self.phase = new

    def _request(self, msg_type: str, headers: dict | None = None,
                 body: bytes = b"") -> Message:
        h = {"party": self.party.party_id, "token": self.cfg.token}
        h.update(headers or {})
        return self.transport.send(Message(msg_type, h, body))

    def register(self) -> Message:
        return self._request("REGISTER")

    def step(self) -> str:
        """One poll cycle; returns the response type observed."""
        resp = self._request("POLL")
        if resp.msg_type == "NOTASK":
            if resp.headers.get("finished") == "1":
                self.finished_round = int(resp.header("round"))
            if self.phase == "waiting" and int(resp.header("round")) != self.last_round:
                self._transition("idle")
            return "NOTASK"
        if resp.msg_type == "REJECT":
            return "REJECT"
        if resp.msg_type != "ASSIGN":
            raise ProtocolError(f"unexpected poll response {resp.msg_type}")
        if self.phase == "waiting":
            self._transition("idle")  # new round observed
        round_num = int(resp.header("round"))
        self._transition("training")
        try:
            update = self._train(round_num, self._assigned_model(resp))
            self._transition("submitting")
            ack = self._submit(update)
        except FlmmError:
            self.phase = "idle"
            raise
        if ack.msg_type == "ACK":
            self.last_round = round_num
            self._transition("waiting")
            return "ACK"
        self._transition("idle")  # REJECT: retry with the next ASSIGN
        return "REJECT"

    def _fetch(self, version: int) -> ModelSnapshot:
        resp = self._request("FETCH", {"version": version})
        if resp.msg_type != "MODEL":
            raise ProtocolError(f"fetch failed: {resp.headers.get('reason')}")
        return load_snapshot(resp.body)

    def _assigned_model(self, assign: Message) -> ModelSnapshot:
        """The snapshot an ASSIGN names: the kept frozen base plus its blocks."""
        version = int(assign.header("version"))
        if assign.header("base") != self.base_checksum:
            self.base = self._fetch(version)
            self._inputs = None
            self.base_checksum = f"{frozen_checksum(self.base):08x}"
            self._block_shapes = {n: m.shape
                                  for n, m in snapshot_blocks(self.base).items()}
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

    def _train(self, round_num: int, model: ModelSnapshot):
        if self._inputs is None:
            self._inputs = training_set(model, self.records)
        train_cfg = TrainConfig(
            epochs=self.cfg.train.epochs, lr=self.cfg.train.lr,
            batch_size=self.cfg.train.batch_size,
            anchor_mu=self.party.anchor_mu)
        seed = mix_seed(self.cfg.seed, round_num, hash_text(self.party.party_id))
        trained = local_train(model, self._inputs, train_cfg, seed)
        update = make_update(model, trained, self.party.party_id,
                             len(self._inputs), round_num)
        if self.cfg.privacy.dp_enabled:
            update = gaussian_mechanism(
                update, self.cfg.privacy,
                mix_seed(self.cfg.seed, _DP_SALT, round_num,
                         hash_text(self.party.party_id)))
        if self.cfg.privacy.masking_enabled:
            update = apply_pairwise_masks(
                update, list(self.cfg.party_ids()),
                mix_seed(self.cfg.seed, _MASK_SALT, round_num))
        return update

    def _submit(self, update) -> Message:
        return self.transport.send(update_message(update, self.cfg.token))


def run_client_loop(agent: ClientAgent, poll_interval: float = 0.05,
                    max_idle_polls: int = 2400) -> int:
    """Step until the server reports the run finished; returns round count.

    Each cycle is one ``step``, so one POLL; a cycle that submits nothing
    accepted sleeps ``poll_interval`` and counts as idle.
    """
    agent.register()
    idle = 0
    while idle < max_idle_polls:
        if agent.step() == "ACK":
            idle = 0
        elif agent.finished_round is not None:
            return agent.finished_round
        else:
            idle += 1
            time.sleep(poll_interval)
    raise TransportError("server never finished the run")
