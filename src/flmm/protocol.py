"""Length-prefixed wire protocol shared by server and clients.

Frame: u32 LE payload length, then payload
  line 1: ``FLMM/1 <MSGTYPE>``
  ``key: value`` header lines, blank line, optional binary body.

Every request carries ``party`` and ``token`` headers; every response
carries ``round`` and ``version``. Matrix bodies reuse the checkpoint
block encoding, ``model.pack_matrix`` (u32 rows, u32 cols, row-major f64
LE), with a ``blocks`` header naming them in order.

An ASSIGN carries the assigned version's trainable blocks as its body, with
``blocks``, ``crc`` (CRC32 of the body, 8 hex digits) and ``base`` (the
hex ``model.frozen_checksum`` of the frozen weights the blocks belong to).
A SUBMIT carries the client's deltas the same way, with ``base_version``,
``sample_count`` and ``round`` headers: update_message writes it and
message_update reads it back, for the client, the server and the round log,
whose ``updates.seg`` stream holds SUBMIT frames with an empty token. A
MODEL, the answer to FETCH, is ``v0``'s whole checkpoint, whatever the round:
a FETCH names no version, and a client fetches only to get the frozen base,
at start-up or when ``base`` changes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from flmm.aggregation import ClientUpdate
from flmm.errors import NumericError, PlanError, ProtocolError, ShapeError, \
    ValidationError
from flmm.model import check_unstacked, pack_matrix

PROTO = "FLMM/1"
MSG_TYPES = ("REGISTER", "POLL", "ASSIGN", "SUBMIT", "ACK", "REJECT",
             "FETCH", "MODEL", "NOTASK")

MAX_FRAME = 64 * 1024 * 1024


@dataclass
class Message:
    msg_type: str
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    def header(self, key: str) -> str:
        if key not in self.headers:
            raise ProtocolError(f"missing header {key!r} in {self.msg_type}")
        return self.headers[key]

    def int_header(self, key: str) -> int:
        try:
            return int(self.header(key))
        except ValueError:
            raise ProtocolError(
                f"{self.msg_type} header {key!r} is not an integer") from None


def encode_message(msg: Message) -> bytes:
    if msg.msg_type not in MSG_TYPES:
        raise ProtocolError(f"unknown message type {msg.msg_type!r}")
    lines = [f"{PROTO} {msg.msg_type}"]
    for k, v in msg.headers.items():
        if "\n" in str(v) or ":" in k:
            raise ProtocolError(f"illegal header {k!r}")
        lines.append(f"{k}: {v}")
    head = ("\n".join(lines) + "\n\n").encode()
    payload = head + msg.body
    return struct.pack("<I", len(payload)) + payload


def decode_payload(payload: bytes) -> Message:
    sep = payload.find(b"\n\n")
    if sep < 0:
        raise ProtocolError("no header terminator")
    try:
        head = payload[:sep].decode()
    except UnicodeDecodeError as e:
        raise ProtocolError("non-UTF-8 header block") from e
    body = payload[sep + 2:]
    lines = head.split("\n")
    first = lines[0].split(" ")
    if len(first) != 2 or first[0] != PROTO:
        raise ProtocolError(f"bad start line {lines[0]!r}")
    msg_type = first[1]
    if msg_type not in MSG_TYPES:
        raise ProtocolError(f"unknown message type {msg_type!r}")
    headers = {}
    for line in lines[1:]:
        if ": " not in line:
            raise ProtocolError(f"malformed header line {line!r}")
        k, v = line.split(": ", 1)
        headers[k] = v
    return Message(msg_type=msg_type, headers=headers, body=body)


def read_frame(stream) -> Message:
    """Read one frame from a file-like stream; raises on truncation."""
    raw_len = _read_exact(stream, 4)
    (n,) = struct.unpack("<I", raw_len)
    if n > MAX_FRAME:
        raise ProtocolError(f"frame of {n} bytes exceeds limit")
    return decode_payload(_read_exact(stream, n))


def _read_exact(stream, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = stream.read(n - got)
        if not chunk:
            raise ProtocolError(f"truncated frame: wanted {n} bytes, got {got}")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def pack_blocks(blocks: dict) -> tuple[str, bytes]:
    """Serialize named matrices; returns (names header value, body bytes)."""
    check_unstacked(blocks, "wire blocks")
    names = sorted(blocks)
    return ",".join(names), b"".join(pack_matrix(blocks[name]) for name in names)


def unpack_blocks(names_header: str, body: bytes) -> dict:
    """The named matrices ``pack_blocks`` serialized. A body that is cut
    short or runs on, or a block named twice, raises ProtocolError."""
    names = [n for n in names_header.split(",") if n]
    out = {}
    pos = 0
    for name in names:
        if name in out:
            raise ProtocolError(f"block {name!r} named twice")
        if pos + 8 > len(body):
            raise ProtocolError("truncated block body")
        rows, cols = struct.unpack_from("<II", body, pos)
        pos += 8
        nbytes = 8 * rows * cols
        if pos + nbytes > len(body):
            raise ProtocolError(f"truncated matrix for block {name!r}")
        out[name] = np.frombuffer(body, dtype="<f8", count=rows * cols,
                                  offset=pos).reshape(rows, cols).astype(np.float64)
        pos += nbytes
    if pos != len(body):
        raise ProtocolError("trailing bytes after blocks")
    return out


def update_message(update: ClientUpdate, token: str) -> Message:
    """The SUBMIT frame that carries ``update``."""
    names, body = pack_blocks(update.deltas)
    return Message("SUBMIT", {
        "party": update.client_id, "token": token,
        "base_version": update.base_version,
        "sample_count": update.sample_count,
        "round": update.submitted_round, "blocks": names,
    }, body)


def message_update(msg: Message, submitted_round: int | None = None) -> ClientUpdate:
    """The update a SUBMIT carries. A receiver that stamps its own round
    passes it as ``submitted_round``, and the ``round`` header is not read.

    A missing or non-integer header raises ProtocolError; blocks that do not
    decode, or an update ClientUpdate refuses, raise ValidationError.
    """
    party = msg.header("party")
    base_version = msg.int_header("base_version")
    sample_count = msg.int_header("sample_count")
    if submitted_round is None:
        submitted_round = msg.int_header("round")
    try:  # ClientUpdate is the one finiteness and block-name check
        return ClientUpdate(
            client_id=party, base_version=base_version,
            deltas=unpack_blocks(msg.header("blocks"), msg.body),
            sample_count=sample_count, submitted_round=submitted_round)
    except (ProtocolError, NumericError, PlanError, ShapeError) as e:
        raise ValidationError(str(e)) from e
