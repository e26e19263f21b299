import io
import struct

import numpy as np
import pytest

from flmm.aggregation import ClientUpdate
from flmm.errors import ProtocolError, ValidationError
from flmm.model import snapshot_blocks
from flmm.protocol import (
    MAX_FRAME,
    MSG_TYPES,
    Message,
    decode_payload,
    encode_message,
    message_update,
    pack_blocks,
    read_frame,
    unpack_blocks,
    update_message,
)
from flmm.rng import SplitMix64

from support import small_snapshot


def roundtrip(msg: Message) -> Message:
    return read_frame(io.BytesIO(encode_message(msg)))


class TestRoundTrip:
    @pytest.mark.parametrize("msg_type", MSG_TYPES)
    def test_every_message_type(self, msg_type):
        msg = Message(msg_type, {"party": "p1", "token": "t", "round": "3"},
                      body=b"\x00\x01binary\xff")
        out = roundtrip(msg)
        assert out.msg_type == msg_type
        assert out.headers == msg.headers
        assert out.body == msg.body

    def test_empty_headers_and_body(self):
        out = roundtrip(Message("ACK"))
        assert out.headers == {} and out.body == b""

    def test_body_may_contain_header_terminator(self):
        body = b"x\n\ny" * 10
        out = roundtrip(Message("MODEL", {"version": "1"}, body))
        assert out.body == body

    def test_header_values_preserved(self):
        headers = {"k": "v with spaces", "num": "42", "empty": ""}
        assert roundtrip(Message("POLL", headers)).headers == headers

    def test_frame_length_prefix(self):
        raw = encode_message(Message("ACK", {"round": "0"}))
        (n,) = struct.unpack("<I", raw[:4])
        assert n == len(raw) - 4


class TestRejects:
    def test_unknown_type_encode(self):
        with pytest.raises(ProtocolError):
            encode_message(Message("BOGUS"))

    def test_unknown_type_decode(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"FLMM/1 BOGUS\n\n")

    def test_bad_magic(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"HTTP/1.1 ACK\n\n")

    def test_newline_in_header_value(self):
        with pytest.raises(ProtocolError):
            encode_message(Message("ACK", {"k": "a\nb"}))

    def test_colon_in_header_key(self):
        with pytest.raises(ProtocolError):
            encode_message(Message("ACK", {"k:x": "v"}))

    def test_missing_terminator(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"FLMM/1 ACK\nround: 1")

    def test_malformed_header_line(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"FLMM/1 ACK\nnocolon\n\n")

    def test_non_utf8_header(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"FLMM/1 ACK\nk: \xff\xfe\n\n".replace(b"k: \xff\xfe", b"\xff\xfe"))

    def test_missing_header_accessor(self):
        with pytest.raises(ProtocolError):
            roundtrip(Message("ACK")).header("round")


class TestTruncation:
    def full_frame(self):
        return encode_message(Message("SUBMIT", {"party": "p", "round": "2"},
                                      body=b"0123456789"))

    def test_every_prefix_rejected(self):
        raw = self.full_frame()
        for cut in range(len(raw)):
            with pytest.raises(ProtocolError):
                read_frame(io.BytesIO(raw[:cut]))

    def test_oversized_frame_rejected(self):
        raw = struct.pack("<I", MAX_FRAME + 1)
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(raw + b"x"))

    def test_chunked_stream_ok(self):
        raw = self.full_frame()

        class OneByte(io.BytesIO):
            def read(self, n=-1):
                return super().read(1 if n and n > 0 else n)

        out = read_frame(OneByte(raw))
        assert out.msg_type == "SUBMIT" and out.body == b"0123456789"


class TestBlocks:
    def random_blocks(self, seed=1):
        rng = SplitMix64(seed)
        return {
            "vision.a": rng.normal_matrix(2, 8),
            "vision.b": rng.normal_matrix(16, 2),
            "bridge": rng.normal_matrix(16, 16),
        }

    def test_roundtrip_bit_exact(self):
        blocks = self.random_blocks()
        names, body = pack_blocks(blocks)
        out = unpack_blocks(names, body)
        assert set(out) == set(blocks)
        for n in blocks:
            np.testing.assert_array_equal(out[n], blocks[n])

    def test_names_sorted(self):
        names, _ = pack_blocks(self.random_blocks())
        parts = names.split(",")
        assert parts == sorted(parts)

    def test_empty(self):
        names, body = pack_blocks({})
        assert names == "" and body == b""
        assert unpack_blocks(names, body) == {}

    def test_truncated_body(self):
        names, body = pack_blocks(self.random_blocks())
        for cut in (4, len(body) - 1):
            with pytest.raises(ProtocolError):
                unpack_blocks(names, body[:cut])

    def test_trailing_bytes_rejected(self):
        names, body = pack_blocks(self.random_blocks())
        with pytest.raises(ProtocolError):
            unpack_blocks(names, body + b"\x00")

    def test_through_message_body(self):
        blocks = self.random_blocks(2)
        names, body = pack_blocks(blocks)
        msg = roundtrip(Message("SUBMIT", {"blocks": names}, body))
        out = unpack_blocks(msg.header("blocks"), msg.body)
        for n in blocks:
            np.testing.assert_array_equal(out[n], blocks[n])


class TestUpdateCodec:
    def update(self, with_bridge=True) -> ClientUpdate:
        return ClientUpdate("p1", 2, snapshot_blocks(small_snapshot(5, with_bridge)),
                            17, 3)

    @pytest.mark.parametrize("with_bridge", [True, False])
    def test_roundtrip_through_a_frame(self, with_bridge):
        u = self.update(with_bridge)
        msg = roundtrip(update_message(u, "tok"))
        assert msg.msg_type == "SUBMIT"
        out = message_update(msg)
        assert (out.client_id, out.base_version, out.sample_count,
                out.submitted_round) == ("p1", 2, 17, 3)
        assert out.deltas.keys() == u.deltas.keys()
        for n, m in u.deltas.items():
            assert out.deltas[n].tobytes() == m.tobytes()

    def test_header_order(self):
        msg = update_message(self.update(), "tok")
        assert list(msg.headers) == ["party", "token", "base_version",
                                     "sample_count", "round", "blocks"]
        assert msg.headers["token"] == "tok"

    def test_a_given_round_replaces_the_header(self):
        msg = roundtrip(update_message(self.update(), "tok"))
        del msg.headers["round"]
        assert message_update(msg, 9).submitted_round == 9
        with pytest.raises(ProtocolError, match="'round'"):
            message_update(msg)

    @pytest.mark.parametrize("key", ["party", "base_version", "sample_count", "round"])
    def test_missing_header_is_a_protocol_error(self, key):
        msg = roundtrip(update_message(self.update(), "tok"))
        del msg.headers[key]
        with pytest.raises(ProtocolError, match=repr(key)):
            message_update(msg)

    @pytest.mark.parametrize("key", ["base_version", "sample_count", "round"])
    def test_non_integer_header_is_a_protocol_error(self, key):
        msg = roundtrip(update_message(self.update(), "tok"))
        msg.headers[key] = "x"
        with pytest.raises(ProtocolError, match=repr(key)):
            message_update(msg)

    @pytest.mark.parametrize("case", ["truncated", "no_blocks", "nan", "zero_samples",
                                      "unknown_block"])
    def test_bad_update_is_a_validation_error(self, case):
        u = self.update()
        if case == "nan":  # after ClientUpdate checked it, as a corrupt sender might
            u.deltas["text.b"][0, 0] = np.nan
        msg = update_message(u, "")
        if case == "truncated":
            msg.body = msg.body[:-1]
        elif case == "no_blocks":
            del msg.headers["blocks"]
        elif case == "zero_samples":
            msg.headers["sample_count"] = 0
        elif case == "unknown_block":
            msg.headers["blocks"] = msg.headers["blocks"].replace("bridge", "w_v")
        with pytest.raises(ValidationError):
            message_update(msg)
