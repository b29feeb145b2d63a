"""Frame protocol tests: framing, malformed input, error taxonomy."""

import json
import struct
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import CredentialRevoked, UnknownRole
from repro.netd.protocol import (
    FrameDecoder,
    FrameTooLarge,
    OasisNetError,
    ProtocolError,
    RpcError,
    body_size,
    decode_body,
    encode_frame,
    error_payload,
    raise_remote_error,
    take_fitting,
)


def frame_bytes(payload) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    return struct.pack(">I", len(body)) + body


class TestEncodeFrame:
    def test_roundtrip(self):
        payload = {"id": 1, "op": "ping", "data": [1, "x", None, True]}
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(payload)) == [payload]

    def test_oversized_outgoing_rejected(self):
        with pytest.raises(FrameTooLarge):
            encode_frame({"blob": "x" * 100}, max_frame=50)

    def test_empty_frame_is_four_bytes_plus_body(self):
        data = encode_frame({})
        assert data[:4] == struct.pack(">I", 2)
        assert data[4:] == b"{}"


class TestTakeFitting:
    @staticmethod
    def items_field(_message):
        return "items"

    @given(st.lists(st.text(st.characters(min_codepoint=32,
                                          max_codepoint=126),
                            max_size=40), min_size=1, max_size=60),
           st.integers(min_value=128, max_value=600))
    @settings(max_examples=60, deadline=None)
    def test_splits_in_order_within_room(self, items, room):
        pending = deque([{"kind": "k", "items": items}])
        parts = []
        while pending:
            taken = take_fitting(pending, room, self.items_field)
            assert taken, "every item here fits a part of its own"
            assert body_size(taken) <= room
            parts.extend(taken)
        assert [item for part in parts for item in part["items"]] == items

    def test_item_larger_than_room_is_left_pending(self):
        pending = deque([{"items": ["x" * 100, "y"]}])
        assert take_fitting(pending, 50, self.items_field) == []
        assert pending[0]["items"] == ["x" * 100, "y"]


class TestFrameDecoder:
    def test_incremental_byte_at_a_time(self):
        payload = {"id": 7, "op": "ping"}
        data = frame_bytes(payload)
        decoder = FrameDecoder()
        out = []
        for i in range(len(data)):
            out += decoder.feed(data[i:i + 1])
        assert out == [payload]
        assert decoder.at_boundary()

    def test_multiple_frames_in_one_feed(self):
        frames = [{"id": i} for i in range(5)]
        blob = b"".join(frame_bytes(f) for f in frames)
        assert FrameDecoder().feed(blob) == frames

    def test_truncated_prefix_yields_nothing(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"\x00\x00") == []
        assert not decoder.at_boundary()
        assert decoder.buffered == 2

    def test_truncated_body_yields_nothing(self):
        data = frame_bytes({"id": 1})
        decoder = FrameDecoder()
        assert decoder.feed(data[:-3]) == []
        assert not decoder.at_boundary()

    def test_oversized_length_rejected_before_body_arrives(self):
        # Only the 4-byte header announces 100MB; the decoder must bail
        # immediately instead of buffering toward the announced size.
        decoder = FrameDecoder(max_frame=1024)
        with pytest.raises(FrameTooLarge):
            decoder.feed(struct.pack(">I", 100 * 1024 * 1024))

    def test_non_json_body_rejected(self):
        body = b"this is not json"
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_non_utf8_body_rejected(self):
        body = b"\xff\xfe\x00\x01"
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    def test_non_object_body_rejected(self):
        # A valid JSON *array* is still not a valid envelope.
        body = b'[1, 2, 3]'
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(struct.pack(">I", len(body)) + body)

    @given(st.binary(max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_garbage_never_crashes(self, blob):
        """Arbitrary bytes either produce frames or raise the protocol's
        own typed errors — never KeyError/UnicodeDecodeError/etc."""
        decoder = FrameDecoder(max_frame=1024)
        try:
            for frame in decoder.feed(blob):
                assert isinstance(frame, dict)
        except (ProtocolError, FrameTooLarge):
            pass

    @given(st.lists(
        st.dictionaries(st.text(max_size=8),
                        st.integers() | st.text(max_size=8),
                        max_size=4),
        min_size=1, max_size=6),
        st.integers(min_value=1, max_value=17))
    @settings(max_examples=100, deadline=None)
    def test_any_chunking_reassembles(self, frames, chunk):
        """Frames survive arbitrary TCP segmentation."""
        blob = b"".join(frame_bytes(f) for f in frames)
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(blob), chunk):
            out += decoder.feed(blob[i:i + chunk])
        assert out == frames
        assert decoder.at_boundary()


class TestDecodeBody:
    def test_object_ok(self):
        assert decode_body(b'{"a": 1}') == {"a": 1}

    @pytest.mark.parametrize("body", [b"1", b'"str"', b"null", b"[]",
                                      b"nope", b"\x80\x81"])
    def test_rejects_non_objects(self, body):
        with pytest.raises(ProtocolError):
            decode_body(body)


class TestErrorTaxonomy:
    def test_known_exception_reraised_as_itself(self):
        payload = error_payload(UnknownRole("no such role"))
        with pytest.raises(UnknownRole, match="no such role"):
            raise_remote_error("peer", payload)

    def test_revoked_reraised(self):
        payload = error_payload(CredentialRevoked("gone"))
        with pytest.raises(CredentialRevoked):
            raise_remote_error("peer", payload)

    def test_unknown_type_becomes_rpc_error(self):
        with pytest.raises(RpcError) as info:
            raise_remote_error("peer", {"type": "ValueError",
                                        "message": "boom"})
        assert info.value.node == "peer"
        assert info.value.error_type == "ValueError"
        assert "boom" in str(info.value)

    def test_hostile_type_name_cannot_smuggle_arbitrary_class(self):
        # Only repro.core.exceptions names are honoured; anything else —
        # including real builtins like SystemExit — degrades to RpcError.
        with pytest.raises(RpcError):
            raise_remote_error("peer", {"type": "SystemExit",
                                        "message": "0"})

    def test_missing_payload_fields_tolerated(self):
        with pytest.raises(RpcError):
            raise_remote_error("peer", None)
        with pytest.raises(RpcError):
            raise_remote_error("peer", {})

    def test_protocol_errors_are_net_errors(self):
        # The service layer's fail-closed branch catches NetworkError;
        # every transport failure must be in that hierarchy.
        from repro.net import NetworkError
        assert issubclass(ProtocolError, OasisNetError)
        assert issubclass(FrameTooLarge, ProtocolError)
        assert issubclass(OasisNetError, NetworkError)
