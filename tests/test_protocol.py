import socket
import struct
import threading

import pytest

from irshield import protocol
from irshield.client import AttestationRejected, ResultAuthError
from irshield.errors import (
    AuthError,
    ConfigError,
    IrshieldError,
    PartitionError,
    ProtocolError,
    ShapeError,
    StateError,
    WeightsError,
)


def loopback_pair():
    server = socket.create_server(("127.0.0.1", 0))
    addr = server.getsockname()[:2]
    result = {}

    def accept():
        conn, _ = server.accept()
        result["conn"] = conn

    thread = threading.Thread(target=accept)
    thread.start()
    client = socket.create_connection(addr)
    thread.join()
    server.close()
    return client, result["conn"]


class TestFraming:
    def test_round_trip_over_socket(self):
        a, b = loopback_pair()
        try:
            protocol.send_frame(a, protocol.MSG_PREDICT, b"payload-bytes")
            msg_type, payload = protocol.read_frame(b)
            assert (msg_type, payload) == (protocol.MSG_PREDICT, b"payload-bytes")
        finally:
            a.close()
            b.close()

    def test_header_layout(self):
        frame = protocol.encode_frame(protocol.MSG_HELLO, b"abc")
        assert frame[0] == 1
        assert struct.unpack_from("<Q", frame, 1)[0] == 3
        assert frame[9:] == b"abc"

    def test_unknown_type_rejected_on_encode(self):
        with pytest.raises(ProtocolError, match="unknown wire message type"):
            protocol.encode_frame(9, b"")

    def test_unknown_type_rejected_on_read(self):
        a, b = loopback_pair()
        try:
            a.sendall(struct.pack("<BQ", 42, 0))
            with pytest.raises(ProtocolError, match="unknown wire message type 42"):
                protocol.read_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_declaration_rejected(self):
        a, b = loopback_pair()
        try:
            a.sendall(struct.pack("<BQ", protocol.MSG_PREDICT, protocol.MAX_PAYLOAD + 1))
            with pytest.raises(protocol.FrameTooLarge):
                protocol.read_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_payload_rejected_on_encode(self):
        with pytest.raises(protocol.FrameTooLarge):
            protocol.encode_frame(protocol.MSG_PREDICT, bytes(protocol.MAX_PAYLOAD + 1))

    def test_peer_disconnect_mid_frame(self):
        a, b = loopback_pair()
        try:
            a.sendall(struct.pack("<BQ", protocol.MSG_PREDICT, 100) + b"short")
            a.close()
            with pytest.raises(ConnectionError):
                protocol.read_frame(b)
        finally:
            b.close()


class TestErrorPayload:
    def test_round_trip(self):
        frame = protocol.encode_frame(
            protocol.MSG_ERROR, protocol.error_payload(protocol.ERR_NOT_READY, "still warming up")
        )
        msg_type = frame[0]
        assert msg_type == protocol.MSG_ERROR
        code, message = protocol.decode_error(frame[9:])
        assert code == 2
        assert message == "still warming up"

    def test_short_payload_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_error(b"\x01")


# every package exception: (instance, wire code, type raise_error gives back)
ERROR_TABLE = [
    (protocol.FrameTooLarge("big"), protocol.ERR_TOO_LARGE, protocol.FrameTooLarge),
    (AuthError("denied"), protocol.ERR_AUTH_FAILURE, AuthError),
    (AttestationRejected("bad mac"), protocol.ERR_AUTH_FAILURE, AuthError),
    (ResultAuthError("bad tag"), protocol.ERR_AUTH_FAILURE, AuthError),
    (StateError("early"), protocol.ERR_NOT_READY, StateError),
    (ProtocolError("bad"), protocol.ERR_MALFORMED, ProtocolError),
    (ShapeError("odd"), protocol.ERR_MALFORMED, ProtocolError),
    (ConfigError("cfg", 3), protocol.ERR_INTERNAL, IrshieldError),
    (WeightsError("short"), protocol.ERR_INTERNAL, IrshieldError),
    (PartitionError("cut"), protocol.ERR_INTERNAL, IrshieldError),
    (IrshieldError("other"), protocol.ERR_INTERNAL, IrshieldError),
]


class TestErrorTable:
    @pytest.mark.parametrize("exc,code,raised", ERROR_TABLE)
    def test_round_trip(self, exc, code, raised):
        assert protocol.error_code(exc) == code
        with pytest.raises(raised, match="message text") as info:
            protocol.raise_error(protocol.error_payload(protocol.error_code(exc), "message text"))
        assert type(info.value) is raised

    def test_table_lists_every_package_exception(self):
        listed = {type(exc) for exc, _, _ in ERROR_TABLE}
        stack = [IrshieldError]
        while stack:
            cls = stack.pop()
            if cls.__module__.startswith("irshield."):
                assert cls in listed, cls
            stack.extend(cls.__subclasses__())

    def test_foreign_exception_is_internal(self):
        assert protocol.error_code(ValueError("foreign")) == protocol.ERR_INTERNAL

    def test_unknown_code_raises_base_error(self):
        with pytest.raises(IrshieldError) as info:
            protocol.raise_error(protocol.error_payload(999, "odd"))
        assert type(info.value) is IrshieldError


class TestBoundaryFrames:
    def test_pack_unpack_round_trip(self):
        frame = protocol.pack_frame(0x14, b"xyz")
        assert frame == struct.pack("<BQ", 0x14, 3) + b"xyz"
        assert protocol.unpack_frame(frame) == (0x14, b"xyz")

    @pytest.mark.parametrize("blob", [b"", b"\x14\x00", struct.pack("<BQ", 0x14, 4) + b"abc"])
    def test_unpack_rejects_bad_lengths(self, blob):
        with pytest.raises(ProtocolError):
            protocol.unpack_frame(blob)


class TestServerHello:
    def test_round_trip(self):
        payload = protocol.server_hello_payload((32, 24, 3), 10, 5)
        info = protocol.parse_server_hello(payload)
        assert info == {"version": 1, "input_shape": (32, 24, 3), "classes": 10, "k": 5}

    def test_bad_length(self):
        with pytest.raises(ProtocolError, match="24 bytes"):
            protocol.parse_server_hello(b"\x00" * 10)

    def test_bad_version(self):
        payload = bytearray(protocol.server_hello_payload((1, 1, 1), 2, 1))
        payload[0] = 9
        with pytest.raises(ProtocolError, match="version"):
            protocol.parse_server_hello(bytes(payload))

    @pytest.mark.parametrize("shape", [(0, 32, 3), (32, 32, 0), (65535, 65535, 3),
                                       (4096, 1024, 5)])
    def test_unsendable_input_shape_refused(self, shape):
        # a zero size, or more f32 values than one Predict frame can carry
        with pytest.raises(ProtocolError, match="cannot be sent in one Predict"):
            protocol.parse_server_hello(protocol.server_hello_payload(shape, 10, 5))

    def test_largest_sendable_input_shape(self):
        shape = (4096, 1024, 4)  # 16 Mi f32 values fill MAX_PAYLOAD exactly
        info = protocol.parse_server_hello(protocol.server_hello_payload(shape, 10, 5))
        assert info["input_shape"] == shape
