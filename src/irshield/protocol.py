"""Length-prefixed wire protocol between the serving daemon and clients.

Frame layout: type u8 | payload length u64 LE | payload. Types::

    01 Hello          client: u32 LE protocol version
                      server: u32 LE version, u32 w, u32 h, u32 c,
                              u32 classes, u32 k; a shape with a zero
                              size or over 64 MiB of f32 values is refused
    02 AttestRequest  32-byte client nonce
    03 AttestEvidence 32-byte measurement + 32-byte MAC
    04 ProvisionKeys  wrapped key message (empty payload as the server ack)
    05 Predict        encoded sealed image container
    06 Result         encoded sealed result container
    07 Error          u16 LE code + UTF-8 message

Payloads are capped at 64 MiB; unknown type codes are rejected. Error
codes: 1 auth_failure, 2 not_ready, 3 too_large, 4 malformed, 5 internal.
``read_frame`` is the only header parser. The enclave boundary takes
unframed (type, payload) requests and shares only the error payloads.
"""

from __future__ import annotations

import math
import socket
import struct
from typing import NoReturn

from .errors import AuthError, IrshieldError, ProtocolError, ShapeError, StateError
from .tensor import _VALUE

__all__ = [
    "MSG_HELLO",
    "MSG_ATTEST_REQUEST",
    "MSG_ATTEST_EVIDENCE",
    "MSG_PROVISION_KEYS",
    "MSG_PREDICT",
    "MSG_RESULT",
    "MSG_ERROR",
    "ERR_AUTH_FAILURE",
    "ERR_NOT_READY",
    "ERR_TOO_LARGE",
    "ERR_MALFORMED",
    "ERR_INTERNAL",
    "MAX_PAYLOAD",
    "PROTOCOL_VERSION",
    "CLIENT_HELLO",
    "REPLY_TYPES",
    "encode_frame",
    "error_code",
    "error_payload",
    "decode_error",
    "raise_error",
    "read_frame",
    "send_frame",
    "FrameTooLarge",
    "ConnectionClosed",
    "check_input_shape",
    "server_hello_payload",
    "parse_server_hello",
    "MAX_LABEL_BYTES",
    "encode_result_payload",
    "decode_result_payload",
]

MSG_HELLO = 1
MSG_ATTEST_REQUEST = 2
MSG_ATTEST_EVIDENCE = 3
MSG_PROVISION_KEYS = 4
MSG_PREDICT = 5
MSG_RESULT = 6
MSG_ERROR = 7
_KNOWN_TYPES = frozenset(range(1, 8))
# client request type -> the type of the reply that answers it; an error
# frame may answer any of them
REPLY_TYPES = {
    MSG_HELLO: MSG_HELLO,
    MSG_ATTEST_REQUEST: MSG_ATTEST_EVIDENCE,
    MSG_PROVISION_KEYS: MSG_PROVISION_KEYS,
    MSG_PREDICT: MSG_RESULT,
}

ERR_AUTH_FAILURE = 1
ERR_NOT_READY = 2
ERR_TOO_LARGE = 3
ERR_MALFORMED = 4
ERR_INTERNAL = 5

MAX_PAYLOAD = 64 * 1024 * 1024
PROTOCOL_VERSION = 1
_CLIENT_HELLO = struct.Struct("<I")  # version
CLIENT_HELLO = _CLIENT_HELLO.pack(PROTOCOL_VERSION)
_HEADER = struct.Struct("<BQ")
_ERROR_CODE = struct.Struct("<H")
# version, input w, h, c, classes, k
_SERVER_HELLO = struct.Struct("<IIIIII")
# a result payload, the plaintext of a sealed Result: an entry count, then
# each entry and its label's UTF-8 bytes
_RESULT_COUNT = struct.Struct("<I")
_RESULT_ENTRY = struct.Struct("<IfH")  # class index, score, label length
# the longest label an entry can carry: its length field with every bit set
*_, MAX_LABEL_BYTES = _RESULT_ENTRY.unpack(b"\xff" * _RESULT_ENTRY.size)


class FrameTooLarge(ProtocolError):
    """Incoming frame declared a payload beyond the 64 MiB cap."""


class ConnectionClosed(ConnectionError):
    """The peer closed the connection between frames, not within one."""


# Exception type -> error code; the first matching entry wins and any other
# exception maps to ERR_INTERNAL. raise_error inverts it: a code raises the
# type of its first entry, and an unlisted code raises IrshieldError.
_ERROR_CODES = (
    (FrameTooLarge, ERR_TOO_LARGE),
    (AuthError, ERR_AUTH_FAILURE),
    (StateError, ERR_NOT_READY),
    (ProtocolError, ERR_MALFORMED),
    (ShapeError, ERR_MALFORMED),
)
_ERROR_TYPES = {code: exc_type for exc_type, code in reversed(_ERROR_CODES)}


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if msg_type not in _KNOWN_TYPES:
        raise ProtocolError(f"unknown wire message type {msg_type}")
    if len(payload) > MAX_PAYLOAD:
        raise FrameTooLarge(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    return _HEADER.pack(msg_type, len(payload)) + payload


def error_code(exc: BaseException) -> int:
    for exc_type, code in _ERROR_CODES:
        if isinstance(exc, exc_type):
            return code
    return ERR_INTERNAL


def error_payload(code: int, message: str) -> bytes:
    return _ERROR_CODE.pack(code) + message.encode()


def decode_error(payload: bytes) -> tuple[int, str]:
    if len(payload) < _ERROR_CODE.size:
        raise ProtocolError("error payload shorter than its code")
    (code,) = _ERROR_CODE.unpack_from(payload)
    return code, payload[_ERROR_CODE.size :].decode(errors="replace")


def raise_error(payload: bytes) -> NoReturn:
    """Raise the exception type that an error payload's code stands for."""
    code, message = decode_error(payload)
    raise _ERROR_TYPES.get(code, IrshieldError)(message)


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> tuple[int, bytes]:
    """Read one frame. Raises FrameTooLarge/ProtocolError on bad headers,
    ConnectionClosed when the peer closes before the frame starts, and
    ConnectionError when it goes away within the frame."""
    header = sock.recv(_HEADER.size)
    if not header:
        raise ConnectionClosed("connection closed")
    header += _recv_exactly(sock, _HEADER.size - len(header))
    msg_type, length = _HEADER.unpack(header)
    if msg_type not in _KNOWN_TYPES:
        raise ProtocolError(f"unknown wire message type {msg_type}")
    if length > MAX_PAYLOAD:
        raise FrameTooLarge(f"declared payload of {length} bytes exceeds {MAX_PAYLOAD}")
    return msg_type, _recv_exactly(sock, int(length))


def send_frame(sock: socket.socket, msg_type: int, payload: bytes) -> None:
    sock.sendall(encode_frame(msg_type, payload))


def check_input_shape(shape: tuple[int, int, int], source: str) -> None:
    """Refuse a (w, h, c) input shape that cannot be sent as one Predict: one
    with a zero size, or whose f32 values alone exceed ``MAX_PAYLOAD``."""
    if not 0 < math.prod(shape) <= MAX_PAYLOAD // _VALUE.itemsize:
        w, h, c = shape
        raise ProtocolError(f"{source} input shape {w}x{h}x{c} cannot be sent in one Predict")


def server_hello_payload(input_shape: tuple[int, int, int], classes: int, k: int) -> bytes:
    return _SERVER_HELLO.pack(PROTOCOL_VERSION, *input_shape, classes, k)


def parse_server_hello(payload: bytes) -> dict:
    """The Hello reply's fields, if its version is ours and its shape can be sent."""
    if len(payload) != _SERVER_HELLO.size:
        raise ProtocolError(f"server hello must be {_SERVER_HELLO.size} bytes, got {len(payload)}")
    version, w, h, c, classes, k = _SERVER_HELLO.unpack(payload)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    check_input_shape((w, h, c), "server hello")
    return {"version": version, "input_shape": (w, h, c), "classes": classes, "k": k}


def encode_result_payload(entries: list[tuple[int, str, float]]) -> bytes:
    chunks = [_RESULT_COUNT.pack(len(entries))]
    for index, label, score in entries:
        raw = label.encode()
        chunks.append(_RESULT_ENTRY.pack(index, score, len(raw)))
        chunks.append(raw)
    return b"".join(chunks)


def decode_result_payload(blob: bytes) -> list[tuple[int, str, float]]:
    if len(blob) < _RESULT_COUNT.size:
        raise ProtocolError("result payload shorter than its count header")
    (count,) = _RESULT_COUNT.unpack_from(blob)
    pos = _RESULT_COUNT.size
    out = []
    for _ in range(count):
        if len(blob) < pos + _RESULT_ENTRY.size:
            raise ProtocolError("result payload truncated")
        index, score, label_len = _RESULT_ENTRY.unpack_from(blob, pos)
        pos += _RESULT_ENTRY.size
        if len(blob) < pos + label_len:
            raise ProtocolError("result payload truncated")
        try:
            label = blob[pos : pos + label_len].decode()
        except UnicodeDecodeError:
            raise ProtocolError("result payload label is not UTF-8") from None
        pos += label_len
        out.append((index, label, score))
    if pos != len(blob):
        raise ProtocolError("result payload has trailing bytes")
    return out
