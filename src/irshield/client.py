"""Client side of the serving protocol.

The client verifies attestation evidence before transmitting any key
material, wraps its keys to the attested session, seals its image, and
opens the sealed result locally. Plaintext images, labels, and results
exist only on this side of the wire.
"""

from __future__ import annotations

import os
import socket
from pathlib import Path

from . import protocol
from .enclave import build_key_message, decode_result_payload, verify_evidence
from .errors import AuthError, ProtocolError
from .imageio import load_image, resize_to_shape
from .sealing import SealedContainer, open_container, seal

__all__ = ["client_predict", "AttestationRejected", "ResultAuthError"]

# seconds to connect, and to wait on any one read or write
TIMEOUT_S = 30.0


class AttestationRejected(AuthError):
    """The server's attestation evidence did not verify; no keys were sent."""


class ResultAuthError(AuthError):
    """The returned result container failed authentication."""


def _exchange(sock: socket.socket, msg_type: int, payload: bytes) -> bytes:
    """Send one frame and return the payload of the reply that answers it; an
    error frame raises the exception type its code stands for."""
    protocol.send_frame(sock, msg_type, payload)
    got_type, reply = protocol.read_frame(sock)
    if got_type == protocol.MSG_ERROR:
        protocol.raise_error(reply)
    if got_type != protocol.REPLY_TYPES[msg_type]:
        raise ProtocolError(f"unexpected message type {got_type} in reply to type {msg_type}")
    return reply


def client_predict(
    server_addr: tuple[str, int],
    image_path: str | Path,
    model_key: bytes,
    img_key: bytes,
    root_key: bytes,
    expected_measurement: bytes | None = None,
) -> list[tuple[str, float]]:
    """Round-trip one image: attest, provision, predict, open the result.

    Returns (label, score) pairs in descending score order. Aborts before
    any key bytes leave this process if the evidence MAC fails or the
    measurement differs from ``expected_measurement`` (when given). The
    attestation nonce, the key message and the image seal each draw fresh
    randomness per call.
    """
    image = load_image(image_path)

    with socket.create_connection(server_addr, timeout=TIMEOUT_S) as sock:
        hello = _exchange(sock, protocol.MSG_HELLO, protocol.CLIENT_HELLO)
        info = protocol.parse_server_hello(hello)
        if image.shape != info["input_shape"]:
            image = resize_to_shape(image, info["input_shape"])

        nonce = os.urandom(32)
        evidence = _exchange(sock, protocol.MSG_ATTEST_REQUEST, nonce)
        if len(evidence) != 64:
            raise ProtocolError("attestation evidence must be 64 bytes")
        measurement, mac = evidence[:32], evidence[32:]
        if not verify_evidence(root_key, measurement, nonce, mac):
            raise AttestationRejected("attestation MAC failed; aborting before key transfer")
        if expected_measurement is not None and measurement != expected_measurement:
            raise AttestationRejected(
                "server measurement does not match the expected artifacts; "
                "aborting before key transfer"
            )

        key_msg = build_key_message(root_key, measurement, nonce, mac, model_key, img_key)
        _exchange(sock, protocol.MSG_PROVISION_KEYS, key_msg)
        sealed = seal(image.encode(), img_key, "image")
        result_payload = _exchange(sock, protocol.MSG_PREDICT, sealed.encode())

    container = SealedContainer.decode(result_payload)
    try:
        plaintext = open_container(container.expect_type("result"), img_key)
    except AuthError:
        raise ResultAuthError("result container failed authentication") from None
    return [(label, score) for _, label, score in decode_result_payload(plaintext)]
