"""A client connection that stays open across many predicts.

The program's client runs one predict per connection, so the benchmark
speaks the wire protocol itself: Hello, attestation, key provisioning once,
then sealed predicts back to back. It uses only the program's framing
functions and the client-side key helpers.
"""

from __future__ import annotations

import os
import socket

from irshield import protocol
from irshield.enclave import build_key_message, verify_evidence


class HandshakeError(Exception):
    pass


class Connection:
    """One attested, provisioned session on a TCP connection."""

    def __init__(self, addr, keys: dict[str, bytes], measurement: bytes, timeout: float = 30.0):
        self.sock = socket.create_connection(addr, timeout=timeout)
        try:
            self._handshake(keys, measurement)
        except BaseException:
            self.sock.close()
            raise

    def request(self, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        protocol.send_frame(self.sock, msg_type, payload)
        return protocol.read_frame(self.sock)

    def _expect(self, frame: tuple[int, bytes], msg_type: int, phase: str) -> bytes:
        got, payload = frame
        if got != msg_type:
            raise HandshakeError(f"{phase}: got message type {got}, payload {payload[:80]!r}")
        return payload

    def _handshake(self, keys: dict[str, bytes], measurement: bytes) -> None:
        hello = protocol.PROTOCOL_VERSION.to_bytes(4, "little")
        self._expect(self.request(protocol.MSG_HELLO, hello), protocol.MSG_HELLO, "hello")
        nonce = os.urandom(32)
        evidence = self._expect(
            self.request(protocol.MSG_ATTEST_REQUEST, nonce),
            protocol.MSG_ATTEST_EVIDENCE,
            "attestation",
        )
        got_measurement, mac = evidence[:32], evidence[32:]
        if not verify_evidence(keys["root"], got_measurement, nonce, mac):
            raise HandshakeError("attestation MAC did not verify")
        if got_measurement != measurement:
            raise HandshakeError("enclave measurement differs from the manifest")
        key_msg = build_key_message(
            keys["root"], got_measurement, nonce, mac, keys["model"], keys["image"]
        )
        self._expect(
            self.request(protocol.MSG_PROVISION_KEYS, key_msg),
            protocol.MSG_PROVISION_KEYS,
            "provisioning",
        )

    def close(self) -> None:
        self.sock.close()
