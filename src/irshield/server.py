"""The untrusted host daemon: deployment loading and the serving loop.

The host never sees plaintext images, labels, or results. Per connection it
spawns a fresh enclave session over the deployed sealed artifacts, relays
the attestation and key-provisioning exchange, and then serves predict
requests: sealed image in, intermediate tensor out of the enclave, back
model and top-k on the host, sealed result out of the enclave back to the
client. Framing violations close the connection; per-request denials
(tampered or foreign-key containers) answer with an error frame and keep
the connection alive.
"""

from __future__ import annotations

import logging
import socket
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import protocol
from .enclave import (
    EnclaveSession,
    attest,
    enclave_create,
    infer_encrypted_image,
    map_classes,
    provision_keys,
)
from .engine import forward, top_k
from .errors import IrshieldError, ProtocolError, ShapeError, StateError
from .netdef import NetworkDef
from .partition import PartitionArtifacts, load_artifacts
from .sealing import SealedContainer

__all__ = ["Deployment", "deploy", "handle_predict", "serve", "Server", "resolve_root_key"]

log = logging.getLogger("irshield.server")

ROOT_KEY_ENV = "IRSHIELD_ROOT_KEY"


def resolve_root_key(explicit: bytes | str | None = None) -> bytes:
    """Explicit key (bytes or hex) if given, else the IRSHIELD_ROOT_KEY env var."""
    import os

    if explicit is None:
        explicit = os.environ.get(ROOT_KEY_ENV)
        if not explicit:
            raise ValueError(
                f"no attestation root key: pass one or set {ROOT_KEY_ENV} (64 hex chars)"
            )
    if isinstance(explicit, str):
        try:
            explicit = bytes.fromhex(explicit)
        except ValueError:
            raise ValueError("root key must be hex") from None
    if len(explicit) != 32:
        raise ValueError(f"root key must be 32 bytes, got {len(explicit)}")
    return bytes(explicit)


@dataclass
class Deployment:
    artifacts: PartitionArtifacts
    backnet: NetworkDef
    session: EnclaveSession
    k: int
    root_key: bytes = field(repr=False)

    @property
    def input_shape(self) -> tuple[int, int, int]:
        w, h, c = self.artifacts.meta["input_shape"]
        return (w, h, c)

    @property
    def classes(self) -> int:
        return int(self.artifacts.meta["classes"])

    def new_session(self) -> EnclaveSession:
        return enclave_create(self.artifacts.frontnet_sealed, self.artifacts.labels_sealed)


def deploy(model_dir: str | Path, k: int = 5, root_key: bytes | str | None = None) -> Deployment:
    """Load a partition artifact directory and stand up the enclave side.

    Verifies every manifest hash, loads the plaintext back model, checks it
    accepts the front model's output shape, and creates (but does not yet
    provision) an enclave session over the sealed artifacts.
    """
    artifacts = load_artifacts(model_dir)
    ir_shape = tuple(artifacts.meta["ir_shape"])
    if artifacts.backnet.input_shape != ir_shape:
        raise ShapeError(
            f"back model expects input {artifacts.backnet.input_shape}, "
            f"but the front model emits {ir_shape}"
        )
    classes = int(artifacts.meta["classes"])
    if not (1 <= k <= classes):
        raise ValueError(f"k must be in [1, {classes}], got {k}")
    session = enclave_create(artifacts.frontnet_sealed, artifacts.labels_sealed)
    return Deployment(
        artifacts=artifacts,
        backnet=artifacts.backnet,
        session=session,
        k=k,
        root_key=resolve_root_key(root_key),
    )


def handle_predict(
    dep: Deployment, session: EnclaveSession, img_sealed, tap: list | None = None
) -> SealedContainer:
    """One prediction through a provisioned enclave session.

    ``tap``, when given, collects the host-visible intermediate tensor and
    top-k pairs.
    """
    if session.state != "ready":
        raise StateError(f"session is {session.state!r}, not ready")
    ir = infer_encrypted_image(session, img_sealed)
    if tap is not None:
        tap.append(ir.encode())
    probs = forward(dep.backnet, ir)
    if not np.isfinite(probs).all():
        raise IrshieldError("back model produced non-finite scores")
    pairs = top_k(probs, dep.k)
    if tap is not None:
        tap.append(repr(pairs).encode())
    return map_classes(session, pairs)


class Server:
    """Threaded TCP daemon speaking the wire protocol.

    ``tap``, when provided, collects every plaintext buffer the host code
    touches (wire payloads, intermediate tensors, top-k pairs) so tests can
    audit that nothing secret is host-visible.
    """

    def __init__(self, listen_addr: tuple[str, int], dep: Deployment, tap: list | None = None):
        self.dep = dep
        self.tap = tap
        self._sock = socket.create_server(listen_addr)
        self.address = self._sock.getsockname()[:2]
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._accept_thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Server":
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        # closing a listening socket does not wake a blocked accept(); poke it
        try:
            socket.create_connection(self.address, timeout=1).close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        with self._conn_lock:
            live = list(self._conns)
        for conn in live:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        for thread in self._threads:
            thread.join(timeout=5)

    def run_forever(self) -> None:
        self._accept_loop()

    def _accept_loop(self) -> None:
        log.info("serving on %s:%d", *self.address)
        while not self._stop.is_set():
            try:
                conn, peer = self._sock.accept()
            except OSError:
                break
            if self._stop.is_set():
                conn.close()
                break
            thread = threading.Thread(target=self._serve_connection, args=(conn, peer), daemon=True)
            thread.start()
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)

    # -- per-connection protocol ---------------------------------------------

    def _record(self, payload: bytes) -> None:
        if self.tap is not None:
            self.tap.append(payload)

    def _serve_connection(self, conn: socket.socket, peer) -> None:
        session = self.dep.new_session()
        with self._conn_lock:
            self._conns.add(conn)
        try:
            with conn:
                self._session_loop(conn, session)
        except (ConnectionError, OSError) as exc:
            log.info("connection %s dropped: %s", peer, exc)
        except Exception:
            log.exception("connection %s failed", peer)
        finally:
            with self._conn_lock:
                self._conns.discard(conn)

    def _send(self, conn: socket.socket, msg_type: int, payload: bytes) -> None:
        self._record(payload)
        protocol.send_frame(conn, msg_type, payload)

    def _send_error(self, conn: socket.socket, exc: IrshieldError) -> None:
        payload = protocol.error_payload(protocol.error_code(exc), str(exc))
        self._send(conn, protocol.MSG_ERROR, payload)

    def _expect(self, conn: socket.socket, msg_type: int, name: str) -> bytes:
        """Read one frame of the expected type and return its payload.

        A Predict before provisioning raises StateError, any other
        unexpected type ProtocolError.
        """
        got_type, payload = protocol.read_frame(conn)
        self._record(payload)
        if got_type == msg_type:
            return payload
        if got_type == protocol.MSG_PREDICT:
            raise StateError("session not provisioned")
        raise ProtocolError(f"expected {name}")

    def _session_loop(self, conn: socket.socket, session: EnclaveSession) -> None:
        # A failure in the prologue or in reading a frame answers with an
        # error frame and ends the connection; a failed predict keeps it.
        try:
            self._expect(conn, protocol.MSG_HELLO, "Hello")
            self._send(
                conn,
                protocol.MSG_HELLO,
                protocol.server_hello_payload(self.dep.input_shape, self.dep.classes, self.dep.k),
            )
            nonce = self._expect(conn, protocol.MSG_ATTEST_REQUEST, "AttestRequest")
            if len(nonce) != 32:
                raise ProtocolError("expected a 32-byte AttestRequest")
            evidence = attest(session, nonce, self.dep.root_key)
            self._send(conn, protocol.MSG_ATTEST_EVIDENCE, evidence.measurement + evidence.mac)
            key_msg = self._expect(conn, protocol.MSG_PROVISION_KEYS, "ProvisionKeys")
            provision_keys(session, key_msg)
            self._send(conn, protocol.MSG_PROVISION_KEYS, b"")

            while True:
                payload = self._expect(conn, protocol.MSG_PREDICT, "Predict")
                try:
                    result = handle_predict(self.dep, session, payload, tap=self.tap)
                except IrshieldError as exc:
                    self._send_error(conn, exc)
                    continue
                self._send(conn, protocol.MSG_RESULT, result.encode())
        except IrshieldError as exc:
            self._send_error(conn, exc)


def serve(listen_addr: tuple[str, int], dep: Deployment) -> None:
    """Run the daemon loop on the calling thread; returns only on fatal
    socket errors."""
    Server(listen_addr, dep).run_forever()
