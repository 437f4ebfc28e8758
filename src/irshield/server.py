"""The untrusted host daemon: deployment loading and the serving loop.

The host never sees plaintext images, labels, or results. Per connection it
spawns a fresh enclave session over the deployed sealed artifacts and runs
one loop: read a client frame, answer it, send the reply. Hello is answered
by the host; AttestRequest, ProvisionKeys and Predict are relayed to the
enclave session, which alone decides whether they come in order. A Predict
runs the front model in the enclave, the back model and top-k on the host,
and seals the result in the enclave. A failed Predict answers with an error
frame and keeps the connection; any other failure, framing faults included,
answers with an error frame and closes it.
"""

from __future__ import annotations

import errno
import logging
import socket
import threading
import time
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
from .errors import IrshieldError, ProtocolError
from .netdef import NetworkDef
from .partition import PartitionArtifacts, load_artifacts
from .sealing import check_key

__all__ = ["Deployment", "deploy", "handle_predict", "Server"]

log = logging.getLogger("irshield.server")

_ACCEPT_RETRY_ERRNOS = frozenset(
    {errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM, errno.ECONNABORTED})
_ACCEPT_RETRY_PAUSE_S = 0.1


@dataclass
class Deployment:
    artifacts: PartitionArtifacts
    k: int
    root_key: bytes = field(repr=False)
    hello: bytes  # the Hello reply: input shape, class count and k

    @property
    def backnet(self) -> NetworkDef:
        return self.artifacts.backnet

    def new_session(self) -> EnclaveSession:
        """A fresh, unprovisioned enclave session over the sealed artifacts."""
        return enclave_create(self.artifacts.frontnet_sealed, self.artifacts.labels_sealed)


def deploy(model_dir: str | Path, k: int = 5, *, root_key: bytes) -> Deployment:
    """Load a partition artifact directory for serving with a 32-byte root key.

    ``load_artifacts`` verifies every hash and the partition record and loads
    the back model, whose class count bounds ``k``. The Hello reply is packed
    here, once. No enclave session is made here: each connection gets its own
    from :meth:`Deployment.new_session`.
    """
    root_key = check_key(root_key, "root key")
    artifacts = load_artifacts(model_dir)
    classes = artifacts.backnet.class_count()
    if not (1 <= k <= classes):
        raise ValueError(f"k must be in [1, {classes}], got {k}")
    hello = protocol.server_hello_payload(tuple(artifacts.meta["input_shape"]), classes, k)
    return Deployment(artifacts=artifacts, k=k, root_key=root_key, hello=hello)


def handle_predict(
    dep: Deployment, session: EnclaveSession, img_sealed, tap: list | None = None
) -> bytes:
    """One prediction through a provisioned enclave session; returns the
    encoded result container as the enclave sealed it. The enclave refuses
    a session that is not ready with StateError.

    ``tap``, when given, collects the host-visible intermediate tensor and
    top-k pairs.
    """
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
        # every open connection and the thread serving it; the accept loop
        # adds an entry before the thread starts, the thread removes it
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._conn_lock = threading.Lock()
        self._accept_thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Server":
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, end every open connection and wait for its thread."""
        try:
            # on Linux this wakes the blocked accept() with EINVAL, which ends the accept loop
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:  # an earlier stop() closed it
            pass
        self._sock.close()
        # once the accept loop has ended, no connection is added behind this snapshot
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        with self._conn_lock:
            live = dict(self._conns)
        for conn in live:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # the peer reset it: the socket is no longer connected
                pass
        for thread in live.values():
            thread.join(timeout=5)

    def run_forever(self) -> None:
        """Serve on the calling thread until stopped or the listening socket fails."""
        self._accept_loop()

    def _accept_loop(self) -> None:
        log.info("serving on %s:%d", *self.address)
        while True:
            try:
                conn, peer = self._sock.accept()
            except OSError as exc:
                # out of descriptors or buffers, or a peer that reset before its accept,
                # passes; anything else, stop()'s EINVAL or EBADF among it, ends the loop
                if exc.errno not in _ACCEPT_RETRY_ERRNOS:
                    break
                log.warning("accept: %s; retrying in %g s", exc, _ACCEPT_RETRY_PAUSE_S)
                time.sleep(_ACCEPT_RETRY_PAUSE_S)
                continue
            thread = threading.Thread(target=self._serve_connection, args=(conn, peer), daemon=True)
            with self._conn_lock:
                self._conns[conn] = thread
            thread.start()

    # -- per-connection protocol ---------------------------------------------

    def _record(self, payload: bytes) -> None:
        if self.tap is not None:
            self.tap.append(payload)

    def _serve_connection(self, conn: socket.socket, peer) -> None:
        try:
            with conn:
                code = self._session_loop(conn, self.dep.new_session())
            log.info("connection %s ended by the server: error code %d", peer, code)
        except protocol.ConnectionClosed:
            log.info("connection %s closed", peer)
        except OSError as exc:
            log.info("connection %s dropped: %s", peer, exc)
        except Exception:
            log.exception("connection %s failed", peer)
        finally:
            with self._conn_lock:
                self._conns.pop(conn, None)

    def _session_loop(self, conn: socket.socket, session: EnclaveSession) -> int:
        """Read a frame, answer it, send the reply, until a failure that is
        not a Predict's ends the connection; returns that failure's code."""
        while True:
            msg_type = None
            try:
                msg_type, payload = protocol.read_frame(conn)
                self._record(payload)
                reply = self._answer(session, msg_type, payload)
                reply_type = protocol.REPLY_TYPES[msg_type]
            except IrshieldError as exc:
                reply_type, code = protocol.MSG_ERROR, protocol.error_code(exc)
                reply = protocol.error_payload(code, str(exc))
            self._record(reply)
            protocol.send_frame(conn, reply_type, reply)
            if reply_type == protocol.MSG_ERROR and msg_type != protocol.MSG_PREDICT:
                return code

    def _answer(self, session: EnclaveSession, msg_type: int, payload: bytes) -> bytes:
        """The payload of the reply to one client frame."""
        dep = self.dep
        if msg_type == protocol.MSG_HELLO:
            if payload != protocol.CLIENT_HELLO:
                raise ProtocolError(f"client hello is not version {protocol.PROTOCOL_VERSION}")
            return dep.hello
        if msg_type == protocol.MSG_ATTEST_REQUEST:
            return attest(session, payload, dep.root_key).encode()
        if msg_type == protocol.MSG_PROVISION_KEYS:
            provision_keys(session, payload)
            return b""
        if msg_type == protocol.MSG_PREDICT:
            return handle_predict(dep, session, payload, tap=self.tap)
        raise ProtocolError(f"unexpected client message type {msg_type}")
