"""Simulated trusted enclave: sealed-model loading, key provisioning, and
in-boundary inference and class mapping.

The enclave is an isolated component behind a narrow message API. Every
operation crosses the boundary as a :mod:`irshield.protocol` frame (type
byte, u64 LE length, payload). A session created with an audit list appends
every byte that leaves to it, so tests can assert that no plaintext model
bytes, labels, images, or keys ever escape; by default nothing is kept.
Only two kinds of payload carry model data outward: the intermediate tensor
produced by the loaded front model (by design, and only when finite) and
sealed result containers (ciphertext).

Attestation is a stub faithful to the protocol shape: the enclave proves
knowledge of a pre-shared root key by MACing its measurement (a hash of the
code identity and the loaded sealed artifacts) together with a client
nonce. Key provisioning wraps the model and image keys under a key derived
from the root key and that attestation transcript, so keys can only be
provisioned to the attested enclave instance. A session holds one secret
per state: the wrap key while attested, the image key once ready.

The session alone orders its operations. One table, ``_REQUESTS``, pairs
each boundary request type with its operation name, the state it needs, its
handler and its reply type; the dispatcher checks the state and frames the
reply, so handlers return payloads only. States move strictly created ->
attested -> ready, or failed: any failure to provision parks the session in
that terminal state with all partial secrets discarded.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
import threading
from dataclasses import dataclass

from . import protocol
from .engine import forward_range
from .errors import AuthError, IrshieldError, ProtocolError, ShapeError, StateError
from .netdef import parse_network
from .partition import unpack_model
from .sealing import KEY_LEN, NONCE_LEN, SealedContainer, check_key, open_container, seal
from .tensor import Tensor

__all__ = [
    "EnclaveSession",
    "AttestationEvidence",
    "enclave_create",
    "attest",
    "provision_keys",
    "infer_encrypted_image",
    "map_classes",
    "build_key_message",
    "verify_evidence",
    "measurement_from_manifest",
    "encode_result_payload",
    "decode_result_payload",
    "CODE_IDENTITY",
]

CODE_IDENTITY = b"irshield-enclave/1"

# boundary frame types
MSG_ATTEST_REQ = 0x10
MSG_ATTEST_EVIDENCE = 0x11
MSG_PROVISION = 0x12
MSG_PROVISION_OK = 0x13
MSG_INFER = 0x14
MSG_IR = 0x15
MSG_MAP = 0x16
MSG_RESULT = 0x17
MSG_ERROR = 0x1F

_ATTEST_REQUEST = struct.Struct(f"{KEY_LEN}s32s")  # root key, client nonce
_EVIDENCE = struct.Struct("32s32s")  # measurement, MAC
_COUNT = struct.Struct("<I")  # entries in a class-mapping request or a result
_MAP_ENTRY = struct.Struct("<If")  # class index, score
_RESULT_ENTRY = struct.Struct("<IfH")  # class index, score, label length; the label follows

def _mac(root_key: bytes, *parts: bytes) -> bytes:
    return hmac.new(root_key, b"".join(parts), hashlib.sha256).digest()


def verify_evidence(root_key: bytes, measurement: bytes, client_nonce: bytes, mac: bytes) -> bool:
    """Client-side check of attestation evidence against the shared root key."""
    expected = _mac(root_key, b"attest", measurement, client_nonce)
    return hmac.compare_digest(expected, mac)


def _measurement(fn_digest: bytes, lbl_digest: bytes) -> bytes:
    """The code identity and the two sealed artifacts' SHA-256 digests, hashed."""
    return hashlib.sha256(CODE_IDENTITY + fn_digest + lbl_digest).digest()


def measurement_from_manifest(manifest: dict[str, str]) -> bytes:
    """Expected enclave measurement, computed from artifact manifest hashes.

    Lets a client that holds only the manifest verify it is talking to an
    enclave loaded with exactly the artifacts it produced.
    """
    try:
        fn_hex, lbl_hex = manifest["frontnet.sealed"], manifest["labels.sealed"]
    except KeyError as exc:
        raise ProtocolError(f"manifest lacks an entry for {exc.args[0]}") from None
    return _measurement(bytes.fromhex(fn_hex), bytes.fromhex(lbl_hex))


def _wrap_key(root_key: bytes, measurement: bytes, client_nonce: bytes, evidence_mac: bytes) -> bytes:
    return _mac(root_key, b"provision-wrap", measurement, client_nonce, evidence_mac)


def build_key_message(
    root_key: bytes,
    measurement: bytes,
    client_nonce: bytes,
    evidence_mac: bytes,
    model_key: bytes,
    img_key: bytes,
    nonce: bytes | None = None,
) -> bytes:
    """Client-side wrapping of (model_key, img_key) to an attested session."""
    # the AES library loads on first use, as in :mod:`irshield.sealing`
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    keys = check_key(model_key, "model key") + check_key(img_key, "image key")
    wrap = _wrap_key(check_key(root_key, "root key"), measurement, client_nonce, evidence_mac)
    if nonce is None:
        nonce = os.urandom(NONCE_LEN)
    return nonce + AESGCM(wrap).encrypt(nonce, keys, b"irshield-keys")


@dataclass(frozen=True)
class AttestationEvidence:
    measurement: bytes
    mac: bytes


def encode_result_payload(entries: list[tuple[int, str, float]]) -> bytes:
    chunks = [_COUNT.pack(len(entries))]
    for index, label, score in entries:
        raw = label.encode()
        chunks.append(_RESULT_ENTRY.pack(index, score, len(raw)))
        chunks.append(raw)
    return b"".join(chunks)


def decode_result_payload(blob: bytes) -> list[tuple[int, str, float]]:
    if len(blob) < _COUNT.size:
        raise ProtocolError("result payload shorter than its count header")
    (count,) = _COUNT.unpack_from(blob)
    pos = _COUNT.size
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


class EnclaveSession:
    """One simulated enclave instance holding one set of secrets.

    Callers interact through the module-level operations, which shuttle
    encoded frames through :meth:`call`. Requests are serialized by an
    internal lock: a session is one logical thread of trust. ``audit``, when
    given, receives every response frame.
    """

    def __init__(
        self, fn_sealed: SealedContainer, lbl_sealed: SealedContainer, audit: list | None = None
    ):
        self._fn_sealed = fn_sealed
        self._lbl_sealed = lbl_sealed
        self.measurement = _measurement(
            hashlib.sha256(fn_sealed.encode()).digest(),
            hashlib.sha256(lbl_sealed.encode()).digest(),
        )
        self.state = "created"
        self._lock = threading.Lock()
        self._wrap: bytes | None = None
        self._img_key: bytes | None = None
        self._front = None
        self._labels: list[str] | None = None
        self._audit = audit

    # -- boundary ---------------------------------------------------------

    def call(self, request: bytes) -> bytes:
        """Handle one boundary frame and return the response frame.

        Every returned frame is appended to the audit list, if there is one.
        """
        with self._lock:
            try:
                msg_type, payload = protocol.unpack_frame(request)
                response = self._dispatch(msg_type, payload)
            except Exception as exc:
                # a foreign exception crosses only as its type name, never a traceback
                message = str(exc) if isinstance(exc, IrshieldError) else type(exc).__name__
                response = protocol.pack_frame(
                    MSG_ERROR, protocol.error_payload(protocol.error_code(exc), message)
                )
            if self._audit is not None:
                self._audit.append(response)
            return response

    def boundary_output(self) -> bytes:
        """Every byte this session has returned, or ``b""`` without an audit list."""
        return b"".join(self._audit or ())

    # -- in-enclave handlers ----------------------------------------------

    def _dispatch(self, msg_type: int, payload: bytes) -> bytes:
        if msg_type not in _REQUESTS:
            raise ProtocolError(f"unknown boundary message type {msg_type:#x}")
        op, state, handler, reply_type = _REQUESTS[msg_type]
        if self.state != state:
            raise StateError(f"{op} requires state {state!r}, session is {self.state!r}")
        return protocol.pack_frame(reply_type, handler(self, payload))

    def _fail(self) -> None:
        self.state = "failed"
        self._wrap = None
        self._img_key = None
        self._front = None
        self._labels = None

    def _handle_attest(self, payload: bytes) -> bytes:
        if len(payload) != _ATTEST_REQUEST.size:
            raise ProtocolError("attest request must carry a 32-byte root key and nonce")
        root_key, client_nonce = _ATTEST_REQUEST.unpack(payload)
        mac = _mac(root_key, b"attest", self.measurement, client_nonce)
        self._wrap = _wrap_key(root_key, self.measurement, client_nonce, mac)
        self.state = "attested"
        return _EVIDENCE.pack(self.measurement, mac)

    def _handle_provision(self, payload: bytes) -> bytes:
        from cryptography.exceptions import InvalidTag
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        wrap, self._wrap = self._wrap, None
        try:
            if len(payload) < NONCE_LEN + 16:
                raise AuthError("key message too short")
            try:
                keys = AESGCM(wrap).decrypt(payload[:NONCE_LEN], payload[NONCE_LEN:],
                                            b"irshield-keys")
            except InvalidTag:
                raise AuthError("key message rejected: not bound to this session") from None
            if len(keys) != 2 * KEY_LEN:
                raise AuthError("key message carried malformed key material")
            model_key, img_key = keys[:KEY_LEN], keys[KEY_LEN:]
            model_blob = open_container(self._fn_sealed.expect_type("frontnet"), model_key)
            labels_blob = open_container(self._lbl_sealed.expect_type("labels"), model_key)
            try:
                front = parse_network(*unpack_model(model_blob))
            except IrshieldError as exc:
                # an artifact that authenticates but is no model answers like bad labels
                raise AuthError(str(exc)) from None
            try:
                # write_artifacts joins with "\n" alone; other line breaks belong to a label
                labels = labels_blob.decode().split("\n")
            except UnicodeDecodeError:
                raise AuthError("labels artifact is not UTF-8 text") from None
        except BaseException:
            # fail closed: whatever went wrong, no partial secret stays
            self._fail()
            raise
        self._img_key = img_key
        self._front = front
        self._labels = labels
        self.state = "ready"
        return b""

    def _handle_infer(self, payload: bytes) -> bytes:
        container = SealedContainer.decode(payload).expect_type("image")
        image = Tensor.decode(open_container(container, self._img_key))
        if not image.is_finite():
            raise ProtocolError("image holds non-finite pixels")
        # the engine refuses an image of another shape than the model input
        ir = forward_range(self._front, 1, self._front.n_layers, image)
        if not ir.is_finite():
            # finite pixels can still overflow; such a tensor never leaves
            raise IrshieldError("front model produced non-finite activations")
        return ir.encode()

    def _handle_map(self, payload: bytes) -> bytes:
        # a count, then that many entries; the seal nonce is always drawn
        # here, never taken from the host
        if len(payload) < _COUNT.size:
            raise ProtocolError("class-mapping request truncated")
        (count,) = _COUNT.unpack_from(payload)
        if len(payload) != _COUNT.size + count * _MAP_ENTRY.size:
            raise ProtocolError("class-mapping request length does not match its entry count")
        entries = []
        for index, score in _MAP_ENTRY.iter_unpack(payload[_COUNT.size :]):
            if not (1 <= index <= len(self._labels)):
                raise ShapeError(f"class index {index} outside 1..{len(self._labels)}")
            entries.append((index, self._labels[index - 1], score))
        return seal(encode_result_payload(entries), self._img_key, "result").encode()


# request type -> (operation, required state, handler, reply type)
_REQUESTS = {
    MSG_ATTEST_REQ: ("attest", "created", EnclaveSession._handle_attest, MSG_ATTEST_EVIDENCE),
    MSG_PROVISION: ("provision_keys", "attested", EnclaveSession._handle_provision,
                    MSG_PROVISION_OK),
    MSG_INFER: ("infer_encrypted_image", "ready", EnclaveSession._handle_infer, MSG_IR),
    MSG_MAP: ("map_classes", "ready", EnclaveSession._handle_map, MSG_RESULT),
}


def _call(session: EnclaveSession, msg_type: int, payload: bytes) -> bytes:
    response = session.call(protocol.pack_frame(msg_type, payload))
    got_type, got_payload = protocol.unpack_frame(response)
    if got_type == MSG_ERROR:
        protocol.raise_error(got_payload)
    if got_type != _REQUESTS[msg_type][3]:
        raise ProtocolError(f"unexpected boundary response type {got_type:#x}")
    return got_payload


def enclave_create(
    fn_sealed: SealedContainer, lbl_sealed: SealedContainer, audit: list | None = None
) -> EnclaveSession:
    """Create a session around two sealed artifacts; nothing is decrypted.

    ``audit``, when given, records every frame the session returns.
    """
    return EnclaveSession(fn_sealed, lbl_sealed, audit)


def attest(session: EnclaveSession, client_nonce: bytes, root_key: bytes) -> AttestationEvidence:
    """MAC the session measurement together with the client's nonce, which
    the enclave refuses unless it is 32 bytes."""
    # joined, not packed: a nonce of another length reaches the enclave, which refuses it
    payload = _call(session, MSG_ATTEST_REQ, check_key(root_key, "root key") + client_nonce)
    return AttestationEvidence(*_EVIDENCE.unpack(payload))


def provision_keys(session: EnclaveSession, key_msg: bytes) -> None:
    """Install wrapped keys, then decrypt and load the model and labels."""
    _call(session, MSG_PROVISION, key_msg)


def infer_encrypted_image(session: EnclaveSession, img_sealed) -> Tensor:
    """Run the loaded front model on a sealed image; only the intermediate
    tensor crosses back."""
    if isinstance(img_sealed, SealedContainer):
        img_sealed = img_sealed.encode()
    payload = _call(session, MSG_INFER, bytes(img_sealed))
    return Tensor.decode(payload)


def map_classes(session: EnclaveSession, pv_top: list[tuple[int, float]]) -> bytes:
    """Translate (class index, score) pairs to labeled results, sealed under
    the session's image key with a nonce the enclave draws. Returns the
    encoded result container exactly as the enclave framed it."""
    body = b"".join(_MAP_ENTRY.pack(index, score) for index, score in pv_top)
    return _call(session, MSG_MAP, _COUNT.pack(len(pv_top)) + body)
