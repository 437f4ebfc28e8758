"""Authenticated-encryption containers for models, labels, images, results.

AES-256-GCM with a fresh random 12-byte nonce per seal. The container's
content type is bound into the authentication tag as associated data, so a
container sealed as one type can never open as another. Byte layout::

    'IRSC' | version u32 LE | content-type u8 | nonce (12)
           | ciphertext length u64 LE | ciphertext | tag (16)

Keys are 32 raw bytes and never appear in any serialized form.

The AES library is imported by the functions that use it, not with the
package: a process that only assesses or profiles models never loads it,
which keeps about 6 MB out of its resident memory.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

from .errors import AuthError, ProtocolError

__all__ = [
    "CONTENT_TYPES",
    "CONTENT_NAMES",
    "SealedContainer",
    "seal",
    "open_container",
    "CONTAINER_MAGIC",
    "CONTAINER_VERSION",
    "KEY_LEN",
    "NONCE_LEN",
    "TAG_LEN",
]

CONTAINER_MAGIC = b"IRSC"
CONTAINER_VERSION = 1
KEY_LEN = 32
NONCE_LEN = 12
TAG_LEN = 16

CONTENT_TYPES = {"frontnet": 1, "labels": 2, "image": 3, "result": 4}
CONTENT_NAMES = {code: name for name, code in CONTENT_TYPES.items()}


def _check_key(key: bytes) -> bytes:
    if not isinstance(key, (bytes, bytearray)) or len(key) != KEY_LEN:
        raise ValueError(f"key must be exactly {KEY_LEN} bytes")
    return bytes(key)


@dataclass(frozen=True)
class SealedContainer:
    version: int
    content_type: int
    nonce: bytes
    ciphertext: bytes
    tag: bytes

    @property
    def content_name(self) -> str:
        return CONTENT_NAMES.get(self.content_type, f"type-{self.content_type}")

    def encode(self) -> bytes:
        return b"".join(
            (
                CONTAINER_MAGIC,
                struct.pack("<I", self.version),
                struct.pack("B", self.content_type),
                self.nonce,
                struct.pack("<Q", len(self.ciphertext)),
                self.ciphertext,
                self.tag,
            )
        )

    @classmethod
    def decode(cls, blob: bytes) -> "SealedContainer":
        header = 4 + 4 + 1 + NONCE_LEN + 8
        if len(blob) < header + TAG_LEN:
            raise ProtocolError(
                f"container truncated: {len(blob)} bytes, need at least {header + TAG_LEN}"
            )
        if blob[:4] != CONTAINER_MAGIC:
            raise ProtocolError(f"bad container magic {blob[:4]!r}")
        version = struct.unpack_from("<I", blob, 4)[0]
        if version != CONTAINER_VERSION:
            raise ProtocolError(f"unsupported container version {version}")
        content_type = blob[8]
        if content_type not in CONTENT_NAMES:
            raise ProtocolError(f"unknown container content type {content_type}")
        nonce = blob[9 : 9 + NONCE_LEN]
        (ct_len,) = struct.unpack_from("<Q", blob, 9 + NONCE_LEN)
        body_start = header
        if len(blob) != body_start + ct_len + TAG_LEN:
            raise ProtocolError(
                f"container length {len(blob)} does not match declared "
                f"ciphertext length {ct_len}"
            )
        ciphertext = blob[body_start : body_start + ct_len]
        tag = blob[body_start + ct_len :]
        return cls(version, content_type, nonce, ciphertext, tag)


def seal(
    plaintext: bytes,
    key: bytes,
    content_type: str,
    nonce: bytes | None = None,
) -> SealedContainer:
    """Encrypt and authenticate plaintext under a 256-bit key.

    A fresh random nonce is drawn per call; tests may inject one, but a
    caller reusing nonces under one key forfeits every AES-GCM guarantee.
    """
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    key = _check_key(key)
    try:
        code = CONTENT_TYPES[content_type]
    except KeyError:
        raise ValueError(
            f"unknown content type {content_type!r}; expected one of {sorted(CONTENT_TYPES)}"
        ) from None
    if nonce is None:
        nonce = os.urandom(NONCE_LEN)
    elif len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    sealed = AESGCM(key).encrypt(nonce, bytes(plaintext), bytes([code]))
    return SealedContainer(
        version=CONTAINER_VERSION,
        content_type=code,
        nonce=nonce,
        ciphertext=sealed[:-TAG_LEN],
        tag=sealed[-TAG_LEN:],
    )


def open_container(container: SealedContainer, key: bytes) -> bytes:
    """Verify and decrypt; raises AuthError on any tamper or key mismatch."""
    from cryptography.exceptions import InvalidTag
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    key = _check_key(key)
    try:
        return AESGCM(key).decrypt(
            container.nonce,
            container.ciphertext + container.tag,
            bytes([container.content_type]),
        )
    except InvalidTag:
        raise AuthError(
            f"authentication failed for {container.content_name} container"
        ) from None
