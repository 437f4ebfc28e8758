"""Authenticated-encryption containers for models, labels, images, results.

AES-256-GCM with a fresh random 12-byte nonce per seal. The container's
content type is bound into the authentication tag as associated data, so a
container sealed as one type can never open as another, and every opener
names the type it expects (:meth:`SealedContainer.expect_type`). Byte layout::

    'IRSC' | version u32 LE | content-type u8 | nonce (12)
           | ciphertext length u64 LE | ciphertext | tag (16)

Keys are 32 raw bytes and never appear in any serialized form.

This module alone uses the AES library, through :func:`encrypt` and
:func:`decrypt`, which the key message shares. Its classes are imported once,
on first use, not with the package: a process that only assesses or profiles
models never loads it, which keeps about 6 MB out of its resident memory.
"""

from __future__ import annotations

import functools
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
    "check_key",
    "encrypt",
    "decrypt",
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
# magic, version, content type, nonce, ciphertext length
_HEADER = struct.Struct(f"<4sIB{NONCE_LEN}sQ")


def check_key(key: bytes, name: str = "key") -> bytes:
    """``key`` as bytes, or ValueError naming it unless it is ``KEY_LEN`` bytes."""
    if not isinstance(key, (bytes, bytearray)) or len(key) != KEY_LEN:
        raise ValueError(f"{name} must be {KEY_LEN} bytes")
    return bytes(key)


@functools.cache
def _aes() -> tuple[type, type]:
    """The ``AESGCM`` class and its ``InvalidTag`` error, imported on first use."""
    from cryptography.exceptions import InvalidTag
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    return AESGCM, InvalidTag


def encrypt(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    """AES-256-GCM: the ciphertext, then its ``TAG_LEN``-byte tag."""
    aesgcm, _ = _aes()
    return aesgcm(key).encrypt(nonce, plaintext, aad)


def decrypt(key: bytes, nonce: bytes, sealed: bytes, aad: bytes, refusal: str) -> bytes:
    """The plaintext of ``encrypt``'s output; any tamper or other key raises
    AuthError(refusal)."""
    aesgcm, invalid_tag = _aes()
    try:
        return aesgcm(key).decrypt(nonce, sealed, aad)
    except invalid_tag:
        raise AuthError(refusal) from None


@dataclass(frozen=True)
class SealedContainer:
    """A container's fields; its version is always ``CONTAINER_VERSION``."""

    content_type: int
    nonce: bytes
    ciphertext: bytes
    tag: bytes

    @property
    def content_name(self) -> str:
        return CONTENT_NAMES[self.content_type]

    def expect_type(self, content_name: str) -> "SealedContainer":
        """This container, if it holds ``content_name``; any other content
        raises AuthError, whatever key would open it."""
        if self.content_name != content_name:
            raise AuthError(f"container holds {self.content_name}, expected {content_name}")
        return self

    def encode(self) -> bytes:
        header = _HEADER.pack(CONTAINER_MAGIC, CONTAINER_VERSION, self.content_type, self.nonce,
                              len(self.ciphertext))
        return b"".join((header, self.ciphertext, self.tag))

    @classmethod
    def decode(cls, blob: bytes) -> "SealedContainer":
        if len(blob) < _HEADER.size + TAG_LEN:
            raise ProtocolError(f"container truncated: {len(blob)} bytes, "
                                f"need at least {_HEADER.size + TAG_LEN}")
        magic, version, content_type, nonce, ct_len = _HEADER.unpack_from(blob)
        if magic != CONTAINER_MAGIC:
            raise ProtocolError(f"bad container magic {magic!r}")
        if version != CONTAINER_VERSION:
            raise ProtocolError(f"unsupported container version {version}")
        if content_type not in CONTENT_NAMES:
            raise ProtocolError(f"unknown container content type {content_type}")
        tag_start = _HEADER.size + ct_len
        if len(blob) != tag_start + TAG_LEN:
            raise ProtocolError(f"container length {len(blob)} does not match declared "
                                f"ciphertext length {ct_len}")
        return cls(content_type, nonce, blob[_HEADER.size : tag_start], blob[tag_start:])


def seal(plaintext: bytes, key: bytes, content_type: str,
         nonce: bytes | None = None) -> SealedContainer:
    """Encrypt and authenticate plaintext under a 256-bit key.

    A fresh random nonce is drawn per call; tests may inject one, but a
    caller reusing nonces under one key forfeits every AES-GCM guarantee.
    """
    key = check_key(key)
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
    sealed = encrypt(key, nonce, bytes(plaintext), bytes([code]))
    return SealedContainer(code, nonce, sealed[:-TAG_LEN], sealed[-TAG_LEN:])


def open_container(container: SealedContainer, key: bytes) -> bytes:
    """Verify and decrypt; raises AuthError on any tamper or key mismatch."""
    return decrypt(check_key(key), container.nonce, container.ciphertext + container.tag,
                   bytes([container.content_type]),
                   f"authentication failed for {container.content_name} container")
