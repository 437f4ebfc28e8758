"""Dense 3-D tensors (width x height x channels) of 32-bit reals.

A tensor is made only by :meth:`Tensor.from_array` from a ``(c, h, w)``
array. The flat order of the encoded values is that array's:
channel-major, then row-major within a channel,
``values[c*(w*h) + y*w + x]``. All layer math in :mod:`irshield.engine`
consumes and produces this layout.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ShapeError

__all__ = ["Tensor"]

# the encoded form: u32 LE w, h, c, then f32 LE values
_HEADER = struct.Struct("<III")
_VALUE = np.dtype("<f4")


class Tensor:
    """A w x h x c block of float32 values backed by a numpy array.

    The backing array has shape ``(c, h, w)`` and is frozen after
    construction, so instances are safe to share across threads.
    """

    __slots__ = ("_arr",)

    @classmethod
    def from_array(cls, arr) -> "Tensor":
        """A tensor holding a float32 copy of a non-empty ``(c, h, w)`` array."""
        arr = np.array(arr, dtype=np.float32, order="C")
        if arr.ndim != 3 or arr.size == 0:
            raise ShapeError(f"a tensor is a 3-D (c, h, w) array of positive dimensions, "
                             f"got shape {arr.shape}")
        arr.flags.writeable = False
        tensor = cls.__new__(cls)
        tensor._arr = arr
        return tensor

    @property
    def shape(self) -> tuple[int, int, int]:
        """(width, height, channels)."""
        c, h, w = self._arr.shape
        return (w, h, c)

    @property
    def array(self) -> np.ndarray:
        """Read-only backing array of shape (c, h, w)."""
        return self._arr

    def is_finite(self) -> bool:
        return bool(np.isfinite(self._arr).all())

    # Binary codec used wherever tensors cross a byte boundary (sealed image
    # payloads, enclave boundary messages).

    def encode(self) -> bytes:
        return _HEADER.pack(*self.shape) + self._arr.astype(_VALUE).tobytes()

    @classmethod
    def decode(cls, blob: bytes) -> "Tensor":
        if len(blob) < _HEADER.size:
            raise ShapeError(f"tensor blob shorter than its {_HEADER.size}-byte header")
        w, h, c = _HEADER.unpack_from(blob)
        expected = _HEADER.size + _VALUE.itemsize * w * h * c
        if len(blob) != expected:
            raise ShapeError(f"tensor blob length {len(blob)} != expected {expected} bytes")
        values = np.frombuffer(blob, dtype=_VALUE, offset=_HEADER.size)
        return cls.from_array(values.reshape(c, h, w))
