"""Dense 3-D tensors (width x height x channels) of 32-bit reals.

The flat element order is channel-major, then row-major within a channel:
``data[c*(w*h) + y*w + x]``. All layer math in :mod:`irshield.engine`
consumes and produces this layout.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ShapeError

__all__ = ["Tensor"]


class Tensor:
    """A w x h x c block of float32 values backed by a numpy array.

    The backing array has shape ``(c, h, w)`` and is frozen after
    construction, so instances are safe to share across threads.
    """

    __slots__ = ("_arr",)

    def __init__(self, width: int, height: int, channels: int, data):
        if width < 1 or height < 1 or channels < 1:
            raise ShapeError(
                f"tensor dimensions must be positive, got {width}x{height}x{channels}"
            )
        arr = np.asarray(data, dtype=np.float32).reshape(-1)
        expected = width * height * channels
        if arr.size != expected:
            raise ShapeError(
                f"tensor data length {arr.size} != w*h*c = {expected} "
                f"for shape {width}x{height}x{channels}"
            )
        arr = arr.reshape(channels, height, width).copy()
        arr.flags.writeable = False
        self._arr = arr

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Tensor":
        """Wrap a ``(c, h, w)`` array."""
        if arr.ndim != 3:
            raise ShapeError(f"expected a 3-D (c, h, w) array, got ndim={arr.ndim}")
        c, h, w = arr.shape
        return cls(w, h, c, arr)

    @property
    def width(self) -> int:
        return self._arr.shape[2]

    @property
    def height(self) -> int:
        return self._arr.shape[1]

    @property
    def channels(self) -> int:
        return self._arr.shape[0]

    @property
    def shape(self) -> tuple[int, int, int]:
        """(width, height, channels)."""
        c, h, w = self._arr.shape
        return (w, h, c)

    @property
    def array(self) -> np.ndarray:
        """Read-only backing array of shape (c, h, w)."""
        return self._arr

    @property
    def data(self) -> np.ndarray:
        """Flat element view in channel-major, row-major order."""
        return self._arr.reshape(-1)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self._arr).all())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self._arr.shape == other._arr.shape and bool(
            (self._arr == other._arr).all()
        )

    def __hash__(self):  # tensors are mutable-looking; keep them unhashable
        raise TypeError("Tensor is not hashable")

    def __repr__(self) -> str:
        w, h, c = self.shape
        return f"Tensor({w}x{h}x{c})"

    # Binary codec used wherever tensors cross a byte boundary (sealed image
    # payloads, enclave boundary messages): u32 LE w, h, c then f32 LE values.

    def encode(self) -> bytes:
        w, h, c = self.shape
        return struct.pack("<III", w, h, c) + self._arr.astype("<f4").tobytes()

    @classmethod
    def decode(cls, blob: bytes) -> "Tensor":
        if len(blob) < 12:
            raise ShapeError("tensor blob shorter than its 12-byte header")
        w, h, c = struct.unpack_from("<III", blob, 0)
        expected = 12 + 4 * w * h * c
        if len(blob) != expected:
            raise ShapeError(
                f"tensor blob length {len(blob)} != expected {expected} bytes"
            )
        values = np.frombuffer(blob, dtype="<f4", offset=12)
        return cls(w, h, c, values)
