"""Image helpers: corner-aligned bilinear resampling and PGM/PPM files.

Netpbm is the only supported image format (ASCII ``P2``/``P3`` and binary
``P5``/``P6``): it is trivially parseable and keeps compressed-format attack
surface out of the serving path. Pixels load scaled to [0, 1].
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ShapeError
from .tensor import Tensor

__all__ = [
    "bilinear_resize",
    "resize_to_shape",
    "load_image",
    "write_pgm",
    "write_ppm",
]


def bilinear_resize(maps: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resample the last two axes with corner-aligned bilinear interpolation.

    Corners map to corners: a source corner value is reproduced exactly at
    the matching destination corner. Degenerate axes (output size 1) sample
    coordinate 0. Leading axes are independent maps, each resampled with the
    same elementwise arithmetic as on its own. Returns float64; values stay
    within [min, max] of the source up to rounding.
    """
    h, w = maps.shape[-2:]
    src = maps.astype(np.float64)
    sy = np.arange(out_h) * ((h - 1) / (out_h - 1)) if out_h > 1 else np.zeros(1)
    sx = np.arange(out_w) * ((w - 1) / (out_w - 1)) if out_w > 1 else np.zeros(1)
    y0 = np.floor(sy).astype(int)[:, None]
    x0 = np.floor(sx).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = sy[:, None] - y0
    fx = sx - x0
    top = src[..., y0, x0] * (1 - fx) + src[..., y0, x1] * fx
    bottom = src[..., y1, x0] * (1 - fx) + src[..., y1, x1] * fx
    return top * (1 - fy) + bottom * fy


def _adapt_channels(arr: np.ndarray, out_c: int) -> np.ndarray:
    c = arr.shape[0]
    if c == out_c:
        return arr
    if c == 1:
        return np.repeat(arr, out_c, axis=0)
    collapsed = arr.mean(axis=0, keepdims=True)
    return np.repeat(collapsed, out_c, axis=0)


def resize_to_shape(image: Tensor, shape: tuple[int, int, int]) -> Tensor:
    """Fit an image tensor to (w, h, c): bilinear spatial resize, then
    channel replication (1 -> c) or averaging (c -> 1 -> c')."""
    w, h, c = shape
    adapted = _adapt_channels(bilinear_resize(image.array, h, w), c)
    return Tensor.from_array(np.clip(adapted, 0.0, 1.0).astype(np.float32))


# --- netpbm ------------------------------------------------------------------


class _TokenReader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def token(self) -> bytes:
        while self.pos < len(self.blob):
            ch = self.blob[self.pos : self.pos + 1]
            if ch == b"#":
                nl = self.blob.find(b"\n", self.pos)
                self.pos = len(self.blob) if nl < 0 else nl + 1
            elif ch.isspace():
                self.pos += 1
            else:
                break
        start = self.pos
        while self.pos < len(self.blob) and not self.blob[self.pos : self.pos + 1].isspace():
            self.pos += 1
        if start == self.pos:
            raise ShapeError("truncated netpbm header")
        return self.blob[start : self.pos]

    def int_token(self, name: str) -> int:
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            raise ShapeError(f"bad netpbm {name}: {tok!r}") from None


def load_image(path: str | Path) -> Tensor:
    """Load a PGM/PPM file as a tensor with values in [0, 1]."""
    blob = Path(path).read_bytes()
    reader = _TokenReader(blob)
    magic = reader.token()
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise ShapeError(f"unsupported netpbm magic {magic!r} (want P2/P3/P5/P6)")
    channels = 3 if magic in (b"P3", b"P6") else 1
    width = reader.int_token("width")
    height = reader.int_token("height")
    maxval = reader.int_token("maxval")
    if not (0 < maxval < 65536):
        raise ShapeError(f"netpbm maxval {maxval} out of range")
    count = width * height * channels

    if magic in (b"P2", b"P3"):
        samples = np.array([reader.int_token("sample") for _ in range(count)], dtype=np.float64)
    else:
        # exactly one whitespace byte separates the header from the raster
        offset = reader.pos + 1
        if maxval < 256:
            raw = np.frombuffer(blob, dtype=np.uint8, offset=offset)
        else:
            raw = np.frombuffer(blob, dtype=">u2", offset=offset)
        if raw.size < count:
            raise ShapeError(
                f"netpbm raster too short: {raw.size} samples, expected {count}"
            )
        samples = raw[:count].astype(np.float64)
    if samples.max(initial=0) > maxval:
        raise ShapeError("netpbm sample exceeds declared maxval")

    scaled = (samples / maxval).astype(np.float32)
    # raster order is row-major with interleaved channels
    arr = scaled.reshape(height, width, channels).transpose(2, 0, 1)
    return Tensor.from_array(arr)


def _quantize(t: Tensor) -> np.ndarray:
    return np.clip(np.rint(t.array.astype(np.float64) * 255.0), 0, 255).astype(np.uint8)


def write_pgm(t: Tensor, path: str | Path) -> None:
    """Write a single-channel tensor as binary PGM (values clipped to [0,1])."""
    if t.channels != 1:
        raise ShapeError(f"PGM holds one channel, tensor has {t.channels}")
    body = _quantize(t)[0].tobytes()
    Path(path).write_bytes(f"P5\n{t.width} {t.height}\n255\n".encode() + body)


def write_ppm(t: Tensor, path: str | Path) -> None:
    """Write a three-channel tensor as binary PPM (values clipped to [0,1])."""
    if t.channels != 3:
        raise ShapeError(f"PPM holds three channels, tensor has {t.channels}")
    body = _quantize(t).transpose(1, 2, 0).tobytes()
    Path(path).write_bytes(f"P6\n{t.width} {t.height}\n255\n".encode() + body)
