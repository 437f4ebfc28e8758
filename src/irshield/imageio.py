"""Image helpers: corner-aligned bilinear resampling and the PGM/PPM reader.

Netpbm is the only supported image format (ASCII ``P2``/``P3`` and binary
``P5``/``P6``): it is trivially parseable and keeps compressed-format attack
surface out of the serving path. Pixels load scaled to [0, 1]. The package
only reads images; it writes none.
"""

from __future__ import annotations

import functools
import re
from pathlib import Path

import numpy as np

from .errors import ShapeError
from .tensor import Tensor

__all__ = ["bilinear_resize", "resize_to_shape", "load_image"]


@functools.lru_cache(maxsize=64)
def _resize_tables(h: int, w: int, out_h: int, out_w: int) -> tuple[np.ndarray, ...]:
    """``(y0, y1, 1 - fy, fy, x0, x1, 1 - fx, fx)`` of a corner-aligned resize from
    (h, w) to (out_h, out_w), row weights shaped (out_h, 1). Shared, so read-only."""
    sy = np.arange(out_h) * ((h - 1) / (out_h - 1)) if out_h > 1 else np.zeros(1)
    sx = np.arange(out_w) * ((w - 1) / (out_w - 1)) if out_w > 1 else np.zeros(1)
    y0, x0 = np.floor(sy).astype(int), np.floor(sx).astype(int)
    fy, fx = (sy - y0)[:, None], sx - x0
    tables = (y0, np.minimum(y0 + 1, h - 1), 1 - fy, fy, x0, np.minimum(x0 + 1, w - 1), 1 - fx, fx)
    for table in tables:
        table.flags.writeable = False
    return tables


def bilinear_resize(maps: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resample the last two axes with corner-aligned bilinear interpolation.

    Corners map to corners: a source corner value is reproduced exactly at
    the matching destination corner. Degenerate axes (output size 1) sample
    coordinate 0. Leading axes are independent maps, each resampled with the
    same elementwise arithmetic as on its own. Returns float64; values stay
    within [min, max] of the source up to rounding.

    Columns are blended once per source row, then the blended rows are
    gathered and blended. Each value is the same expression of the same four
    source elements as with a joint 2-D gather, so the bytes match.
    """
    src = np.asarray(maps, dtype=np.float64)
    y0, y1, gy, fy, x0, x1, gx, fx = _resize_tables(*src.shape[-2:], out_h, out_w)
    rows = np.take(src, x0, axis=-1) * gx + np.take(src, x1, axis=-1) * fx
    return np.take(rows, y0, axis=-2) * gy + np.take(rows, y1, axis=-2) * fy


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
    return Tensor.from_array(np.clip(adapted, 0.0, 1.0))


# --- netpbm ------------------------------------------------------------------


# a comment, or a token (group 1) between whitespace bytes; in a bytes pattern
# ``\s`` is exactly the set ``bytes.isspace`` tests
_TOKEN = re.compile(rb"#[^\n]*\n?|(\S+)")


def _tokens(blob: bytes):
    """Every token's match, comments skipped; asking past the last raises ShapeError."""
    for match in _TOKEN.finditer(blob):
        if match[1]:
            yield match
    raise ShapeError("truncated netpbm header")


def _int(match: re.Match, name: str) -> int:
    # ASCII decimal digits only: int() would also take signs and underscores.
    # Twenty digits hold any count a file can back; longer strings make int()
    # or the float conversion of samples raise
    tok = match[1]
    if not tok.isdigit() or len(tok) > 20:
        raise ShapeError(f"bad netpbm {name}: {tok[:24]!r}")
    return int(tok)


def load_image(path: str | Path) -> Tensor:
    """Load a PGM/PPM file as a tensor with values in [0, 1]."""
    blob = Path(path).read_bytes()
    tokens = _tokens(blob)
    magic = next(tokens)[1]
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise ShapeError(f"unsupported netpbm magic {magic!r} (want P2/P3/P5/P6)")
    channels = 3 if magic in (b"P3", b"P6") else 1
    width, height = _int(next(tokens), "width"), _int(next(tokens), "height")
    header_end = next(tokens)
    maxval = _int(header_end, "maxval")
    if not (0 < maxval < 65536):
        raise ShapeError(f"netpbm maxval {maxval} out of range")
    count = width * height * channels

    if magic in (b"P2", b"P3"):
        samples = np.array([_int(next(tokens), "sample") for _ in range(count)], dtype=np.float64)
    else:
        # exactly one whitespace byte separates the header from the raster
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        raster = blob[header_end.end() + 1 : header_end.end() + 1 + count * dtype.itemsize]
        if len(raster) < count * dtype.itemsize:
            raise ShapeError(
                f"netpbm raster too short: {len(raster) // dtype.itemsize} samples, "
                f"expected {count}"
            )
        samples = np.frombuffer(raster, dtype=dtype).astype(np.float64)
    if samples.max(initial=0) > maxval:
        raise ShapeError("netpbm sample exceeds declared maxval")

    # raster order is row-major with interleaved channels
    arr = (samples / maxval).reshape(height, width, channels).transpose(2, 0, 1)
    return Tensor.from_array(arr)

