"""Fixed model set-up and seeded inputs shared by every perfbench process.

All workloads use plain17: seed 42 with 10 classes is the assessed and
served model, seed 2 the assessment oracle. The model is partitioned at
cut 12 (the cut ``assess_model`` chooses for it) and served with k = 3.
Everything a run feeds the program is derived from ``--seed`` here, except
the NaN probe image, which is the same in every run.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

ARCH = "plain17"
MODEL_SEED = 42
ORACLE_SEED = 2
CLASSES = 10
CUT = 12
K = 3
LABELS = [f"class-{i:02d}" for i in range(1, CLASSES + 1)]
SHAPE_CHW = (3, 32, 32)

# Distinct images per run; operations cycle through them.
POOL = 8
# serve-persistent: predicts per round on each connection; the last one of
# every round carries the NaN probe image.
ROUND = 32


def images(seed: int, n: int = POOL) -> list[np.ndarray]:
    """``n`` seeded (c, h, w) float32 images with 8-bit values k/255.

    8-bit values make the images survive a PPM round trip bit for bit, so
    the file-based client and the sealed-tensor client see the same pixels.
    """
    rng = np.random.default_rng([seed, 0x1A6E])
    raw = rng.integers(0, 256, size=(n, *SHAPE_CHW))
    return [(raw[i].astype(np.float64) / 255.0).astype(np.float32) for i in range(n)]


def nan_image() -> np.ndarray:
    """A seed-independent image with one NaN pixel."""
    img = images(0, 1)[0].copy()
    img[0, 0, 0] = np.nan
    return img


def keys(seed: int) -> dict[str, bytes]:
    """Model, image and attestation root keys for a run."""
    return {
        name: hashlib.sha256(f"perfbench/{name}/{seed}".encode()).digest()
        for name in ("model", "image", "root")
    }


def tensor_bytes(img: np.ndarray) -> bytes:
    """The tensor codec (u32 LE w, h, c, then f32 LE values), written here
    rather than taken from the program so sealed inputs are made apart
    from it."""
    c, h, w = img.shape
    return (
        np.array([w, h, c], dtype="<u4").tobytes() + img.astype("<f4").tobytes()
    )


def write_ppm(img: np.ndarray, path: Path) -> None:
    c, h, w = img.shape
    raster = np.rint(img.transpose(1, 2, 0) * 255.0).astype(np.uint8)
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode() + raster.tobytes())
