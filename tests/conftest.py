import ctypes
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from irshield.fixtures import gen_fixture_model
from irshield.netdef import NetworkDef, parse_network
from irshield.partition import MANIFEST_NAME, parse_manifest, render_manifest
from irshield.tensor import Tensor
from irshield.workload import flop_profile

GOLDEN_DIR = Path(__file__).parent / "golden"


def blas_kernel() -> str:
    """The core that numpy's OpenBLAS picked for this CPU, on whose summation order
    the goldens' bytes depend, or "unknown" where no scipy-openblas library is mapped."""
    try:
        with open("/proc/self/maps") as maps:
            paths = [line.split(None, 5)[5].strip() for line in maps
                     if "libscipy_openblas64_" in line]
        corename = ctypes.CDLL(paths[0]).scipy_openblas_get_corename64_
    except (OSError, IndexError, AttributeError):  # no /proc, no such library or symbol
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def pytest_report_header(config):
    return f"BLAS kernel: {blas_kernel()}"


def pytest_terminal_summary(terminalreporter):
    # -q hides the report header, so the kernel is named at the end as well
    terminalreporter.write_line(f"BLAS kernel: {blas_kernel()}")


def seed_image(shape: tuple[int, int, int], seed: int) -> Tensor:
    """Deterministic pseudo-random image with values in [0, 1)."""
    w, h, c = shape
    rng = np.random.default_rng(seed)
    return Tensor.from_array(rng.random((c, h, w), dtype=np.float32))


def write_netpbm(t: Tensor, path) -> None:
    """Write a one-channel tensor as binary PGM or a three-channel one as binary
    PPM, values clipped to [0, 1] and rounded to 8 bits."""
    c, h, w = t.array.shape
    raster = np.clip(np.rint(t.array.astype(np.float64) * 255.0), 0, 255).astype(np.uint8)
    magic = {1: "P5", 3: "P6"}[c]
    Path(path).write_bytes(f"{magic}\n{w} {h}\n255\n".encode() + raster.transpose(1, 2, 0).tobytes())


def rewrite_artifact(directory: Path, name: str, blob: bytes) -> None:
    """Replace one artifact and rehash its manifest line, as the host, which
    holds both files, can."""
    (directory / name).write_bytes(blob)
    hashes = parse_manifest((directory / MANIFEST_NAME).read_text())
    hashes[name] = hashlib.sha256(blob).hexdigest()
    (directory / MANIFEST_NAME).write_text(render_manifest(hashes))


def one_layer_flops(layer, input_shape: tuple[int, int, int]) -> int:
    """FLOPs of ``layer`` (index 1) costed as the only layer of a network
    whose input has shape (w, h, c)."""
    return flop_profile(NetworkDef(input_shape, (layer,))).total


@pytest.fixture(scope="session")
def plain17():
    cfg, weights = gen_fixture_model("plain17", 42, 10)
    return parse_network(cfg, weights)


@pytest.fixture(scope="session")
def plain28():
    cfg, weights = gen_fixture_model("plain28", 42, 10)
    return parse_network(cfg, weights)


@pytest.fixture(scope="session")
def denseblock():
    cfg, weights = gen_fixture_model("denseblock", 1, 10)
    return parse_network(cfg, weights)
