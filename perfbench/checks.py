"""Output checks, computed apart from the program or from properties the
method must have.

Expected serving results come from the unsplit model's forward pass (split
halves must compose bit for bit) and from the scalar oracle in
``tests/reference.py``; assessment reports are checked against
brute-force recomputations of the cut rule, the valid cut set and the
uniform baseline.
"""

from __future__ import annotations

import importlib.util
import math
import struct
from pathlib import Path

import numpy as np

REF_RTOL = 1e-4
REF_ATOL = 1e-6


class CheckError(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def load_reference(root: Path):
    """The scalar, loop-based oracle shipped with the tests."""
    spec = importlib.util.spec_from_file_location("perfbench_reference", root / "tests" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_probs(reference, net, img: np.ndarray) -> np.ndarray:
    return np.asarray(reference.ref_forward_range(net, 1, net.n_layers, img)).reshape(-1)


# -- serving ------------------------------------------------------------------


def expected_top_k(probs: np.ndarray, k: int) -> list[tuple[int, float]]:
    """1-based (index, float32 score) pairs, descending, ties to the lower index."""
    probs = np.asarray(probs, dtype=np.float32).reshape(-1)
    order = sorted(range(probs.size), key=lambda i: (-float(probs[i]), i))[:k]
    return [(i + 1, float(probs[i])) for i in order]


def decode_result(blob: bytes) -> list[tuple[int, str, float]]:
    """Parse a result payload: u32 count, then per entry u32 index,
    f32 score, u16 label length, label."""
    (count,) = struct.unpack_from("<I", blob, 0)
    pos, out = 4, []
    for _ in range(count):
        index, score = struct.unpack_from("<If", blob, pos)
        (n,) = struct.unpack_from("<H", blob, pos + 8)
        pos += 10
        out.append((index, blob[pos : pos + n].decode(), score))
        pos += n
    require(pos == len(blob), "result payload has trailing bytes")
    return out


class ServingExpectations:
    """Per pool image, the top-k of the unsplit model's forward pass, which
    served results must equal bit for bit. Its scores are checked once
    against the scalar reference."""

    def __init__(self, ir, reference, net, pool: list[np.ndarray], labels: list[str], k: int):
        self.labels = labels
        self.k = k
        self.top = []
        for img in pool:
            top = expected_top_k(ir.forward(net, ir.Tensor.from_array(img)), k)
            self.top.append(top)
            scores = np.array([s for _, s in top])
            want = reference_probs(reference, net, img)[[i - 1 for i, _ in top]]
            require(
                np.allclose(scores, want, rtol=REF_RTOL, atol=REF_ATOL),
                f"unsplit forward {scores} disagrees with the scalar reference {want}",
            )

    def check_entries(self, image: int, entries: list[tuple[int, str, float]]) -> None:
        """Entries as (index, label, score) from a result payload."""
        require(len(entries) == self.k, f"result holds {len(entries)} entries, want {self.k}")
        got = [(i, s) for i, _, s in entries]
        require(got == self.top[image], f"image {image}: top-k {got} != unsplit {self.top[image]}")
        for index, label, _ in entries:
            require(label == self.labels[index - 1], f"label {label!r} for class {index}")

    def check_labels(self, image: int, pairs: list[tuple[str, float]]) -> None:
        """Pairs as (label, score) from ``client_predict``."""
        want = [(self.labels[i - 1], s) for i, s in self.top[image]]
        require(list(pairs) == want, f"image {image}: result {pairs} != unsplit {want}")


# -- assessment ---------------------------------------------------------------


def brute_force_valid(net) -> set[int]:
    """Cuts i in 1..n-1 that no route after i reads across."""
    n = net.n_layers
    return {
        i
        for i in range(1, n)
        if not any(
            layer.kind == "route" and layer.index > i and min(layer.sources) <= i
            for layer in net.layers
        )
    }


def brute_force_cut(deltas: list[float], valid: set[int]) -> int | None:
    """Smallest valid i whose deltas all stay above 1 from i onward."""
    for i in sorted(valid):
        if all(d > 1 for d in deltas[i - 1 :]):
            return i
    return None


def baseline64(probs: np.ndarray) -> float:
    """log10(N) - H(p) in float64, with 0 log 0 = 0."""
    p = np.asarray(probs, dtype=np.float64).reshape(-1)
    nz = p[p > 0]
    return math.log10(p.size) + float(np.sum(nz * np.log10(nz)))


def report_dict(report) -> dict:
    return {
        "uniform_baseline": report.uniform_baseline,
        "chosen": report.chosen,
        "valid_points": sorted(report.valid_points),
        "layers": [[r.layer, r.min_kl, r.max_kl, r.argmin_j, r.delta] for r in report.layers],
    }


def check_report(rep: dict, gen_net, baseline: float) -> None:
    """One single-image report against the recomputations."""
    n = gen_net.n_layers
    rows = rep["layers"]
    require([r[0] for r in rows] == list(range(1, n)), "report does not cover layers 1..n-1")
    b = rep["uniform_baseline"]
    # float32 probabilities sum to 1 only within about N * 6e-8, and the two
    # forms of the divergence differ by log10(N) times that residue
    require(abs(b - baseline) <= 1e-6, f"baseline {b} != recomputed {baseline}")
    for layer, min_kl, max_kl, argmin_j, delta in rows:
        require(min_kl <= max_kl, f"layer {layer}: min_kl {min_kl} > max_kl {max_kl}")
        require(delta == min_kl / b, f"layer {layer}: delta {delta} != min_kl / baseline")
        maps = gen_net.layer_output_shapes[layer - 1][2]
        require(1 <= argmin_j <= maps, f"layer {layer}: argmin_j {argmin_j} outside 1..{maps}")
    valid = brute_force_valid(gen_net)
    require(set(rep["valid_points"]) == valid, f"valid points {rep['valid_points']} != {sorted(valid)}")
    want = brute_force_cut([r[4] for r in rows], valid)
    require(rep["chosen"] == want, f"chosen cut {rep['chosen']} != brute force {want}")
