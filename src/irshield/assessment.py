"""Layer-by-layer leakage assessment and partition-point selection.

An assessed model (the "generator") runs an input up to some layer; every
feature map of that layer is projected back to an image and classified by a
second, fixed "oracle" network. The base-10 KL divergence between the
oracle's view of the original input and its view of each projected map
scores how much of the input that layer still gives away: the lower the
divergence, the more the map resembles the input. Scores are normalized by
the divergence between the input's own classification and the discrete
uniform distribution, giving a per-layer ratio. Layers are safe to expose
once the ratio stays above 1 from that layer onward.

A constant channel projects to the all-zero image, and so does any map whose
projection is byte-identical to it. Those maps share one oracle pass of the
zero image per call and one divergence per input; the rest go through the
oracle in batches of at most ORACLE_BATCH. The scores are exact, not
approximate: an oracle batch row is byte-identical to a lone pass, so every
such map would have scored the same bytes on its own.

All divergences use base-10 logarithms, so the uniform-distribution
normalizer for a confidently classified input over N classes is log10(N)
(3.0 at N = 1000).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import forward, forward_batch, forward_range
from .imageio import bilinear_resize, resize_to_shape
from .netdef import NetworkDef
from .tensor import Tensor

__all__ = [
    "kl_divergence",
    "uniform_baseline",
    "project_feature_maps",
    "assess_layer",
    "assess_model",
    "valid_partition_points",
    "choose_partition",
    "epsilon_ratio",
    "LayerKLStats",
    "AssessmentReport",
    "report_table",
    "report_tsv",
    "PROB_FLOOR",
]

# Projected maps go through the oracle in batches of at most this many: large
# enough to spread numpy's per-call overhead, small enough that the batch's
# intermediates stay a small share of the assessing process's memory.
ORACLE_BATCH = 8

# Probabilities are clamped below at this floor (then renormalized) before a
# divergence is computed, so an exactly-zero class score cannot produce an
# infinite divergence.
PROB_FLOOR = 1e-10


def kl_divergence(p, q) -> float:
    """Base-10 KL divergence sum(p * log10(p / q)) with zero smoothing.

    Both arguments are clamped below at PROB_FLOOR and renormalized, so the
    result is finite for any pair of probability vectors and non-negative up
    to smoothing error.
    """
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    if p.size != q.size:
        raise ValueError(f"length mismatch: p has {p.size} entries, q has {q.size}")
    ps = np.maximum(p, PROB_FLOOR)
    qs = np.maximum(q, PROB_FLOOR)
    ps = ps / ps.sum()
    qs = qs / qs.sum()
    return float(np.sum(ps * np.log10(ps / qs)))


def uniform_baseline(p) -> float:
    """Divergence of p from the discrete uniform distribution over its size.

    Computed directly as sum over nonzero entries of p * log10(p * N), the
    exact divergence against uniform(N) with the 0*log(0) = 0 convention;
    algebraically log10(N) minus the base-10 entropy of p. No smoothing is
    applied (the uniform side has no zeros), so a one-hot vector over 1000
    classes scores exactly 3.0.
    """
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    n = p.size
    mask = p > 0
    vals = p[mask]
    return float(np.sum(vals * np.log10(vals * n)))


def epsilon_ratio(dist_with_ir: float, dist_background_only: float) -> float:
    """Ratio of reconstruction distances with vs without an exposed tensor.

    Callers compare the ratio against a confidentiality bound in [0, 1]:
    a ratio at or below the bound means the exposure helped an attacker.
    """
    if dist_background_only <= 0:
        raise ValueError(
            f"background-only distance must be positive, got {dist_background_only}"
        )
    if dist_with_ir < 0:
        raise ValueError(f"distances must be non-negative, got {dist_with_ir}")
    return dist_with_ir / dist_background_only


@dataclass(frozen=True)
class LayerKLStats:
    """Divergence statistics for one layer of the assessed model."""

    layer: int
    min_kl: float
    max_kl: float
    argmin_j: int  # 1-based feature-map index attaining min_kl
    delta: float  # min_kl / uniform_baseline of the same input


@dataclass(frozen=True)
class AssessmentReport:
    input_id: str
    uniform_baseline: float
    layers: tuple[LayerKLStats, ...]
    valid_points: frozenset[int]
    chosen: int | None


def project_feature_maps(
    ir: Tensor, oracle_input_shape: tuple[int, int, int]
) -> tuple[Tensor, ...]:
    """Turn each channel of a layer output into an oracle-ready image.

    Each channel is min-max normalized to [0, 1] independently (a constant
    channel becomes all zeros), resized with corner-aligned bilinear
    sampling, and replicated across the oracle's input channels. Positive
    rescaling of a channel therefore leaves its projection unchanged.
    """
    ow, oh, oc = oracle_input_shape
    maps = ir.array.astype(np.float64)
    lo = maps.min(axis=(1, 2))
    hi = maps.max(axis=(1, 2))
    varies = hi != lo
    flat = np.zeros((ir.channels, oh, ow))
    span = (hi[varies] - lo[varies])[:, None, None]
    flat[varies] = bilinear_resize((maps[varies] - lo[varies, None, None]) / span, oh, ow)
    planes = np.clip(flat, 0.0, 1.0).astype(np.float32)
    return tuple(Tensor.from_array(np.repeat(plane[None], oc, axis=0)) for plane in planes)


def _oracle_probs(irval: NetworkDef, image: Tensor) -> np.ndarray:
    if image.shape != irval.input_shape:
        image = resize_to_shape(image, irval.input_shape)
    return forward(irval, image)


def _zero_image_probs(irval: NetworkDef) -> np.ndarray:
    """The oracle's probabilities for the all-zero image, the projection of
    every constant feature map."""
    ow, oh, oc = irval.input_shape
    return forward_batch(irval, np.zeros((1, oc, oh, ow), np.float32))[0]


class _OracleBase(NamedTuple):
    """The oracle's view of one input, against which its maps are scored."""

    probs: np.ndarray
    baseline: float  # uniform_baseline(probs)
    zero_kl: float  # divergence of the all-zero projection from probs


def _oracle_base(irval: NetworkDef, x: Tensor, zero_probs: np.ndarray) -> _OracleBase:
    base_probs = _oracle_probs(irval, x)
    baseline = uniform_baseline(base_probs)
    if baseline <= 0:
        raise ValueError(
            "oracle classified an input as exactly uniform; layer ratios are undefined"
        )
    return _OracleBase(base_probs, baseline, kl_divergence(base_probs, zero_probs))


def _score_images(
    layer_i: int, images: tuple[Tensor, ...], irval: NetworkDef, base: _OracleBase
) -> LayerKLStats:
    """Score one layer's projected maps. A map byte-identical to the all-zero
    image takes the shared ``base.zero_kl`` (see the module docstring)."""
    batch = np.stack([img.array for img in images])
    scores = [base.zero_kl] * len(batch)
    rest = np.flatnonzero(batch.reshape(len(batch), -1).view(np.uint32).any(axis=1))
    for lo in range(0, len(rest), ORACLE_BATCH):
        chunk = rest[lo : lo + ORACLE_BATCH]
        for j, probs in zip(chunk, forward_batch(irval, batch[chunk])):
            scores[j] = kl_divergence(base.probs, probs)
    best = min(range(len(scores)), key=lambda j: (scores[j], j))
    return LayerKLStats(
        layer=layer_i,
        min_kl=scores[best],
        max_kl=max(scores),
        argmin_j=best + 1,
        delta=scores[best] / base.baseline,
    )


def _generator_outputs(x: Tensor, irgen: NetworkDef, last: int) -> list[Tensor]:
    """Outputs of generator layers ``1..last``, each layer evaluated once.

    Layer ``i`` runs alone on layer ``i - 1``'s output, which reproduces a
    pass from layer 1 bit for bit. A route layer instead reruns the span
    back to its earliest source, since a range may not reach past its start.
    """
    outs = [x]
    for i in range(1, last + 1):
        start = i
        while True:
            srcs = [s for layer in irgen.layers[start - 1 : i] for s in layer.sources]
            if min(srcs, default=start) >= start:
                break
            start = min(srcs)
        outs.append(forward_range(irgen, start, i, outs[start - 1]))
    return outs[1:]


def _score_layers(
    x: Tensor, irgen: NetworkDef, irval: NetworkDef, base: _OracleBase
) -> list[LayerKLStats]:
    """Score every assessable generator layer against the input's oracle ``base``."""
    return [
        _score_images(layer_i, project_feature_maps(ir, irval.input_shape), irval, base)
        for layer_i, ir in enumerate(_generator_outputs(x, irgen, irgen.n_layers - 1), start=1)
    ]


def assess_layer(x: Tensor, irgen: NetworkDef, irval: NetworkDef, layer_i: int) -> LayerKLStats:
    """Score one layer of the generator network for input ``x``."""
    n = irgen.n_layers
    if not (1 <= layer_i < n):
        raise ValueError(f"assessable layers are 1..{n - 1}, got {layer_i}")
    ir = _generator_outputs(x, irgen, layer_i)[-1]
    base = _oracle_base(irval, x, _zero_image_probs(irval))
    return _score_images(layer_i, project_feature_maps(ir, irval.input_shape), irval, base)


def valid_partition_points(net: NetworkDef) -> set[int]:
    """Cut indices i where no route layer after i reads a layer at or
    before i. For a plain chain this is every i in [1, n)."""
    n = net.n_layers
    valid = set(range(1, n))
    for layer in net.layers:
        if layer.kind == "route":
            for src in layer.sources:
                for i in range(src, layer.index):
                    valid.discard(i)
    return valid


def choose_partition(deltas, valid) -> int | None:
    """Smallest valid index i whose ratio suffix stays above 1.

    ``deltas[t-1]`` is the ratio for layer t, t in 1..n-1. Returns None when
    no valid index satisfies the suffix condition.
    """
    deltas = list(deltas)
    n_assessable = len(deltas)
    valid = set(valid)
    for i in valid:
        if not (1 <= i <= n_assessable):
            raise ValueError(f"valid cut {i} outside assessable range 1..{n_assessable}")
    suffix_ok = True
    best = None
    for i in range(n_assessable, 0, -1):
        suffix_ok = suffix_ok and deltas[i - 1] > 1
        if suffix_ok and i in valid:
            best = i
    return best


def assess_model(
    x_set,
    irgen: NetworkDef,
    irval: NetworkDef,
    input_ids=None,
) -> AssessmentReport:
    """Assess every layer of ``irgen`` over a set of inputs.

    Per layer, the reported statistics come from the worst-case input: the
    one whose ratio for that layer is smallest. The cut is then chosen from
    the worst-case ratios, restricted to topologically valid points.
    """
    x_set = list(x_set)
    if not x_set:
        raise ValueError("assessment needs at least one input")
    if input_ids is None:
        input_ids = [f"input-{k + 1}" for k in range(len(x_set))]
    input_ids = [str(s) for s in input_ids]
    if len(input_ids) != len(x_set):
        raise ValueError("input_ids must match the number of inputs")

    valid = frozenset(valid_partition_points(irgen))
    zero_probs = _zero_image_probs(irval)
    bases = [_oracle_base(irval, x, zero_probs) for x in x_set]
    per_input = [_score_layers(x, irgen, irval, base) for x, base in zip(x_set, bases)]

    # per layer, the worst-case input; ties keep the earliest input
    worst = [min(rows, key=lambda r: r.delta) for rows in zip(*per_input)]

    chosen = choose_partition([r.delta for r in worst], valid) if worst else None
    return AssessmentReport(
        input_id=",".join(input_ids),
        uniform_baseline=min(base.baseline for base in bases),
        layers=tuple(worst),
        valid_points=valid,
        chosen=chosen,
    )


# --- report rendering --------------------------------------------------------

def report_tsv(report: AssessmentReport) -> str:
    """Machine-readable rendering: one tab-separated record per layer, column
    order layer, min_kl, max_kl, argmin_j, delta, valid, chosen."""
    lines = []
    for row in report.layers:
        lines.append(
            "\t".join(
                (
                    str(row.layer),
                    repr(row.min_kl),
                    repr(row.max_kl),
                    str(row.argmin_j),
                    repr(row.delta),
                    "1" if row.layer in report.valid_points else "0",
                    "1" if row.layer == report.chosen else "0",
                )
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def report_table(report: AssessmentReport) -> str:
    """Human-readable rendering of an assessment report."""
    head = [
        f"input:            {report.input_id}",
        f"uniform baseline: {report.uniform_baseline:.6f}",
        f"chosen cut:       {report.chosen if report.chosen is not None else '(none)'}",
        "",
        f"{'layer':>5}  {'min_kl':>12}  {'max_kl':>12}  {'argmin_j':>8}  {'delta':>10}  {'valid':>5}  {'chosen':>6}",
    ]
    for row in report.layers:
        head.append(
            f"{row.layer:>5}  {row.min_kl:>12.6f}  {row.max_kl:>12.6f}  {row.argmin_j:>8}"
            f"  {row.delta:>10.4f}  {'yes' if row.layer in report.valid_points else 'no':>5}"
            f"  {'<<' if row.layer == report.chosen else '':>6}"
        )
    return "\n".join(head) + "\n"
