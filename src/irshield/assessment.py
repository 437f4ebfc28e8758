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

All of one input's maps go through the oracle as one stream. Each layer's
projected planes (a float32 ``(maps, oh, ow)`` array) join a queue led by the
all-zero image, which is the projection of every constant channel; a map whose
projection is byte-identical to it is not queued and takes its score. The
queue feeds the oracle's wide first layers ``1..s`` in chunks of at most
ORACLE_BATCH rows, each repeated across the oracle's input channels; the
narrow tail ``s+1..n`` then runs once over every row, and one row-form
``kl_divergence`` call scores them all. ``s`` comes from the shapes: the first
valid cut after which the whole stream needs no more memory at any layer than
one chunk at the widest. The scores are exact: an oracle batch row is
byte-identical to a lone pass, ranges compose bit for bit, and a divergence
row equals the 1-D call, so every map scores the bytes it would alone.

All divergences use base-10 logarithms, so the uniform-distribution
normalizer for a confidently classified input over N classes is log10(N)
(3.0 at N = 1000).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import forward, forward_range, forward_range_batch
from .imageio import bilinear_resize, resize_to_shape
from .netdef import NetworkDef, route_crossings, valid_partition_points
from .tensor import Tensor

__all__ = [
    "kl_divergence",
    "uniform_baseline",
    "project_feature_maps",
    "assess_layer",
    "assess_model",
    "valid_partition_points",
    "choose_partition",
    "LayerKLStats",
    "AssessmentReport",
    "report_table",
    "report_tsv",
    "PROB_FLOOR",
]

# Projected maps go through the oracle's wide first layers in chunks of at most
# this many: large enough to spread numpy's per-call overhead, small enough that
# a chunk's intermediates stay a small share of the assessing process's memory.
# The one-pass tail is sized to need no more than one such chunk.
ORACLE_BATCH = 8

# Probabilities are clamped below at this floor (then renormalized) before a
# divergence is computed, so an exactly-zero class score cannot produce an
# infinite divergence.
PROB_FLOOR = 1e-10


def kl_divergence(p, q):
    """Base-10 KL divergence sum(p * log10(p / q)) with zero smoothing.

    Both arguments are clamped below at PROB_FLOOR and renormalized, so the
    result is finite for any pair of probability vectors and non-negative up
    to smoothing error. A 2-D ``q`` of shape (rows, classes) gives one float64
    divergence per row, each byte-identical to the call on that row alone.
    """
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    q = np.asarray(q, dtype=np.float64)
    rows = q.ndim == 2
    if not rows:
        q = q.reshape(-1)
    if p.size != q.shape[-1]:
        raise ValueError(f"length mismatch: p has {p.size} entries, q has {q.shape[-1]}")
    ps = np.maximum(p, PROB_FLOOR)
    qs = np.maximum(q, PROB_FLOOR)
    ps = ps / ps.sum()
    qs = qs / qs.sum(axis=-1, keepdims=True)
    out = np.sum(ps * np.log10(ps / qs), axis=-1)
    return out if rows else float(out)


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


def project_feature_maps(ir: np.ndarray, oracle_input_shape: tuple[int, int, int]) -> np.ndarray:
    """Turn each channel of a ``(c, h, w)`` layer output into one oracle-sized
    plane; returns a ``(c, oh, ow)`` float32 array.

    Each channel is min-max normalized to [0, 1] independently (a constant
    channel becomes all zeros) and resized with corner-aligned bilinear
    sampling. Positive rescaling of a channel therefore leaves its plane
    unchanged. The oracle sees a plane repeated across its input channels.
    """
    ow, oh, _ = oracle_input_shape
    maps = np.asarray(ir, dtype=np.float64)
    lo = maps.min(axis=(1, 2))
    hi = maps.max(axis=(1, 2))
    varies = hi != lo
    flat = np.zeros((len(maps), oh, ow))
    span = (hi[varies] - lo[varies])[:, None, None]
    flat[varies] = bilinear_resize((maps[varies] - lo[varies, None, None]) / span, oh, ow)
    return np.clip(flat, 0.0, 1.0, out=flat).astype(np.float32)


def _oracle_base(irval: NetworkDef, x: Tensor) -> tuple[np.ndarray, float]:
    """The oracle's probabilities for input ``x`` and their uniform baseline."""
    image = x if x.shape == irval.input_shape else resize_to_shape(x, irval.input_shape)
    probs = forward(irval, image)
    if not np.isfinite(probs).all():
        bad = next(i for i in range(1, irval.n_layers + 1)
                   if not forward_range(irval, 1, i, image).is_finite())
        raise ValueError(f"oracle layer {bad} output is not finite (float32 overflow)")
    baseline = uniform_baseline(probs)
    if baseline <= 0:
        raise ValueError(
            "oracle classified an input as exactly uniform; layer ratios are undefined"
        )
    return probs, baseline


def _generator_outputs(x: Tensor, irgen: NetworkDef, last: int) -> list[Tensor]:
    """Outputs of generator layers ``1..last``, each layer evaluated once.

    Layer ``i`` runs alone on layer ``i - 1``'s output, which reproduces a
    pass from layer 1 bit for bit. A route layer instead reruns the span
    back to its earliest source, since a range may not reach past its start.
    """
    outs = [x]
    for i in range(1, last + 1):
        start = i
        while crossings := route_crossings(irgen, start - 1, i):
            start = min(src for _, src in crossings)
        outs.append(forward_range(irgen, start, i, outs[start - 1]))
    return outs[1:]


def _oracle_split(irval: NetworkDef, rows: int) -> int:
    """Last layer of the oracle's chunked prefix: the first valid cut after which
    ``rows`` rows at once need, at every layer, no larger working set than
    ORACLE_BATCH rows at the oracle's widest layer; else the whole oracle. A row's
    working set is its im2col columns at a convolution, input plus output elsewhere."""
    shapes = zip(irval.layers, irval.layer_input_shapes, irval.layer_output_shapes)
    per_row = [oh * ow * ic * layer.size**2 if layer.kind == "convolutional"
               else iw * ih * ic + ow * oh * oc for layer, (iw, ih, ic), (ow, oh, oc) in shapes]
    budget = ORACLE_BATCH * max(per_row)
    cuts = (s for s in sorted(valid_partition_points(irval)) if rows * max(per_row[s:]) <= budget)
    return next(cuts, irval.n_layers)


def _score_layers(layers, irval: NetworkDef, probs, baseline: float) -> list[LayerKLStats]:
    """Score ``(index, output)`` generator layers against the input's oracle ``probs``
    in one oracle stream (see the module docstring)."""
    if not layers:
        return []
    n, oc = irval.n_layers, irval.input_shape[2]
    split = _oracle_split(irval, 1 + sum(out.shape[2] for _, out in layers))
    pending = np.zeros((1, *irval.input_shape[1::-1]), np.float32)  # row 0: the all-zero image
    heads, varying = [], []
    for k, (i, out) in enumerate(layers, start=1):
        if not out.is_finite():
            raise ValueError(f"generator layer {i} output is not finite (float32 overflow)")
        planes = project_feature_maps(out.array, irval.input_shape)
        varying.append(np.flatnonzero(planes.reshape(len(planes), -1).view(np.uint32).any(axis=1)))
        pending = np.concatenate([pending, planes[varying[-1]]])
        while len(pending) >= ORACLE_BATCH or (k == len(layers) and len(pending)):
            chunk, pending = pending[:ORACLE_BATCH], pending[ORACLE_BATCH:]
            heads.append(forward_range_batch(irval, 1, split, np.repeat(chunk[:, None], oc, 1)))
    q = np.concatenate(heads)
    q = forward_range_batch(irval, split + 1, n, q) if split < n else q
    kls = kl_divergence(probs, q.reshape(len(q), -1)).tolist()
    stats, at = [], 1
    for (i, out), rows in zip(layers, varying):
        scores = [kls[0]] * out.shape[2]  # constant maps share the zero image's score
        for j, kl in zip(rows.tolist(), kls[at : at + len(rows)]):
            scores[j] = kl
        at += len(rows)
        if not math.isfinite(sum(scores)):
            raise ValueError(f"oracle output for a map of generator layer {i} is not finite")
        best = min(range(len(scores)), key=lambda j: (scores[j], j))
        stats.append(LayerKLStats(i, scores[best], max(scores), best + 1, scores[best] / baseline))
    return stats


def _refuse_non_finite(x: Tensor, input_id: str) -> None:
    if not x.is_finite():
        raise ValueError(f"{input_id} has a non-finite pixel; assessment needs finite inputs")


def assess_layer(x: Tensor, irgen: NetworkDef, irval: NetworkDef, layer_i: int) -> LayerKLStats:
    """Score one layer of the generator network for input ``x``."""
    n = irgen.n_layers
    if not (1 <= layer_i < n):
        raise ValueError(f"assessable layers are 1..{n - 1}, got {layer_i}")
    _refuse_non_finite(x, "input")
    base = _oracle_base(irval, x)
    return _score_layers([(layer_i, forward_range(irgen, 1, layer_i, x))], irval, *base)[0]


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

    for x, input_id in zip(x_set, input_ids):
        _refuse_non_finite(x, input_id)
    valid = frozenset(valid_partition_points(irgen))
    bases = [_oracle_base(irval, x) for x in x_set]
    per_input = [
        _score_layers(list(enumerate(_generator_outputs(x, irgen, irgen.n_layers - 1), start=1)),
                      irval, *base)
        for x, base in zip(x_set, bases)
    ]

    # per layer, the worst-case input; ties keep the earliest input
    worst = [min(rows, key=lambda r: r.delta) for rows in zip(*per_input)]

    chosen = choose_partition([r.delta for r in worst], valid) if worst else None
    return AssessmentReport(
        input_id=",".join(input_ids),
        uniform_baseline=min(baseline for _, baseline in bases),
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
