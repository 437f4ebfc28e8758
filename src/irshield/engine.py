"""Deterministic forward passes over a NetworkDef.

Each layer is a pure float32 function of its input, evaluated one at a time, so layers
``1..i`` then ``i+1..n`` reproduce the full pass bit for bit. Convolution columns are
ordered channel-major then kernel-row-major, as the filters are laid out, so no summation
order depends on the range start. Layers take a leading batch axis, ``(n, c, h, w)``, and
each row comes out byte-identical to a lone pass: products are stacked ``np.matmul``
calls, one per image, never one flattened GEMM, whose blocking changes the bytes.

Each network compiles once to ``net.plan``, cached on the immutable NetworkDef: one
step per layer, with its gather index, weights, windows and batch-norm fold bound. Byte
rules: the fold is computed once, in float32; the convolution epilogue runs in place on
the contiguous copy made after the transpose; the transposed weights stay a view (a
contiguous copy changes the BLAS kernel, and with it the bytes). A range chains its steps
as ``y = run(y)``, keeping only outputs a route reads, and takes its input-shape and route
checks from a per-layer table compiled with the plan.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PartitionError, ShapeError, WeightsError
from .netdef import NetworkDef, route_crossings
from .tensor import Tensor

__all__ = ["forward", "forward_range", "forward_range_batch", "top_k", "LEAKY_SLOPE", "BN_EPSILON"]

LEAKY_SLOPE = np.float32(0.1)
BN_EPSILON = np.float32(1e-6)  # added to the stored variance in the batch-norm fold
_PAD_ROW = np.zeros((1, 1), np.float32)  # the gather's padding column at n = 1
_PAD_ROW.flags.writeable = False


def _relu(out: np.ndarray) -> None:
    np.maximum(out, np.float32(0), out=out)


def _leaky(out: np.ndarray) -> None:
    # max(0.1x, x) has the bytes of the select where(x > 0, x, 0.1x), signed zeros
    # included; the product goes first, so a NaN comes back quieted, as from the select
    np.maximum(out * LEAKY_SLOPE, out, out=out)


# each activation applied in place, resolved once per layer when the plan is built
_ACTIVATIONS = {"linear": None, "relu": _relu, "leaky": _leaky}


@functools.lru_cache(maxsize=32)
def _im2col_index(c: int, h: int, w: int, k: int, s: int, p: int) -> np.ndarray:
    """Flat source index of each column entry of a (c, h, w) image: a row per output
    position, entries ordered (c, ky, kx), padding at index c*h*w (an appended zero).
    Gathering is several times faster than copying a window view. Shared, so read-only."""
    src = np.pad(np.arange(c * h * w).reshape(c, h, w), ((0, 0), (p, p), (p, p)),
                 constant_values=c * h * w)
    windows = sliding_window_view(src, (k, k), axis=(1, 2))[:, ::s, ::s]
    index = windows.transpose(1, 2, 0, 3, 4).reshape(-1, c * k * k)
    index.flags.writeable = False
    return index


def _im2col(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``(n, positions, c*k*k)`` columns; the index is in range, so "wrap" skips bounds checks."""
    n = len(x)
    pad = _PAD_ROW if n == 1 else np.zeros((n, 1), np.float32)
    return np.concatenate([x.reshape(n, -1), pad], axis=1).take(index, axis=1, mode="wrap")


def _bn_fold(lw) -> tuple[np.ndarray, np.ndarray]:
    """Per-filter (scale, shift) of a batch-normalized convolution, (f, 1, 1)."""
    denom = np.sqrt(lw["bn_var"] + BN_EPSILON)
    beta = lw["biases"] - lw["bn_scale"] * lw["bn_mean"] / denom
    return (lw["bn_scale"] / denom)[:, None, None], beta[:, None, None]


def _conv(index, wmat_t, out_shape, gamma, beta, activate, x: np.ndarray) -> np.ndarray:
    out = (_im2col(x, index) @ wmat_t).transpose(0, 2, 1).reshape(len(x), *out_shape).copy()
    if gamma is not None:
        np.multiply(out, gamma, out=out)
    np.add(out, beta, out=out)
    if activate is not None:
        activate(out)
    return out


def _maxpool(windows, x: np.ndarray) -> np.ndarray:
    # max is exact, so folding the k*k strided window offsets gives the window max bytes
    if len(windows) == 1:
        return np.ascontiguousarray(x[windows[0]])
    first, second, *rest = windows
    out = np.maximum(x[first], x[second])
    for window in rest:
        np.maximum(out, x[window], out=out)
    return out


def _avgpool(k: int, s: int, x: np.ndarray) -> np.ndarray:
    if k:
        windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        return windows.mean(axis=(4, 5), dtype=np.float32)
    return x.mean(axis=(2, 3), dtype=np.float32, keepdims=True)


def _connected(weights: np.ndarray, biases: np.ndarray, x: np.ndarray) -> np.ndarray:
    # one matrix-vector product per image, as in a lone pass
    out = np.matmul(weights, x.reshape(len(x), -1, 1))[..., 0] + biases
    return out.reshape(len(x), -1, 1, 1)


def _softmax(x: np.ndarray) -> np.ndarray:
    flat = x.reshape(len(x), -1)
    e = np.exp(flat - flat.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).reshape(len(x), -1, 1, 1)


def _route(*sources: np.ndarray) -> np.ndarray:
    return np.concatenate(sources, axis=1)


class Plan(NamedTuple):
    """A network's compiled layers, and what a range starting at each layer checks."""

    # per layer (run, sources, keep): ``run`` returns the layer's C-contiguous float32
    # output from the layer before's, or from the outputs of ``sources`` for a route;
    # ``keep`` marks an output that a later route reads
    steps: tuple
    # per layer (expected input (c, h, w), the last layer a range starting there may
    # reach, the PartitionError message of a range that goes past it)
    starts: tuple


def compile_plan(net: NetworkDef) -> Plan:
    """The network's :class:`Plan`, with everything each step needs bound."""
    steps, starts = [], []
    read = {src for layer in net.layers for src in layer.sources}
    shapes = zip(net.layers, net.weights, net.layer_input_shapes, net.layer_output_shapes)
    for layer, lw, (iw, ih, ic), (ow, oh, oc) in shapes:
        k, s = layer.size, layer.stride
        if layer.kind == "convolutional":
            gamma, beta = (_bn_fold(lw) if layer.batch_normalize
                           else (None, lw["biases"][:, None, None]))
            index = _im2col_index(ic, ih, iw, k, s, layer.pad_pixels())
            run = functools.partial(_conv, index, lw["filters"].reshape(oc, -1).T, (oc, oh, ow),
                                    gamma, beta, _ACTIVATIONS[layer.activation])
        elif layer.kind == "maxpool":
            run = functools.partial(_maxpool, [(..., slice(dy, dy + s * oh, s),
                                                slice(dx, dx + s * ow, s))
                                               for dy in range(k) for dx in range(k)])
        elif layer.kind == "avgpool":
            run = functools.partial(_avgpool, k, s)
        elif layer.kind == "connected":
            run = functools.partial(_connected, lw["weights"], lw["biases"])
        else:
            run = {"softmax": _softmax, "route": _route}[layer.kind]
        steps.append((run, layer.sources, layer.index in read))
        reach, refusal = net.n_layers, None
        if crossings := route_crossings(net, layer.index - 1):
            index, src = crossings[0]
            reach = index - 1
            refusal = (f"cross-boundary route: layer {index} routes from layer {src}, "
                       f"before the start of the range at layer {layer.index}")
        starts.append(((ic, ih, iw), reach, refusal))
    return Plan(tuple(steps), tuple(starts))


def forward_range_batch(net: NetworkDef, from_layer: int, to_layer: int,
                        x: np.ndarray) -> np.ndarray:
    """``forward_range`` on an ``(n, c, h, w)`` batch; row ``j`` is byte-identical to a
    lone pass over image ``j``."""
    if net.weights is None:
        raise WeightsError("network carries no weights; load it with parse_network")
    if not (1 <= from_layer <= to_layer <= net.n_layers):
        raise ShapeError(f"invalid layer range [{from_layer}, {to_layer}] "
                         f"for a {net.n_layers}-layer network")
    steps, starts = net.plan
    chw, reach, refusal = starts[from_layer - 1]
    if x.ndim != 4 or x.shape[1:] != chw:
        c, h, w = chw
        got = "x".join(str(d) for d in x.shape[:0:-1]) if x.ndim == 4 else str(x.shape)
        raise ShapeError(f"input shape {got} does not match layer {from_layer}'s "
                         f"expected input {w}x{h}x{c}")
    if not len(x):
        raise ShapeError("empty batch: at least one image is required")
    if to_layer > reach:
        raise PartitionError(refusal)
    y = np.ascontiguousarray(x, dtype=np.float32)
    kept = {from_layer - 1: y}
    # every step returns a contiguous array, so a later layer sees the same memory
    # order (and its reductions the same summation order) as after a range boundary
    for pos, (run, sources, keep) in enumerate(steps[from_layer - 1 : to_layer], start=from_layer):
        y = run(*[kept[i] for i in sources]) if sources else run(y)
        if keep:
            kept[pos] = y
    return y


def forward_range(net: NetworkDef, from_layer: int, to_layer: int, x: Tensor) -> Tensor:
    """Run layers ``from_layer..to_layer`` (1-based, inclusive) on ``x``.

    ``x`` stands in for the output of layer ``from_layer - 1``. Route layers
    inside the range may only reference layers inside the range; a reference
    back past ``from_layer`` raises :class:`PartitionError`.
    """
    return Tensor.from_array(forward_range_batch(net, from_layer, to_layer, x.array[None])[0])


def forward(net: NetworkDef, x: Tensor) -> np.ndarray:
    """Full inference; returns the softmax probability vector.

    The network's final layer must be a softmax. The returned vector is the
    flat view of ``forward_range(net, 1, n, x)``, so chaining partial passes
    reproduces it bit for bit.
    """
    if net.layers[-1].kind != "softmax":
        raise ShapeError("forward requires a softmax-terminated network")
    probs = forward_range_batch(net, 1, net.n_layers, x.array[None]).reshape(-1)
    probs.flags.writeable = False
    return probs


def top_k(p: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Top-k (class index, score) pairs, 1-based, descending by score.

    Ties break toward the smaller class index.
    """
    p = np.asarray(p).reshape(-1)
    if not (1 <= k <= p.size):
        raise ValueError(f"k must be in [1, {p.size}], got {k}")
    order = np.argsort(-p, kind="stable")[:k]
    return [(int(i) + 1, float(p[i])) for i in order]
