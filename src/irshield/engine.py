"""Deterministic forward passes over a NetworkDef.

Every layer is evaluated as a pure float32 function of its input, one layer
at a time, so running layers ``1..i`` and then ``i+1..n`` reproduces the
full pass bit for bit. Convolution lowers each output position to a column
ordered channel-major then kernel-row-major, matching the filter weight
layout, so the accumulation order never depends on where the range starts.

Layers work on a leading batch axis, ``(n, c, h, w)``, and a single image is
the n = 1 case. Every image of a batch comes out byte-identical to a pass
over that image alone: products are stacked ``np.matmul`` calls, one per
image, and the batch is never flattened into one larger GEMM, whose
blocking would change the summation order.

Conventions fixed here: leaky activation slope is 0.1; batch normalization
folds into a per-filter scale and shift using the stored mean/variance with
epsilon 1e-6; pooling windows never extend past the input edge.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PartitionError, ShapeError, WeightsError
from .netdef import ConnectedWeights, ConvWeights, LayerSpec, NetworkDef
from .tensor import Tensor

__all__ = ["forward", "forward_range", "forward_batch", "top_k", "LEAKY_SLOPE", "BN_EPSILON"]

LEAKY_SLOPE = np.float32(0.1)
BN_EPSILON = np.float32(1e-6)


def _activate(out: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(out, np.float32(0))
    if activation == "leaky":
        # max(0.1x, x) is x for x > 0 and 0.1x otherwise: the bytes of the
        # select, signed zeros included; a NaN comes back as the product's
        # (quieted) NaN, as from the select, because the product goes first
        return np.maximum(out * LEAKY_SLOPE, out)
    return out


@functools.lru_cache(maxsize=32)
def _im2col_index(c: int, h: int, w: int, k: int, s: int, p: int) -> np.ndarray:
    """Flat source index of each convolution column entry of a (c, h, w)
    image: a row per output position, entries ordered (c, ky, kx), padding at
    index c*h*w (an appended zero). Gathering through it is several times
    faster than copying a transposed window view. Shared, so read-only."""
    src = np.pad(np.arange(c * h * w).reshape(c, h, w), ((0, 0), (p, p), (p, p)),
                 constant_values=c * h * w)
    windows = sliding_window_view(src, (k, k), axis=(1, 2))[:, ::s, ::s]
    index = windows.transpose(1, 2, 0, 3, 4).reshape(-1, c * k * k)
    index.flags.writeable = False
    return index


def _conv(layer: LayerSpec, lw: ConvWeights, x: np.ndarray) -> np.ndarray:
    n, c_in, h, w = x.shape
    k, s, p = layer.size, layer.stride, layer.pad_pixels()
    f = layer.filters
    oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    flat = np.concatenate([x.reshape(n, -1), np.zeros((n, 1), np.float32)], axis=1)
    cols = np.take(flat, _im2col_index(c_in, h, w, k, s, p), axis=1)
    wmat = lw.filters.reshape(f, c_in * k * k)
    out = (cols @ wmat.T).transpose(0, 2, 1).reshape(n, f, oh, ow)

    if layer.batch_normalize:
        denom = np.sqrt(lw.bn_var + BN_EPSILON)
        gamma = lw.bn_scale / denom
        beta = lw.biases - lw.bn_scale * lw.bn_mean / denom
        out = out * gamma[:, None, None] + beta[:, None, None]
    else:
        out = out + lw.biases[:, None, None]
    return _activate(out, layer.activation)


def _maxpool(layer: LayerSpec, x: np.ndarray) -> np.ndarray:
    # elementwise max over the k*k strided offsets of the window: max is
    # exact, so any order gives the window-reduction bytes
    k, s = layer.size, layer.stride
    oh, ow = (x.shape[2] - k) // s + 1, (x.shape[3] - k) // s + 1
    offsets = (x[:, :, dy : dy + s * oh : s, dx : dx + s * ow : s]
               for dy in range(k) for dx in range(k))
    return functools.reduce(np.maximum, offsets)


def _avgpool(layer: LayerSpec, x: np.ndarray) -> np.ndarray:
    if layer.size:
        k, s = layer.size, layer.stride
        windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        return windows.mean(axis=(4, 5), dtype=np.float32)
    n, c = x.shape[:2]
    return x.mean(axis=(2, 3), dtype=np.float32).reshape(n, c, 1, 1)


def _connected(lw: ConnectedWeights, x: np.ndarray) -> np.ndarray:
    # one matrix-vector product per image, as in a lone pass
    n = x.shape[0]
    out = np.matmul(lw.weights, x.reshape(n, -1, 1))[..., 0] + lw.biases
    return out.reshape(n, -1, 1, 1)


def _softmax(x: np.ndarray) -> np.ndarray:
    flat = x.reshape(x.shape[0], -1)
    e = np.exp(flat - flat.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).reshape(x.shape[0], -1, 1, 1)


def _run_range(net: NetworkDef, from_layer: int, to_layer: int, x: np.ndarray) -> np.ndarray:
    """Run layers ``from_layer..to_layer`` on an ``(n, c, h, w)`` batch."""
    if net.weights is None:
        raise WeightsError("network carries no weights; load it with parse_network")
    n = net.n_layers
    if not (1 <= from_layer <= to_layer <= n):
        raise ShapeError(
            f"invalid layer range [{from_layer}, {to_layer}] for a {n}-layer network"
        )
    w, h, c = net.layer_input_shapes[from_layer - 1]
    if x.ndim != 4 or x.shape[1:] != (c, h, w):
        got = "x".join(str(d) for d in x.shape[:0:-1])
        raise ShapeError(
            f"input shape {got} does not match layer {from_layer}'s expected input {w}x{h}x{c}"
        )

    outputs: dict[int, np.ndarray] = {from_layer - 1: np.ascontiguousarray(x, dtype=np.float32)}
    for pos in range(from_layer, to_layer + 1):
        layer = net.layers[pos - 1]
        if layer.kind == "route":
            for src in layer.sources:
                if src < from_layer:
                    raise PartitionError(
                        f"cross-boundary route: layer {pos} routes from layer {src}, "
                        f"before the start of the range at layer {from_layer}"
                    )
            arr = np.concatenate([outputs[src] for src in layer.sources], axis=1)
        elif layer.kind == "convolutional":
            arr = _conv(layer, net.weights[pos - 1], outputs[pos - 1])
        elif layer.kind == "maxpool":
            arr = _maxpool(layer, outputs[pos - 1])
        elif layer.kind == "avgpool":
            arr = _avgpool(layer, outputs[pos - 1])
        elif layer.kind == "connected":
            arr = _connected(net.weights[pos - 1], outputs[pos - 1])
        elif layer.kind == "softmax":
            arr = _softmax(outputs[pos - 1])
        else:
            raise ShapeError(f"layer {pos}: unknown kind {layer.kind!r}")
        # Canonicalize the layout: later layers must see bit-identical inputs
        # in bit-identical memory order whether this output was computed in
        # process or re-entered through a range boundary, or reductions could
        # pick a different summation order.
        outputs[pos] = np.ascontiguousarray(arr)
    return outputs[to_layer]


def forward_range(net: NetworkDef, from_layer: int, to_layer: int, x: Tensor) -> Tensor:
    """Run layers ``from_layer..to_layer`` (1-based, inclusive) on ``x``.

    ``x`` stands in for the output of layer ``from_layer - 1``. Route layers
    inside the range may only reference layers inside the range; a reference
    back past ``from_layer`` raises :class:`PartitionError`.
    """
    return Tensor.from_array(_run_range(net, from_layer, to_layer, x.array[None])[0])


def forward_batch(net: NetworkDef, x: np.ndarray) -> np.ndarray:
    """Full inference on an ``(n, c, h, w)`` batch; returns ``(n, classes)``.

    The network's final layer must be a softmax. Row ``j`` is byte-identical
    to ``forward`` on image ``j`` alone.
    """
    if net.layers[-1].kind != "softmax":
        raise ShapeError("forward requires a softmax-terminated network")
    out = _run_range(net, 1, net.n_layers, np.asarray(x))
    return out.reshape(out.shape[0], -1)


def forward(net: NetworkDef, x: Tensor) -> np.ndarray:
    """Full inference; returns the softmax probability vector.

    The network's final layer must be a softmax. The returned vector is the
    flat view of ``forward_range(net, 1, n, x)``, so chaining partial passes
    reproduces it bit for bit.
    """
    probs = forward_batch(net, x.array[None])[0]
    probs.flags.writeable = False
    return probs


def top_k(p: np.ndarray, k: int) -> list[tuple[int, float]]:
    """Top-k (class index, score) pairs, 1-based, descending by score.

    Ties break toward the smaller class index.
    """
    p = np.asarray(p).reshape(-1)
    n = p.size
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    order = np.argsort(-p, kind="stable")[:k]
    return [(int(i) + 1, float(p[i])) for i in order]
