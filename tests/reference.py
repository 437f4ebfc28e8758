"""Scalar reference implementations used as independent oracles.

Everything here is deliberately loop-based: plain Python floats, one output
element at a time, with no vectorized math shared with the package. The
engine is expected to match these within float32 accumulation-order noise;
determinism and bit-exactness claims are checked engine-vs-engine, while
these oracles pin down the semantics.
"""

from __future__ import annotations

import math

import numpy as np

BN_EPS = 1e-6
LEAKY = 0.1


def _activate(value: float, activation: str) -> float:
    if activation == "relu":
        return value if value > 0 else 0.0
    if activation == "leaky":
        return value if value > 0 else LEAKY * value
    return value


def ref_conv(layer, lw, x: np.ndarray, count_ops: bool = False):
    """Scalar convolution. Returns (output, multiply_count).

    Accumulates channel-major then kernel-row-major, mirroring the engine's
    declared ordering. Padded positions multiply an explicit zero so the
    multiply count matches the closed-form cost model.
    """
    c_in, h, w = x.shape
    k, s, p = layer.size, layer.stride, layer.size // 2 if layer.pad else 0
    f = layer.filters
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    out = np.zeros((f, oh, ow), dtype=np.float32)
    multiplies = 0
    for fi in range(f):
        if layer.batch_normalize:
            denom = math.sqrt(float(lw["bn_var"][fi]) + BN_EPS)
            gamma = float(lw["bn_scale"][fi]) / denom
            beta = float(lw["biases"][fi]) - float(lw["bn_scale"][fi]) * float(lw["bn_mean"][fi]) / denom
        else:
            gamma, beta = 1.0, float(lw["biases"][fi])
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for ci in range(c_in):
                    for ky in range(k):
                        for kx in range(k):
                            iy = oy * s + ky - p
                            ix = ox * s + kx - p
                            if 0 <= iy < h and 0 <= ix < w:
                                pixel = float(x[ci, iy, ix])
                            else:
                                pixel = 0.0
                            acc += pixel * float(lw["filters"][fi, ci, ky, kx])
                            multiplies += 1
                value = _activate(acc * gamma + beta, layer.activation)
                out[fi, oy, ox] = np.float32(value)
    return out, multiplies


def ref_maxpool(layer, x: np.ndarray) -> np.ndarray:
    c, h, w = x.shape
    k, s = layer.size, layer.stride
    oh = (h - k) // s + 1
    ow = (w - k) // s + 1
    out = np.zeros((c, oh, ow), dtype=np.float32)
    for ci in range(c):
        for oy in range(oh):
            for ox in range(ow):
                best = -math.inf
                for ky in range(k):
                    for kx in range(k):
                        best = max(best, float(x[ci, oy * s + ky, ox * s + kx]))
                out[ci, oy, ox] = np.float32(best)
    return out


def ref_avgpool(layer, x: np.ndarray) -> np.ndarray:
    c, h, w = x.shape
    if layer.size:
        k, s = layer.size, layer.stride
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        out = np.zeros((c, oh, ow), dtype=np.float32)
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ky in range(k):
                        for kx in range(k):
                            acc += float(x[ci, oy * s + ky, ox * s + kx])
                    out[ci, oy, ox] = np.float32(acc / (k * k))
        return out
    out = np.zeros((c, 1, 1), dtype=np.float32)
    for ci in range(c):
        acc = 0.0
        for iy in range(h):
            for ix in range(w):
                acc += float(x[ci, iy, ix])
        out[ci, 0, 0] = np.float32(acc / (h * w))
    return out


def ref_connected(lw, x: np.ndarray) -> np.ndarray:
    flat = [float(v) for v in x.reshape(-1)]
    n_out = lw["weights"].shape[0]
    out = np.zeros((n_out, 1, 1), dtype=np.float32)
    for oi in range(n_out):
        acc = 0.0
        for ii, v in enumerate(flat):
            acc += float(lw["weights"][oi, ii]) * v
        out[oi, 0, 0] = np.float32(acc + float(lw["biases"][oi]))
    return out


def ref_softmax(x: np.ndarray) -> np.ndarray:
    flat = [float(v) for v in x.reshape(-1)]
    peak = max(flat)
    exps = [math.exp(v - peak) for v in flat]
    total = sum(exps)
    return np.array([e / total for e in exps], dtype=np.float32).reshape(-1, 1, 1)


def ref_forward_range(net, from_layer: int, to_layer: int, x: np.ndarray) -> np.ndarray:
    """Run layers from_layer..to_layer on x (a (c, h, w) float32 array)."""
    outputs = {from_layer - 1: x}
    for pos in range(from_layer, to_layer + 1):
        layer = net.layers[pos - 1]
        lw = net.weights[pos - 1]
        prev = outputs[pos - 1]
        if layer.kind == "convolutional":
            arr, _ = ref_conv(layer, lw, prev)
        elif layer.kind == "maxpool":
            arr = ref_maxpool(layer, prev)
        elif layer.kind == "avgpool":
            arr = ref_avgpool(layer, prev)
        elif layer.kind == "connected":
            arr = ref_connected(lw, prev)
        elif layer.kind == "softmax":
            arr = ref_softmax(prev)
        elif layer.kind == "route":
            arr = np.concatenate([outputs[s] for s in layer.sources], axis=0)
        else:
            raise AssertionError(layer.kind)
        outputs[pos] = arr
    return outputs[to_layer]


def ref_forward(net, x: np.ndarray) -> np.ndarray:
    return ref_forward_range(net, 1, net.n_layers, x).reshape(-1)
