"""Deterministic toy fixture models.

Three families, all small enough to assess and serve in test time:

* ``plain17``: a 17-layer chain of 3x3 convolutions and 2x2 maxpools with a
  1x1 class head, global average pool, and softmax.
* ``plain28``: the same idea, 28 layers deep with alternating 3x3/1x1
  convolutions in the trunk.
* ``denseblock``: two blocks of convolutions, each closed by a route layer
  concatenating every convolution inside the block. Routes never span
  blocks, so only the block-end layers (and the tail) admit a partition cut.

Given the same (arch, seed, classes) the generated config text and weights
blob are byte-identical.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .netdef import LayerSpec, NetworkDef, serialize_network, weights_layout

__all__ = ["gen_fixture_model", "FIXTURE_ARCHS"]

# Layer indices are assigned in order by gen_fixture_model; route sources
# are absolute 1-based indices.


def _conv(filters, size=3, pad=1, activation="leaky", bn=False) -> LayerSpec:
    return LayerSpec(
        index=0, kind="convolutional", filters=filters, size=size, pad=pad,
        activation=activation, batch_normalize=bn,
    )


_MAXPOOL = LayerSpec(index=0, kind="maxpool", size=2, stride=2)
_GLOBAL_AVGPOOL = LayerSpec(index=0, kind="avgpool", stride=0)
_SOFTMAX = LayerSpec(index=0, kind="softmax")


def _route(*sources: int) -> LayerSpec:
    return LayerSpec(index=0, kind="route", sources=sources)


def _plain17(classes: int) -> tuple[tuple[int, int, int], list[LayerSpec]]:
    return (32, 32, 3), [
        _conv(4, bn=True),
        _MAXPOOL,
        _conv(8, bn=True),
        _MAXPOOL,
        _conv(8, bn=True),
        _MAXPOOL,
        _conv(16, bn=True),
        _MAXPOOL,
        _conv(16),
        _conv(8, size=1, pad=0, activation="relu"),
        _conv(16),
        _MAXPOOL,
        _conv(24),
        _conv(16, size=1, pad=0, activation="relu"),
        _conv(classes, size=1, pad=0, activation="linear"),
        _GLOBAL_AVGPOOL,
        _SOFTMAX,
    ]


def _plain28(classes: int) -> tuple[tuple[int, int, int], list[LayerSpec]]:
    layers = []
    for filters in (4, 8, 8, 16):
        layers.append(_conv(filters, bn=True))
        layers.append(_MAXPOOL)
    for i in range(17):  # layers 9..25
        if i % 2 == 0:
            layers.append(_conv(16))
        else:
            layers.append(_conv(8, size=1, pad=0, activation="relu"))
    layers.append(_conv(classes, size=1, pad=0, activation="linear"))
    layers.append(_GLOBAL_AVGPOOL)
    layers.append(_SOFTMAX)
    return (32, 32, 3), layers


def _denseblock(classes: int) -> tuple[tuple[int, int, int], list[LayerSpec]]:
    # Block 1: convs at layers 1-4, closed by route 5 over all of them.
    # Block 2: convs at layers 6-10, closed by route 11. Tail: 1x1 class
    # head, global average pool, softmax.
    return (16, 16, 3), [
        *[_conv(4, bn=True) for _ in range(4)],
        _route(1, 2, 3, 4),
        *[_conv(4, bn=True) for _ in range(5)],
        _route(6, 7, 8, 9, 10),
        _conv(classes, size=1, pad=0, activation="linear"),
        _GLOBAL_AVGPOOL,
        _SOFTMAX,
    ]


_ARCHS = {"plain17": _plain17, "plain28": _plain28, "denseblock": _denseblock}
FIXTURE_ARCHS = tuple(_ARCHS)


def _draw(rng: np.random.Generator, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Initial values for one weights array, drawn in weights-blob order."""
    if name == "bn_scale":
        return 1.0 + 0.2 * rng.standard_normal(shape)
    if name == "bn_var":
        return rng.uniform(0.5, 1.5, shape)
    if name in ("filters", "weights"):  # He initialization over the fan-in
        fan_in = int(np.prod(shape[1:]))
        return rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)
    return rng.normal(0.0, 0.1, shape)  # biases, bn_mean


def gen_fixture_model(arch: str, seed: int, classes: int) -> tuple[str, bytes]:
    """Generate (config text, weights blob) for a fixture architecture."""
    if classes < 2:
        raise ValueError(f"classes must be >= 2, got {classes}")
    if arch not in _ARCHS:
        raise ValueError(f"unknown fixture arch {arch!r}; expected one of {FIXTURE_ARCHS}")

    input_shape, layers = _ARCHS[arch](classes)
    net = NetworkDef(
        input_shape, tuple(replace(layer, index=i) for i, layer in enumerate(layers, start=1))
    )
    rng = np.random.default_rng(seed)
    per_layer = tuple(
        {name: _draw(rng, name, shape) for name, shape in weights_layout(layer, in_shape)}
        for layer, in_shape in zip(net.layers, net.layer_input_shapes)
    )
    return serialize_network(replace(net, weights=per_layer))
