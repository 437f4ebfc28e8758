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

from .netdef import layer_weights, parse_config, serialize_network, weights_layout

__all__ = ["gen_fixture_model", "FIXTURE_ARCHS"]

FIXTURE_ARCHS = ("plain17", "plain28", "denseblock")


def _conv(filters, size=3, pad=1, activation="leaky", bn=False) -> str:
    lines = [
        "[convolutional]",
        f"filters={filters}",
        f"size={size}",
        f"pad={pad}",
        f"activation={activation}",
    ]
    if bn:
        lines.append("batch_normalize=1")
    return "\n".join(lines)


def _maxpool(size=2, stride=2) -> str:
    return f"[maxpool]\nsize={size}\nstride={stride}"


def _plain17(classes: int) -> list[str]:
    return [
        "[net]\nwidth=32\nheight=32\nchannels=3",
        _conv(4, bn=True),
        _maxpool(),
        _conv(8, bn=True),
        _maxpool(),
        _conv(8, bn=True),
        _maxpool(),
        _conv(16, bn=True),
        _maxpool(),
        _conv(16),
        _conv(8, size=1, pad=0, activation="relu"),
        _conv(16),
        _maxpool(),
        _conv(24),
        _conv(16, size=1, pad=0, activation="relu"),
        _conv(classes, size=1, pad=0, activation="linear"),
        "[avgpool]",
        "[softmax]",
    ]


def _plain28(classes: int) -> list[str]:
    blocks = ["[net]\nwidth=32\nheight=32\nchannels=3"]
    for filters in (4, 8, 8, 16):
        blocks.append(_conv(filters, bn=True))
        blocks.append(_maxpool())
    for i in range(17):  # layers 9..25
        if i % 2 == 0:
            blocks.append(_conv(16))
        else:
            blocks.append(_conv(8, size=1, pad=0, activation="relu"))
    blocks.append(_conv(classes, size=1, pad=0, activation="linear"))
    blocks.append("[avgpool]")
    blocks.append("[softmax]")
    return blocks


def _denseblock(classes: int) -> list[str]:
    # Block 1: convs at layers 1-4, closed by route 5 over all of them.
    # Block 2: convs at layers 6-10, closed by route 11. Tail: 1x1 class
    # head, global average pool, softmax.
    blocks = ["[net]\nwidth=16\nheight=16\nchannels=3"]
    for _ in range(4):
        blocks.append(_conv(4, bn=True))
    blocks.append("[route]\nlayers=1,2,3,4")
    for _ in range(5):
        blocks.append(_conv(4, bn=True))
    blocks.append("[route]\nlayers=6,7,8,9,10")
    blocks.append(_conv(classes, size=1, pad=0, activation="linear"))
    blocks.append("[avgpool]")
    blocks.append("[softmax]")
    return blocks


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
    if arch == "plain17":
        blocks = _plain17(classes)
    elif arch == "plain28":
        blocks = _plain28(classes)
    elif arch == "denseblock":
        blocks = _denseblock(classes)
    else:
        raise ValueError(f"unknown fixture arch {arch!r}; expected one of {FIXTURE_ARCHS}")

    net = parse_config("\n\n".join(blocks) + "\n")
    rng = np.random.default_rng(seed)
    per_layer = []
    for layer, in_shape in zip(net.layers, net.layer_input_shapes):
        arrays = {name: _draw(rng, name, shape) for name, shape in weights_layout(layer, in_shape)}
        per_layer.append(layer_weights(layer, arrays))
    return serialize_network(replace(net, weights=tuple(per_layer)))
