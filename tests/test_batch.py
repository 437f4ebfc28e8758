"""A batch through the engine gives every image the bytes of a lone pass.

Single-layer networks are generated for every layer kind and shape rule the
engine implements; the fixture networks cover layer chains and routes.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numpy.lib.stride_tricks import sliding_window_view

from irshield.engine import (
    LEAKY_SLOPE,
    _activate,
    _im2col_index,
    _run_range,
    forward,
    forward_batch,
    forward_range,
)
from irshield.netdef import (
    layer_weights,
    parse_config,
    parse_network,
    serialize_network,
    weights_layout,
)
from irshield.tensor import Tensor

from reference import ref_maxpool

SIZES = (1, 3)  # batch sizes checked against lone passes


def _sides(draw, least):
    return draw(st.integers(least, least + 5)), draw(st.integers(least, least + 5))


@st.composite
def layer_sections(draw, kind: str):
    """(input shape, config section) for one layer of ``kind``."""
    c = draw(st.integers(1, 3))
    if kind == "convolutional":
        size = draw(st.sampled_from((1, 3)))
        pad = draw(st.integers(0, 1))
        h, w = _sides(draw, max(1, size - 2 * (size // 2 if pad else 0)))
        section = (
            f"[convolutional]\nfilters={draw(st.integers(1, 4))}\nsize={size}\n"
            f"stride={draw(st.sampled_from((1, 2)))}\npad={pad}\n"
            f"batch_normalize={draw(st.integers(0, 1))}\n"
            f"activation={draw(st.sampled_from(('linear', 'relu', 'leaky')))}\n"
        )
    elif kind in ("maxpool", "avgpool"):
        # size == stride tiles the input; other pairs overlap or skip
        size = draw(st.integers(1, 3))
        stride = draw(st.one_of(st.just(size), st.integers(1, 3)))
        h, w = _sides(draw, size)
        section = f"[{kind}]\nsize={size}\nstride={stride}\n"
    elif kind == "global avgpool":
        h, w = _sides(draw, 1)
        section = "[avgpool]\n"
    elif kind == "connected":
        h, w = _sides(draw, 1)
        section = f"[connected]\noutput={draw(st.integers(1, 5))}\n"
    else:
        h, w = _sides(draw, 1)
        section = "[softmax]\n"
    return (w, h, c), section


def _network(shape, body: str, seed: int):
    w, h, c = shape
    net = parse_config(f"[net]\nwidth={w}\nheight={h}\nchannels={c}\n\n{body}")
    rng = np.random.default_rng(seed)
    per_layer = []
    for layer, in_shape in zip(net.layers, net.layer_input_shapes):
        arrays = {
            name: rng.uniform(0.5, 1.5, dims) if name == "bn_var" else rng.normal(0.0, 1.0, dims)
            for name, dims in weights_layout(layer, in_shape)
        }
        per_layer.append(layer_weights(layer, arrays))
    return parse_network(*serialize_network(replace(net, weights=tuple(per_layer))))


def _images(shape, n: int, seed: int) -> np.ndarray:
    w, h, c = shape
    return np.random.default_rng(seed).standard_normal((n, c, h, w), dtype=np.float32)


def assert_batch_matches_lone_passes(net, batch: np.ndarray, last: int) -> None:
    out = _run_range(net, 1, last, batch)
    for j, image in enumerate(batch):
        lone = forward_range(net, 1, last, Tensor.from_array(image))
        assert out[j].tobytes() == lone.array.tobytes()
    if net.layers[-1].kind == "softmax":
        probs = forward_batch(net, batch)
        for j, image in enumerate(batch):
            assert probs[j].tobytes() == forward(net, Tensor.from_array(image)).tobytes()


@pytest.mark.parametrize(
    "kind", ["convolutional", "maxpool", "avgpool", "global avgpool", "connected", "softmax"]
)
def test_single_layer_batch_matches_lone_passes(kind):
    @settings(derandomize=True, max_examples=40 if kind == "convolutional" else 15, deadline=None)
    @given(layer_sections(kind), st.integers(0, 2**16))
    def check(case, seed):
        shape, section = case
        bodies = [section] if kind == "softmax" else [section, section + "\n[softmax]\n"]
        for body in bodies:
            net = _network(shape, body, seed)
            for n in SIZES:
                assert_batch_matches_lone_passes(net, _images(shape, n, seed + n), 1)

    check()


@pytest.mark.parametrize("arch", ["plain17", "plain28", "denseblock"])
def test_fixture_batch_matches_lone_passes(arch, plain17, plain28, denseblock):
    net = {"plain17": plain17, "plain28": plain28, "denseblock": denseblock}[arch]
    for n in SIZES:
        batch = np.abs(_images(net.input_shape, n, 40 + n))
        for last in range(1, net.n_layers + 1):
            assert_batch_matches_lone_passes(net, batch, last)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(layer_sections("convolutional"), st.integers(0, 2**16))
def test_im2col_gather_equals_window_copy(case, seed):
    shape, section = case
    layer = _network(shape, section, seed).layers[0]
    k, s, p = layer.size, layer.stride, layer.pad_pixels()
    x = _images(shape, 2, seed)
    n, c, h, w = x.shape
    windows = sliding_window_view(np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))), (k, k), axis=(2, 3))
    windows = windows[:, :, ::s, ::s]
    want = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, -1, c * k * k)
    flat = np.concatenate([x.reshape(n, -1), np.zeros((n, 1), np.float32)], axis=1)
    assert np.take(flat, _im2col_index(c, h, w, k, s, p), axis=1).tobytes() == want.tobytes()


@settings(derandomize=True, max_examples=15, deadline=None)
@given(layer_sections("maxpool"), st.integers(0, 2**16))
def test_maxpool_equals_scalar_reference(case, seed):
    shape, section = case
    net = _network(shape, section, seed)
    image = _images(shape, 1, seed)[0]
    got = forward_range(net, 1, 1, Tensor.from_array(image))
    assert got.array.tobytes() == ref_maxpool(net.layers[0], image).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0.1 and NaN arithmetic
def test_leaky_matches_select_bytes():
    """Leaky is max(0.1x, x); it must give the bytes of the select
    where(x > 0, x, 0.1x) on signed zeros, subnormals, extremes, infinities
    and quiet and signalling NaNs of either sign, at every array length, so
    both numpy's vector loops and their scalar tails are covered."""
    edges = np.concatenate([
        np.array([0.0, -0.0, 1e-45, -1e-45, 1e-40, -1e-40, 1.2e-38, -1.2e-38,
                  3e38, -3e38, 3.4028235e38, -3.4028235e38, np.inf, -np.inf, 1.0, -1.0],
                 np.float32),
        np.array([0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFC00001, 0x7F800001, 0xFF800001],
                 np.uint32).view(np.float32),
    ])
    rng = np.random.default_rng(3)
    cases = [np.resize(rng.permutation(edges), n) for n in (1, 5, 17, 64, 1000)]
    cases.append(rng.standard_normal((8, 4, 32, 32)).astype(np.float32) * np.float32(10))
    for x in cases:
        want = np.where(x > 0, x, x * LEAKY_SLOPE)
        assert _activate(x, "leaky").tobytes() == want.tobytes()
