import struct
from dataclasses import replace

import numpy as np
import pytest

from irshield.errors import ConfigError, ShapeError, WeightsError
from irshield.netdef import (
    WEIGHTS_MAGIC,
    WEIGHTS_VERSION,
    LayerSpec,
    NetworkDef,
    parse_config,
    parse_network,
    serialize_network,
    weights_layout,
)
from irshield.tensor import Tensor


def pack_weights(*values: float) -> bytes:
    return (
        WEIGHTS_MAGIC
        + WEIGHTS_VERSION.to_bytes(4, "little")
        + np.asarray(values, dtype="<f4").tobytes()
    )


MINIMAL_CFG = """\
[net]
width=4
height=4
channels=1

[convolutional]
filters=1
size=1
stride=1
pad=0
activation=linear
"""


# 2**62 filters over 3 channels
INT64_WRAP_CFG = (
    "[net]\nwidth=1\nheight=1\nchannels=3\n\n"
    "[convolutional]\nfilters=4611686018427387904\nsize=1\n"
)


def test_minimal_model_parses():
    net = parse_network(MINIMAL_CFG, pack_weights(0.0, 1.0))
    assert net.n_layers == 1
    assert net.input_shape == (4, 4, 1)
    assert net.layer_output_shapes[0] == (4, 4, 1)
    assert net.weights is not None


def test_parsed_weights_are_read_only_mappings_keyed_by_layout(plain17):
    for layer, in_shape, lw in zip(plain17.layers, plain17.layer_input_shapes, plain17.weights):
        assert list(lw) == [name for name, _ in weights_layout(layer, in_shape)]
    lw = plain17.weights[0]
    with pytest.raises(TypeError):
        lw["biases"] = np.zeros(4, np.float32)
    with pytest.raises(TypeError):
        del lw["bn_var"]
    with pytest.raises(ValueError, match="read-only"):
        lw["biases"][0] = 1.0


def test_route_source_must_precede_layer():
    cfg = """\
[net]
width=4
height=4
channels=1

[convolutional]
filters=1
size=1

[convolutional]
filters=1
size=1

[route]
layers=5
"""
    with pytest.raises(ConfigError, match="route source must precede layer"):
        parse_config(cfg)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"line 1: unknown section"):
        parse_config("[dropout]\n")


def test_unknown_key_rejected_with_line_number():
    cfg = "[net]\nwidth=4\nheight=4\nchannels=1\n\n[maxpool]\nsize=2\nmomentum=0.9\n"
    with pytest.raises(ConfigError, match=r"line 8: unknown key 'momentum'"):
        parse_config(cfg)


def test_duplicate_key_rejected():
    cfg = "[net]\nwidth=4\nwidth=5\nheight=4\nchannels=1\n\n[softmax]\n"
    with pytest.raises(ConfigError, match="duplicate key 'width'"):
        parse_config(cfg)


def test_missing_required_key():
    cfg = "[net]\nwidth=4\nheight=4\nchannels=1\n\n[convolutional]\nsize=3\n"
    with pytest.raises(ConfigError, match="missing required key 'filters'"):
        parse_config(cfg)


def test_non_integer_value():
    cfg = "[net]\nwidth=four\nheight=4\nchannels=1\n\n[softmax]\n"
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_config(cfg)


def test_net_section_only_first():
    cfg = "[net]\nwidth=4\nheight=4\nchannels=1\n\n[softmax]\n\n[net]\nwidth=2\nheight=2\nchannels=1\n"
    with pytest.raises(ConfigError, match=r"\[net\] may appear only once"):
        parse_config(cfg)


def test_softmax_only_final():
    cfg = (
        "[net]\nwidth=4\nheight=4\nchannels=1\n\n"
        "[softmax]\n\n[convolutional]\nfilters=1\nsize=1\n"
    )
    with pytest.raises(ConfigError, match="softmax must be the final layer"):
        parse_config(cfg)


NET = "[net]\nwidth=4\nheight=4\nchannels=1\n\n"  # the next section is on line 6


@pytest.mark.parametrize("body, message", [
    ("[convolutional]\nfilters=1\nsize=0\n", "line 8: key 'size' must be >= 1, got 0"),
    ("[convolutional]\nfilters=1\nsize=1\nstride=x\n",
     "line 9: key 'stride' must be an integer, got 'x'"),
    ("[convolutional]\nfilters=1\nsize=1\npad=2\n", "line 9: key 'pad' must be 0 or 1"),
    ("[convolutional]\nfilters=1\nsize=1\nbatch_normalize=2\n",
     "line 9: key 'batch_normalize' must be 0 or 1"),
    ("[convolutional]\nfilters=1\nsize=1\nactivation=tanh\n",
     "line 9: unknown activation 'tanh' (expected one of linear, relu, leaky)"),
    ("[maxpool]\nstride=2\n", "line 6: missing required key 'size'"),
    ("[maxpool]\nsize=2\nstride=0\n", "line 8: key 'stride' must be >= 1, got 0"),
    ("[avgpool]\nstride=2\n", "line 6: avgpool needs both size and stride, or neither (global)"),
    ("[avgpool]\nsize=-1\n", "line 6: avgpool needs both size and stride, or neither (global)"),
    ("[route]\n", "line 6: missing required key 'layers'"),
    ("[route]\nlayers=a\n", "line 7: route layers must be integers, got 'a'"),
    ("[route]\nlayers=,\n", "line 7: route needs at least one source layer"),
    ("[softmax]\n\n[route]\nlayers=0\n", "line 9: route source 0 is not a 1-based layer index"),
    ("[connected]\noutput=0\n", "line 7: key 'output' must be >= 1, got 0"),
    ("[softmax]\nsize=1\n", "line 7: unknown key 'size' in section [softmax]"),
    # a key fault after a softmax out of place, or after a layer that does not fit, comes first
    ("[softmax]\n\n[convolutional]\nfilters=0\nsize=1\n", "line 9: key 'filters' must be >= 1, got 0"),
    ("[convolutional]\nfilters=1\nsize=5\n\n[maxpool]\nsize=0\n",
     "line 11: key 'size' must be >= 1, got 0"),
])
def test_config_error_messages(body, message):
    with pytest.raises(ConfigError) as info:
        parse_config(NET + body)
    assert str(info.value) == message


def test_net_keys_checked():
    with pytest.raises(ConfigError, match=r"^line 2: key 'width' must be >= 1, got 0$"):
        parse_config("[net]\nwidth=0\nheight=4\nchannels=1\n\n[softmax]\n")
    with pytest.raises(ConfigError, match=r"^line 1: missing required key 'channels'$"):
        parse_config("[net]\nwidth=4\nheight=4\n\n[softmax]\n")


def test_defaults():
    net = parse_config(
        NET + "[convolutional]\nfilters=1\nsize=1\n\n[maxpool]\nsize=2\n\n"
        "[avgpool]\nsize=1\n\n[avgpool]\n"
    )
    conv, maxpool, avgpool, global_pool = net.layers
    assert (conv.stride, conv.pad, conv.activation, conv.batch_normalize) == (1, 0, "linear", False)
    assert (maxpool.size, maxpool.stride) == (2, 2)
    assert (avgpool.size, avgpool.stride) == (1, 1)
    assert (global_pool.size, global_pool.stride) == (0, 0)
    assert net.output_shape == (1, 1, 1)


def test_route_sources_must_share_spatial_size():
    cfg = """\
[net]
width=8
height=8
channels=1

[convolutional]
filters=2
size=3
pad=1

[maxpool]
size=2
stride=2

[route]
layers=1,2
"""
    with pytest.raises(ShapeError, match=r"layer 3 \(route\)"):
        parse_config(cfg)


def test_weight_length_mismatch_reports_byte_counts():
    with pytest.raises(WeightsError, match=r"expected 16 bytes, got 12 bytes"):
        parse_network(MINIMAL_CFG, pack_weights(0.0))


def test_weight_counts_do_not_wrap():
    # the filter weights are 3 * 2**62 floats, which wraps to -2**62 in int64
    # and would cancel the 2**62 biases against an empty blob
    with pytest.raises(WeightsError, match=r"expected 73786976294838206472 bytes, got 8 bytes"):
        parse_network(INT64_WRAP_CFG, pack_weights())


def test_weights_magic_checked():
    with pytest.raises(WeightsError, match="IRSW"):
        parse_network(MINIMAL_CFG, b"XXXX" + b"\x01\x00\x00\x00" + b"\x00" * 8)


def test_weights_version_checked():
    blob = WEIGHTS_MAGIC + (7).to_bytes(4, "little") + b"\x00" * 8
    with pytest.raises(WeightsError, match="version 7"):
        parse_network(MINIMAL_CFG, blob)


def test_kernel_must_fit_input():
    cfg = "[net]\nwidth=2\nheight=2\nchannels=1\n\n[convolutional]\nfilters=1\nsize=5\n"
    with pytest.raises(ShapeError, match=r"layer 1 \(convolutional\)"):
        parse_config(cfg)


CONV3 = LayerSpec(index=1, kind="convolutional", filters=2, size=3)


def test_network_derives_every_layer_shape():
    route = LayerSpec(index=2, kind="route", sources=(1,))
    net = NetworkDef((4, 4, 1), (CONV3, route))
    assert net.weights is None
    assert net.layer_input_shapes == ((4, 4, 1), (2, 2, 2))
    assert net.layer_output_shapes == ((2, 2, 2), (2, 2, 2))
    with pytest.raises(TypeError):
        NetworkDef((4, 4, 1), (CONV3,), None, ((4, 4, 1),), ((2, 2, 2),))


def test_layer_that_does_not_fit_refused_at_construction():
    with pytest.raises(ShapeError, match=r"layer 1 \(convolutional\): kernel 3 does not fit input 2x2"):
        NetworkDef((2, 2, 1), (CONV3,))
    # replace constructs again, so its shapes are derived and checked again
    with pytest.raises(ShapeError, match="does not fit"):
        replace(NetworkDef((4, 4, 1), (CONV3,)), input_shape=(2, 2, 1))


@pytest.mark.parametrize("layers, message", [
    ((replace(CONV3, index=2),), "layer 1 carries index 2"),
    ((CONV3, LayerSpec(index=2, kind="route", sources=(2,))), r"^layer 2 \(route\): route source must precede layer: source 2 not before layer 2$"),
    ((CONV3, LayerSpec(index=2, kind="route", sources=(0,))), r"^layer 2 \(route\): route source 0 is not a 1-based layer index$"),
])
def test_layer_numbering_checked_at_construction(layers, message):
    with pytest.raises(ShapeError, match=message):
        NetworkDef((4, 4, 1), layers)


@pytest.mark.parametrize("input_shape, layers, message", [
    ((4, 4), (CONV3,), r"^input shape \(4, 4\): must be a tuple of three values "
                       r"\(width, height, channels\)$"),
    ((4, 4, 1, 9), (CONV3,), r"^input shape \(4, 4, 1, 9\): must be a tuple of three values"),
    ((4, 4, 1), (), r"^model defines no layers$"),
    # the grammar comes first, as in text: layer 2 does not fit, but layer 5's key is reported
    ((4, 4, 1), (CONV3, replace(CONV3, index=2), *(replace(CONV3, index=i, size=1) for i in (3, 4)),
                 replace(CONV3, index=5, filters=0)),
     r"^layer 5 \(convolutional\): key 'filters' must be >= 1, got 0$"),
])
def test_network_refused_at_construction(input_shape, layers, message):
    with pytest.raises(ShapeError, match=message):
        NetworkDef(input_shape, layers)


def test_unknown_layer_kind_refused_at_construction():
    with pytest.raises(ShapeError) as info:
        NetworkDef((4, 4, 1), (LayerSpec(index=1, kind="upsample"),))
    assert str(info.value) == "layer 1 (upsample): unknown kind 'upsample'"


@pytest.mark.parametrize("cfg, message", [
    ("[softmax]\n\n" + NET, "line 1: first section must be [net], got [softmax]"),
    (NET, "line 1: model defines no layers"),
])
def test_config_without_a_first_net_or_a_layer_refused(cfg, message):
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert str(info.value) == message


def test_structure_only_network_not_serialized():
    with pytest.raises(WeightsError) as info:
        serialize_network(parse_config(MINIMAL_CFG))
    assert str(info.value) == "cannot serialize a structure-only NetworkDef"


def test_parse_network_walks_the_grammar_once(monkeypatch):
    """One call of the checker walks all 18 sections of plain17 ([net] and 17
    layers), in NetworkDef; the parser no longer checks each section first."""
    from irshield import netdef
    from irshield.fixtures import gen_fixture_model

    cfg, weights = gen_fixture_model("plain17", 42, 10)
    calls = []

    def counted(*args):
        calls.append(args)
        return walk(*args)

    walk = netdef._grammar_fault
    monkeypatch.setattr(netdef, "_grammar_fault", counted)
    net = parse_network(cfg, weights)
    assert calls == [(net.input_shape, net.layers)] and net.n_layers == 17


def test_parse_network_derives_each_shape_once(monkeypatch):
    from irshield import netdef
    from irshield.fixtures import gen_fixture_model

    cfg, weights = gen_fixture_model("plain17", 42, 10)
    calls = []

    def counted(*args):
        calls.append(args[0].index)
        return layer_output_shape(*args)

    layer_output_shape = netdef.layer_output_shape
    monkeypatch.setattr(netdef, "layer_output_shape", counted)
    net = parse_network(cfg, weights)
    assert calls == list(range(1, 18))
    assert net.n_layers == 17 and len(net.weights) == 17


def test_serialize_round_trip(plain17):
    cfg, weights = serialize_network(plain17)
    again = parse_network(cfg, weights)
    assert again.layers == plain17.layers
    assert again.input_shape == plain17.input_shape
    assert again.layer_output_shapes == plain17.layer_output_shapes
    cfg2, weights2 = serialize_network(again)
    assert cfg2 == cfg
    assert weights2 == weights


def test_serialize_round_trip_denseblock(denseblock):
    cfg, weights = serialize_network(denseblock)
    again = parse_network(cfg, weights)
    assert again.layers == denseblock.layers
    _, weights2 = serialize_network(again)
    assert weights2 == weights


class TestTensor:
    def test_from_array_copies_to_frozen_float32(self):
        src = np.arange(12, dtype=np.float64).reshape(3, 2, 2)
        t = Tensor.from_array(src)
        src[0, 0, 0] = 99.0
        assert t.array.dtype == np.float32 and t.array[0, 0, 0] == 0.0
        assert not t.array.flags.writeable and t.array.flags.c_contiguous
        assert t.shape == (2, 2, 3)

    @pytest.mark.parametrize("shape", [(4, 4), (1, 2, 2, 1), (0, 2, 2), (3, 2, 0)])
    def test_from_array_refuses_other_than_non_empty_3d(self, shape):
        with pytest.raises(ShapeError, match=r"3-D \(c, h, w\) array of positive dimensions"):
            Tensor.from_array(np.zeros(shape))

    def test_length_validated(self):
        # the encoded values must be exactly w*h*c, no more
        blob = Tensor.from_array(np.zeros((1, 2, 2))).encode()
        with pytest.raises(ShapeError, match="blob length"):
            Tensor.decode(blob + bytes(4))

    def test_layout_channel_major_then_rows(self):
        t = Tensor.decode(struct.pack("<III", 2, 2, 2) + struct.pack("<8f", *range(8)))
        assert t.array[0, 0, 1] == 1  # x fastest
        assert t.array[0, 1, 0] == 2  # then y
        assert t.array[1, 0, 0] == 4  # channel slowest

    def test_codec_round_trip(self):
        t = Tensor.from_array(np.arange(24, dtype=np.float32).reshape(4, 2, 3) / 7)
        back = Tensor.decode(t.encode())
        np.testing.assert_array_equal(back.array, t.array)
        assert back.shape == (3, 2, 4)

    def test_decode_rejects_bad_length(self):
        blob = Tensor.from_array(np.zeros((1, 2, 2))).encode()
        with pytest.raises(ShapeError, match="blob length"):
            Tensor.decode(blob[:-1])

    def test_decode_refuses_a_zero_size(self):
        with pytest.raises(ShapeError, match=r"3-D \(c, h, w\) array of positive dimensions"):
            Tensor.decode(struct.pack("<III", 0, 2, 2))
