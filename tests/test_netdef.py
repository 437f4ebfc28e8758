import numpy as np
import pytest

from irshield.errors import ConfigError, ShapeError, WeightsError
from irshield.netdef import (
    WEIGHTS_MAGIC,
    WEIGHTS_VERSION,
    parse_config,
    parse_network,
    serialize_network,
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


def test_minimal_model_parses():
    net = parse_network(MINIMAL_CFG, pack_weights(0.0, 1.0))
    assert net.n_layers == 1
    assert net.input_shape == (4, 4, 1)
    assert net.layer_output_shapes[0] == (4, 4, 1)
    assert net.weights is not None


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
    def test_length_validated(self):
        with pytest.raises(ShapeError, match="data length"):
            Tensor(2, 2, 1, [1.0, 2.0, 3.0])

    def test_layout_channel_major_then_rows(self):
        t = Tensor(2, 2, 2, list(range(8)))
        assert t.array[0, 0, 1] == 1  # x fastest
        assert t.array[0, 1, 0] == 2  # then y
        assert t.array[1, 0, 0] == 4  # channel slowest

    def test_codec_round_trip(self):
        t = Tensor(3, 2, 4, np.arange(24, dtype=np.float32) / 7)
        back = Tensor.decode(t.encode())
        assert back == t
        assert back.shape == (3, 2, 4)

    def test_decode_rejects_bad_length(self):
        blob = Tensor(2, 2, 1, [0.0] * 4).encode()
        with pytest.raises(ShapeError, match="blob length"):
            Tensor.decode(blob[:-1])
