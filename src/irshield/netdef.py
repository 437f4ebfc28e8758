"""Model definitions: the text config grammar and the binary weights format.

A model file is UTF-8 text made of sections. ``[net]`` comes first and
declares the input shape; each following section declares one layer::

    [net]
    width=32
    height=32
    channels=3

    [convolutional]
    filters=4
    size=3
    stride=1
    pad=1
    activation=leaky
    batch_normalize=1

    [maxpool]
    size=2
    stride=2

    [route]
    layers=2,3

    [avgpool]

    [connected]
    output=10

    [softmax]

Lines are ``key=value``; ``#`` starts a comment. Parsing is strict: unknown
sections and unknown keys are errors. Route sources are absolute 1-based
layer indices and concatenate their sources along the channel axis.
``pad=1`` on a convolution means "pad by size // 2"; ``[avgpool]`` without a
size is global average pooling. Pools use floor output sizing (windows never
extend past the input edge).

Weights are a separate binary blob: magic ``IRSW``, a u32 little-endian
format version, then raw f32 little-endian values in layer order. Within a
convolutional layer the order is biases, batch-norm (scale, mean, variance)
when enabled, then filter weights laid out ``[filter][in_channel][ky][kx]``.
A connected layer stores biases then weights laid out ``[out][in]``, where
the input index runs over the flattened (channel-major) input tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, WeightsError

__all__ = [
    "LayerSpec",
    "ConvWeights",
    "ConnectedWeights",
    "NetworkDef",
    "parse_config",
    "parse_network",
    "serialize_network",
    "layer_output_shape",
    "weights_layout",
    "layer_weights",
    "WEIGHTS_MAGIC",
    "WEIGHTS_VERSION",
]

WEIGHTS_MAGIC = b"IRSW"
WEIGHTS_VERSION = 1

ACTIVATIONS = ("linear", "relu", "leaky")
_BN_FIELDS = ("bn_scale", "bn_mean", "bn_var")
LAYER_KINDS = ("convolutional", "maxpool", "avgpool", "route", "connected", "softmax")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a network. Only the fields for ``kind`` are meaningful."""

    index: int
    kind: str
    filters: int = 0
    size: int = 0
    stride: int = 1
    pad: int = 0
    activation: str = "linear"
    batch_normalize: bool = False
    # Convolutions parsed from config text always carry biases; the flag
    # exists so workload analysis can cost a bias-free convolution.
    bias: bool = True
    sources: tuple[int, ...] = ()
    output: int = 0

    def pad_pixels(self) -> int:
        return self.size // 2 if self.pad else 0


@dataclass(frozen=True)
class ConvWeights:
    biases: np.ndarray
    bn_scale: np.ndarray | None
    bn_mean: np.ndarray | None
    bn_var: np.ndarray | None
    filters: np.ndarray  # shape (f, c_in, k, k)


@dataclass(frozen=True)
class ConnectedWeights:
    biases: np.ndarray
    weights: np.ndarray  # shape (out, in)


@dataclass(frozen=True)
class NetworkDef:
    """A shape-validated network: layer specs, optional weights, and the
    input/output shape of every layer.

    Immutable after load; safe to share across threads.
    """

    input_shape: tuple[int, int, int]  # (w, h, c)
    layers: tuple[LayerSpec, ...]
    weights: tuple | None  # per-layer ConvWeights/ConnectedWeights/None
    layer_input_shapes: tuple[tuple[int, int, int], ...] = field(repr=False)
    layer_output_shapes: tuple[tuple[int, int, int], ...] = field(repr=False)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def output_shape(self) -> tuple[int, int, int]:
        return self.layer_output_shapes[-1]

    def class_count(self) -> int:
        w, h, c = self.output_shape
        return w * h * c


# --- config parsing ---------------------------------------------------------

_SECTION_KEYS = {
    "net": {"width", "height", "channels"},
    "convolutional": {"filters", "size", "stride", "pad", "activation", "batch_normalize"},
    "maxpool": {"size", "stride"},
    "avgpool": {"size", "stride"},
    "route": {"layers"},
    "connected": {"output"},
    "softmax": set(),
}


def _parse_sections(text: str) -> list[tuple[str, int, dict[str, tuple[str, int]]]]:
    """Split config text into (section_name, line_no, {key: (value, line_no)})."""
    sections: list[tuple[str, int, dict[str, tuple[str, int]]]] = []
    current: dict[str, tuple[str, int]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"unterminated section header {line!r}", lineno)
            name = line[1:-1].strip()
            if name not in _SECTION_KEYS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            current = {}
            sections.append((name, lineno, current))
        else:
            if current is None:
                raise ConfigError(f"key line {line!r} before any section", lineno)
            if "=" not in line:
                raise ConfigError(f"expected key=value, got {line!r}", lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            section_name = sections[-1][0]
            if key not in _SECTION_KEYS[section_name]:
                raise ConfigError(f"unknown key {key!r} in section [{section_name}]", lineno)
            if key in current:
                raise ConfigError(f"duplicate key {key!r}", lineno)
            current[key] = (value, lineno)
    return sections


def _take_int(keys: dict, name: str, lineno: int, *, required=False, default=None, minimum=None):
    if name not in keys:
        if required:
            raise ConfigError(f"missing required key {name!r}", lineno)
        return default
    value, value_line = keys.pop(name)
    try:
        out = int(value)
    except ValueError:
        raise ConfigError(f"key {name!r} must be an integer, got {value!r}", value_line) from None
    if minimum is not None and out < minimum:
        raise ConfigError(f"key {name!r} must be >= {minimum}, got {out}", value_line)
    return out


def _layer_from_section(index: int, name: str, lineno: int, keys: dict) -> LayerSpec:
    if name == "convolutional":
        filters = _take_int(keys, "filters", lineno, required=True, minimum=1)
        size = _take_int(keys, "size", lineno, required=True, minimum=1)
        stride = _take_int(keys, "stride", lineno, default=1, minimum=1)
        pad = _take_int(keys, "pad", lineno, default=0)
        if pad not in (0, 1):
            raise ConfigError("key 'pad' must be 0 or 1", lineno)
        bn = _take_int(keys, "batch_normalize", lineno, default=0)
        if bn not in (0, 1):
            raise ConfigError("key 'batch_normalize' must be 0 or 1", lineno)
        activation = "linear"
        if "activation" in keys:
            activation, act_line = keys.pop("activation")
            if activation not in ACTIVATIONS:
                raise ConfigError(
                    f"unknown activation {activation!r} (expected one of {', '.join(ACTIVATIONS)})",
                    act_line,
                )
        return LayerSpec(
            index=index, kind=name, filters=filters, size=size, stride=stride,
            pad=pad, activation=activation, batch_normalize=bool(bn),
        )
    if name == "maxpool":
        size = _take_int(keys, "size", lineno, required=True, minimum=1)
        stride = _take_int(keys, "stride", lineno, default=size, minimum=1)
        return LayerSpec(index=index, kind=name, size=size, stride=stride)
    if name == "avgpool":
        size = _take_int(keys, "size", lineno, default=0)
        stride = _take_int(keys, "stride", lineno, default=size if size else 0)
        if size < 0 or stride < 0 or (size == 0) != (stride == 0):
            raise ConfigError("avgpool needs both size and stride, or neither (global)", lineno)
        return LayerSpec(index=index, kind=name, size=size, stride=stride)
    if name == "route":
        if "layers" not in keys:
            raise ConfigError("missing required key 'layers'", lineno)
        value, value_line = keys.pop("layers")
        try:
            sources = tuple(int(part.strip()) for part in value.split(",") if part.strip())
        except ValueError:
            raise ConfigError(f"route layers must be integers, got {value!r}", value_line) from None
        if not sources:
            raise ConfigError("route needs at least one source layer", value_line)
        for src in sources:
            if src < 1:
                raise ConfigError(f"route source {src} is not a 1-based layer index", value_line)
            if src >= index:
                raise ConfigError(
                    f"route source must precede layer: source {src} not before layer {index}",
                    value_line,
                )
        return LayerSpec(index=index, kind=name, sources=sources)
    if name == "connected":
        output = _take_int(keys, "output", lineno, required=True, minimum=1)
        return LayerSpec(index=index, kind=name, output=output)
    if name == "softmax":
        return LayerSpec(index=index, kind=name)
    raise ConfigError(f"unknown section [{name}]", lineno)  # unreachable


def layer_output_shape(
    layer: LayerSpec,
    input_shape: tuple[int, int, int],
    source_shapes: tuple[tuple[int, int, int], ...],
) -> tuple[int, int, int]:
    """Output shape (w, h, c) of one layer; ``source_shapes`` are the output
    shapes of a route's sources, in order, and are ignored by other kinds."""
    w, h, c = input_shape
    name = f"layer {layer.index} ({layer.kind})"
    if layer.kind == "convolutional":
        p = layer.pad_pixels()
        ow = (w + 2 * p - layer.size) // layer.stride + 1
        oh = (h + 2 * p - layer.size) // layer.stride + 1
        if ow < 1 or oh < 1:
            raise ShapeError(
                f"{name}: kernel {layer.size} does not fit input {w}x{h} with pad {p}"
            )
        return (ow, oh, layer.filters)
    if layer.kind == "maxpool" or (layer.kind == "avgpool" and layer.size):
        if w < layer.size or h < layer.size:
            raise ShapeError(f"{name}: window {layer.size} exceeds input {w}x{h}")
        ow = (w - layer.size) // layer.stride + 1
        oh = (h - layer.size) // layer.stride + 1
        return (ow, oh, c)
    if layer.kind == "avgpool":  # global
        return (1, 1, c)
    if layer.kind == "route":
        w0, h0 = source_shapes[0][0], source_shapes[0][1]
        for s, (sw, sh, _) in zip(layer.sources, source_shapes):
            if (sw, sh) != (w0, h0):
                raise ShapeError(
                    f"{name}: source {s} is {sw}x{sh}, "
                    f"but source {layer.sources[0]} is {w0}x{h0}"
                )
        return (w0, h0, sum(shape[2] for shape in source_shapes))
    if layer.kind == "connected":
        return (1, 1, layer.output)
    if layer.kind == "softmax":
        return (1, 1, w * h * c)
    raise ShapeError(f"{name}: unknown kind {layer.kind!r}")


def _propagate_shapes(
    input_shape: tuple[int, int, int], layers: tuple[LayerSpec, ...]
) -> tuple[list, list]:
    in_shapes: list[tuple[int, int, int]] = []
    out_shapes: list[tuple[int, int, int]] = []
    for layer in layers:
        in_shape = out_shapes[-1] if out_shapes else input_shape
        sources = tuple(out_shapes[s - 1] for s in layer.sources)
        in_shapes.append(in_shape)
        out_shapes.append(layer_output_shape(layer, in_shape, sources))
    return in_shapes, out_shapes


def weights_layout(
    layer: LayerSpec, input_shape: tuple[int, int, int]
) -> list[tuple[str, tuple[int, ...]]]:
    """The (field, shape) arrays one layer stores, in weights-blob order."""
    if layer.kind == "convolutional":
        f = layer.filters
        bn = [(name, (f,)) for name in _BN_FIELDS] if layer.batch_normalize else []
        return [("biases", (f,)), *bn, ("filters", (f, input_shape[2], layer.size, layer.size))]
    if layer.kind == "connected":
        w, h, c = input_shape
        return [("biases", (layer.output,)), ("weights", (layer.output, w * h * c))]
    return []


def layer_weights(layer: LayerSpec, arrays: dict[str, np.ndarray]):
    """The layer's ConvWeights/ConnectedWeights (None for other kinds) from
    the arrays that :func:`weights_layout` names."""
    if layer.kind == "convolutional":
        return ConvWeights(**{**dict.fromkeys(_BN_FIELDS), **arrays})
    if layer.kind == "connected":
        return ConnectedWeights(**arrays)
    return None


def parse_config(config_text: str) -> NetworkDef:
    """Parse the text definition alone; the result carries no weights."""
    sections = _parse_sections(config_text)
    if not sections:
        raise ConfigError("empty model definition", 1)
    name, lineno, keys = sections[0]
    if name != "net":
        raise ConfigError(f"first section must be [net], got [{name}]", lineno)
    width = _take_int(keys, "width", lineno, required=True, minimum=1)
    height = _take_int(keys, "height", lineno, required=True, minimum=1)
    channels = _take_int(keys, "channels", lineno, required=True, minimum=1)

    layers = []
    for index, (lname, lline, lkeys) in enumerate(sections[1:], start=1):
        if lname == "net":
            raise ConfigError("[net] may appear only once, first", lline)
        layers.append(_layer_from_section(index, lname, lline, lkeys))
    if not layers:
        raise ConfigError("model defines no layers", lineno)
    for layer, (lname, lline, _) in zip(layers, sections[1:]):
        if layer.kind == "softmax" and layer.index != len(layers):
            raise ConfigError("softmax must be the final layer", lline)

    layers = tuple(layers)
    in_shapes, out_shapes = _propagate_shapes((width, height, channels), layers)
    return NetworkDef(
        input_shape=(width, height, channels),
        layers=layers,
        weights=None,
        layer_input_shapes=tuple(in_shapes),
        layer_output_shapes=tuple(out_shapes),
    )


def _frozen(arr: np.ndarray, shape) -> np.ndarray:
    out = arr.reshape(shape).copy()
    out.flags.writeable = False
    return out


def parse_network(config_text: str, weights_bytes: bytes) -> NetworkDef:
    """Parse and shape-check a model definition together with its weights."""
    net = parse_config(config_text)

    if len(weights_bytes) < 8 or weights_bytes[:4] != WEIGHTS_MAGIC:
        raise WeightsError("weights blob lacks the IRSW magic header")
    version = int.from_bytes(weights_bytes[4:8], "little")
    if version != WEIGHTS_VERSION:
        raise WeightsError(f"unsupported weights format version {version}")

    layouts = [
        weights_layout(layer, in_shape)
        for layer, in_shape in zip(net.layers, net.layer_input_shapes)
    ]
    total_floats = sum(int(np.prod(shape)) for layout in layouts for _, shape in layout)
    expected_bytes = 8 + 4 * total_floats
    if len(weights_bytes) != expected_bytes:
        raise WeightsError(
            f"weights length mismatch: expected {expected_bytes} bytes, "
            f"got {len(weights_bytes)} bytes"
        )

    values = np.frombuffer(weights_bytes, dtype="<f4", offset=8)
    cursor = 0
    per_layer = []
    for layer, layout in zip(net.layers, layouts):
        arrays = {}
        for name, shape in layout:
            n = int(np.prod(shape))
            arrays[name] = _frozen(values[cursor : cursor + n], shape)
            cursor += n
        per_layer.append(layer_weights(layer, arrays))

    return NetworkDef(
        input_shape=net.input_shape,
        layers=net.layers,
        weights=tuple(per_layer),
        layer_input_shapes=net.layer_input_shapes,
        layer_output_shapes=net.layer_output_shapes,
    )


# --- serialization ----------------------------------------------------------


def _layer_to_text(layer: LayerSpec) -> str:
    if layer.kind == "convolutional":
        lines = [
            "[convolutional]",
            f"filters={layer.filters}",
            f"size={layer.size}",
            f"stride={layer.stride}",
            f"pad={layer.pad}",
            f"activation={layer.activation}",
        ]
        if layer.batch_normalize:
            lines.append("batch_normalize=1")
        return "\n".join(lines)
    if layer.kind == "maxpool":
        return f"[maxpool]\nsize={layer.size}\nstride={layer.stride}"
    if layer.kind == "avgpool":
        if layer.size:
            return f"[avgpool]\nsize={layer.size}\nstride={layer.stride}"
        return "[avgpool]"
    if layer.kind == "route":
        return "[route]\nlayers=" + ",".join(str(s) for s in layer.sources)
    if layer.kind == "connected":
        return f"[connected]\noutput={layer.output}"
    if layer.kind == "softmax":
        return "[softmax]"
    raise ShapeError(f"cannot serialize layer kind {layer.kind!r}")


def serialize_network(net: NetworkDef) -> tuple[str, bytes]:
    """Render a network back to (config text, weights blob).

    Parsing the result yields an equivalent NetworkDef; weight values
    round-trip bit-exactly.
    """
    if net.weights is None:
        raise WeightsError("cannot serialize a structure-only NetworkDef")
    w, h, c = net.input_shape
    blocks = [f"[net]\nwidth={w}\nheight={h}\nchannels={c}"]
    blocks.extend(_layer_to_text(layer) for layer in net.layers)
    config_text = "\n\n".join(blocks) + "\n"

    chunks = [WEIGHTS_MAGIC, WEIGHTS_VERSION.to_bytes(4, "little")]
    for layer, in_shape, lw in zip(net.layers, net.layer_input_shapes, net.weights):
        for name, _ in weights_layout(layer, in_shape):
            chunks.append(getattr(lw, name).astype("<f4").tobytes())
    return config_text, b"".join(chunks)
