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
``pad=1`` on a convolution means "pad by size // 2". Defaults: a
convolution's ``stride`` is 1, ``pad`` and ``batch_normalize`` are 0 and
``activation`` is linear; a pool's ``stride`` is its ``size``; an
``[avgpool]`` with neither key is global average pooling. Pools use floor
output sizing (windows never extend past the input edge). One table,
``_GRAMMAR``, holds every key with its default and check, and drives both
parsing and serialization. ``NetworkDef`` checks every network, parsed or
hand-built, against it in one walk; the parser only reads values.

Weights are a separate binary blob: magic ``IRSW``, a u32 little-endian
format version, then raw f32 little-endian values in layer order. Within a
convolutional layer the order is biases, batch-norm (scale, mean, variance)
when enabled, then filter weights laid out ``[filter][in_channel][ky][kx]``.
A connected layer stores biases then weights laid out ``[out][in]``, where
the input index runs over the flattened (channel-major) input tensor.
``weights_layout`` alone names these arrays: a parsed layer's weights are a
read-only mapping from those names to frozen arrays.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field, fields
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, ShapeError, WeightsError

__all__ = [
    "LayerSpec",
    "NetworkDef",
    "parse_config",
    "parse_network",
    "serialize_network",
    "route_crossings",
    "valid_partition_points",
    "layer_output_shape",
    "weights_layout",
    "WEIGHTS_MAGIC",
    "WEIGHTS_VERSION",
]

WEIGHTS_MAGIC = b"IRSW"
WEIGHTS_VERSION = 1
_WEIGHTS_HEADER = struct.Struct("<4sI")  # magic, format version; the values follow
_WEIGHT = np.dtype("<f4")

ACTIVATIONS = ("linear", "relu", "leaky")


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
class NetworkDef:
    """A shape-checked network: layer specs (1-based indices in order),
    optional weights, and the input/output shape of every layer, derived from
    the layers at construction (a layer that does not fit raises ShapeError).

    Immutable after load; safe to share across threads.
    """

    input_shape: tuple[int, int, int]  # (w, h, c)
    layers: tuple[LayerSpec, ...]
    weights: tuple | None = None  # per layer, {weights_layout name: array}
    layer_input_shapes: tuple[tuple[int, int, int], ...] = field(init=False, repr=False)
    layer_output_shapes: tuple[tuple[int, int, int], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if fault := _grammar_fault(self.input_shape, self.layers):
            position, _, message = fault
            where = ("" if position is None else f"input shape {self.input_shape}: " if position == 0
                     else f"layer {position} ({self.layers[position - 1].kind}): ")
            raise ShapeError(where + message)
        shapes = [self.input_shape]  # then layer k's output at k
        for layer in self.layers:
            shapes.append(layer_output_shape(layer, shapes[-1], tuple(shapes[s] for s in layer.sources)))
        object.__setattr__(self, "layer_input_shapes", tuple(shapes[:-1]))
        object.__setattr__(self, "layer_output_shapes", tuple(shapes[1:]))

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def output_shape(self) -> tuple[int, int, int]:
        return self.layer_output_shapes[-1]

    def class_count(self) -> int:
        w, h, c = self.output_shape
        return w * h * c

    @functools.cached_property
    def plan(self) -> tuple:
        """The engine's compiled steps and range checks for this network,
        built on first use and kept for its lifetime (see
        :func:`irshield.engine.compile_plan`)."""
        from .engine import compile_plan

        return compile_plan(self)


# --- config grammar ---------------------------------------------------------

_REQUIRED = object()  # the key must be written
_SIZE = object()  # the key defaults to the section's own size
_INTEGER = (int, np.integer)

# Every key of every section in written order, as key: (default, check). The
# default is _REQUIRED, a constant or _SIZE. The check is a minimum, the allowed
# values, None (any integer, which a section rule reads), or ``tuple`` (route sources).
_GRAMMAR = {
    "net": {"width": (_REQUIRED, 1), "height": (_REQUIRED, 1), "channels": (_REQUIRED, 1)},
    "convolutional": {
        "filters": (_REQUIRED, 1), "size": (_REQUIRED, 1), "stride": (1, 1), "pad": (0, (0, 1)),
        "activation": ("linear", ACTIVATIONS), "batch_normalize": (0, (0, 1)),
    },
    "maxpool": {"size": (_REQUIRED, 1), "stride": (_SIZE, 1)},
    "avgpool": {"size": (0, None), "stride": (_SIZE, None)},
    "route": {"layers": (_REQUIRED, tuple)},
    "connected": {"output": (_REQUIRED, 1)},
    "softmax": {},
}

# Per layer kind, each LayerSpec field (bias aside) that no key writes, with its parsed default
_UNKEYED = {kind: {f.name: f.default for f in fields(LayerSpec)[2:]  # after index and kind
                   if f.name != "bias" and ("layers" if f.name == "sources" else f.name) not in keys}
            for kind, keys in _GRAMMAR.items() if kind != "net"}


def _grammar_fault(input_shape: tuple, layers: tuple) -> tuple | None:
    """The first config rule a network breaks, as (position: 0 for [net], k for layer k,
    None for the layer list; the key at fault or None; message), or None. Every
    section's keys are checked before any softmax's place, as text reports them."""
    if not isinstance(input_shape, tuple) or len(input_shape) != 3:
        return 0, None, "must be a tuple of three values (width, height, channels)"
    for position, (kind, values) in enumerate(_sections(input_shape, layers)):
        if position and values["index"] != position:
            return None, None, f"layer {position} carries index {values['index']}"
        if position and kind not in _UNKEYED:
            return position, None, ("[net] may appear only once, first" if kind == "net"
                                    else f"unknown kind {kind!r}")
        for key, (_, check) in _GRAMMAR[kind].items():
            value = values[key]
            if value is _REQUIRED:
                return position, key, f"missing required key {key!r}"
            if check is ACTIVATIONS:
                if value not in check:
                    return position, key, f"unknown {key} {value!r} (expected one of {', '.join(check)})"
            elif check is tuple:
                if not (isinstance(value, tuple) and all(isinstance(s, _INTEGER) for s in value)):
                    return position, key, f"route layers must be integers, got {value!r}"
                if not value:
                    return position, key, "route needs at least one source layer"
                for src in value:
                    if src < 1:
                        return position, key, f"route source {src} is not a 1-based layer index"
                    if src >= position:
                        return position, key, (f"route source must precede layer: source {src} "
                                               f"not before layer {position}")
            elif not isinstance(value, _INTEGER):
                return position, key, f"key {key!r} must be an integer, got {value!r}"
            elif isinstance(check, int) and value < check:
                return position, key, f"key {key!r} must be >= {check}, got {value}"
            elif isinstance(check, tuple) and value not in check:
                return position, key, f"key {key!r} must be {' or '.join(map(str, check))}"
        if kind == "avgpool" and not (values["size"] == values["stride"] == 0
                                      or min(values["size"], values["stride"]) > 0):
            return position, None, "avgpool needs both size and stride, or neither (global)"
        for name, default in _UNKEYED.get(kind, {}).items():
            if values[name] != default:
                return position, None, f"[{kind}] has no key for field {name!r}"
    if not layers:  # after [net]'s keys, the only section
        return None, None, "model defines no layers"
    for position, layer in enumerate(layers[:-1], start=1):
        if layer.kind == "softmax":
            return position, None, "softmax must be the final layer"
    return None


def _sections(input_shape: tuple, layers: tuple) -> list[tuple[str, dict]]:
    """A network's (kind, {key: value}) sections: ``sources`` as ``layers``, a flag as 0 or 1."""
    return [("net", dict(zip(_GRAMMAR["net"], input_shape))), *(
        (layer.kind, {**{key: int(v) if isinstance(v, bool) else v for key, v in vars(layer).items()},
                      "layers": layer.sources}) for layer in layers)]


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
            if name not in _GRAMMAR:
                raise ConfigError(f"unknown section [{name}]", lineno)
            current = {}
            sections.append((name, lineno, current))
        else:
            if current is None:
                raise ConfigError(f"key line {line!r} before any section", lineno)
            if "=" not in line:
                raise ConfigError(f"expected key=value, got {line!r}", lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _GRAMMAR[name]:
                raise ConfigError(f"unknown key {key!r} in section [{name}]", lineno)
            if key in current:
                raise ConfigError(f"duplicate key {key!r}", lineno)
            current[key] = (value, lineno)
    return sections


def _read_section(name: str, keys: dict) -> dict:
    """One section's keys as LayerSpec fields, defaulted as the grammar says and kept as
    read, unchecked: a value that does not read as its key's integers stays text."""
    values: dict[str, object] = {}
    for key, (default, check) in _GRAMMAR[name].items():
        if key not in keys:
            value = values["size"] if default is _SIZE else default
        else:
            text = keys[key][0]
            try:
                value = (text if check is ACTIVATIONS else int(text) if check is not tuple
                         else tuple(int(part) for part in text.split(",") if part.strip()))
            except ValueError:
                value = text
        if key == "batch_normalize" and value in (0, 1):
            value = bool(value)
        values["sources" if key == "layers" else key] = value
    return values


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
    return (1, 1, w * h * c)  # softmax


def route_crossings(net: NetworkDef, cut: int, last: int | None = None) -> list[tuple[int, int]]:
    """``(layer, source)`` pairs of the routes in layers ``cut+1..last`` (default: to
    the end) that read layer ``cut`` or earlier, which a range starting after ``cut``
    cannot run."""
    return [(layer.index, src) for layer in net.layers[cut:last] for src in layer.sources
            if src <= cut]


def valid_partition_points(net: NetworkDef) -> set[int]:
    """Cut indices i where no route layer after i reads a layer at or
    before i. For a plain chain this is every i in [1, n)."""
    return {i for i in range(1, net.n_layers) if not route_crossings(net, i)}


def weights_layout(
    layer: LayerSpec, input_shape: tuple[int, int, int]
) -> list[tuple[str, tuple[int, ...]]]:
    """The (name, shape) arrays one layer stores, in weights-blob order; the
    names key the layer's entry in ``NetworkDef.weights``."""
    if layer.kind == "convolutional":
        f = layer.filters
        bn = ("bn_scale", "bn_mean", "bn_var") if layer.batch_normalize else ()
        return [("biases", (f,)), *((name, (f,)) for name in bn),
                ("filters", (f, input_shape[2], layer.size, layer.size))]
    if layer.kind == "connected":
        w, h, c = input_shape
        return [("biases", (layer.output,)), ("weights", (layer.output, w * h * c))]
    return []


def parse_config(config_text: str) -> NetworkDef:
    """Parse the text definition alone; the result carries no weights. A broken config
    rule is a ConfigError at its key's line, else its section's."""
    sections = _parse_sections(config_text)
    if not sections:
        raise ConfigError("empty model definition", 1)
    name, lineno, keys = sections[0]
    if name != "net":
        raise ConfigError(f"first section must be [net], got [{name}]", lineno)
    input_shape = tuple(_read_section("net", keys).values())
    # a second [net] is kept as a layer of kind net, with no fields, for the walk to refuse
    layers = tuple(LayerSpec(index, name, **(_read_section(name, keys) if name != "net" else {}))
                   for index, (name, _, keys) in enumerate(sections[1:], start=1))
    try:
        return NetworkDef(input_shape, layers)
    except ShapeError:
        if not (fault := _grammar_fault(input_shape, layers)):
            raise
    position, key, message = fault
    _, lineno, keys = sections[position or 0]
    raise ConfigError(message, keys[key][1] if key in keys else lineno)


def parse_network(config_text: str, weights_bytes: bytes) -> NetworkDef:
    """Parse and shape-check a model definition together with its weights."""
    net = parse_config(config_text)

    if len(weights_bytes) < _WEIGHTS_HEADER.size:
        raise WeightsError(f"weights blob shorter than its {_WEIGHTS_HEADER.size}-byte header")
    magic, version = _WEIGHTS_HEADER.unpack_from(weights_bytes)
    if magic != WEIGHTS_MAGIC:
        raise WeightsError("weights blob lacks the IRSW magic header")
    if version != WEIGHTS_VERSION:
        raise WeightsError(f"unsupported weights format version {version}")

    layouts = [
        weights_layout(layer, in_shape)
        for layer, in_shape in zip(net.layers, net.layer_input_shapes)
    ]
    total_floats = sum(math.prod(shape) for layout in layouts for _, shape in layout)
    expected_bytes = _WEIGHTS_HEADER.size + _WEIGHT.itemsize * total_floats
    if len(weights_bytes) != expected_bytes:
        raise WeightsError(
            f"weights length mismatch: expected {expected_bytes} bytes, "
            f"got {len(weights_bytes)} bytes"
        )

    values = np.frombuffer(weights_bytes, dtype=_WEIGHT, offset=_WEIGHTS_HEADER.size).copy()
    values.flags.writeable = False
    cursor = 0
    per_layer = []
    for layout in layouts:
        arrays = {}
        for name, shape in layout:
            n = math.prod(shape)
            arrays[name] = values[cursor : cursor + n].reshape(shape)
            cursor += n
        per_layer.append(MappingProxyType(arrays))

    # set in place, not through replace(), which would derive every shape again;
    # the network is new, and no one else holds it yet
    object.__setattr__(net, "weights", tuple(per_layer))
    return net


# --- serialization ----------------------------------------------------------


def _section_text(name: str, values: dict) -> str:
    """One section with its keys in written order. Two render rules:
    ``batch_normalize`` is written only when set, and a global ``[avgpool]``
    is written bare."""
    if name == "avgpool" and not values["size"]:
        return "[avgpool]"
    lines = [f"[{name}]"]
    lines += [f"{key}={','.join(map(str, values[key])) if key == 'layers' else values[key]}"
              for key in _GRAMMAR[name] if key != "batch_normalize" or values[key]]
    return "\n".join(lines)


def serialize_network(net: NetworkDef) -> tuple[str, bytes]:
    """Render a network back to (config text, weights blob).

    Parsing the result yields an equivalent NetworkDef; weight values
    round-trip bit-exactly.
    """
    if net.weights is None:
        raise WeightsError("cannot serialize a structure-only NetworkDef")
    config_text = "\n\n".join(_section_text(*section)
                              for section in _sections(net.input_shape, net.layers)) + "\n"

    chunks = [_WEIGHTS_HEADER.pack(WEIGHTS_MAGIC, WEIGHTS_VERSION)]
    for layer, in_shape, lw in zip(net.layers, net.layer_input_shapes, net.weights):
        for name, _ in weights_layout(layer, in_shape):
            chunks.append(lw[name].astype(_WEIGHT).tobytes())
    return config_text, b"".join(chunks)
