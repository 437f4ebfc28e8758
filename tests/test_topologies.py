"""Generated multi-layer networks, checked differentially.

A strategy builds valid chains and route graphs from every layer kind the
engine implements: convolutions (batch norm on and off, every activation,
size 1 and 3, stride 1 and 2, with and without padding), max and average
pools (global average included), routes over layers of matching spatial
size, and an optional connected layer and softmax head. Every network is
checked these ways: batch rows equal lone passes byte for byte, every plan
step returns a C-contiguous float32 array of its layer's output shape (the
fixtures too), the two halves of every valid cut compose bit for bit, the
engine agrees with the scalar oracle in ``reference.py``,
``valid_partition_points`` equals a brute-force route-span check, and parse
and serialize round-trip byte for byte. The route-span rule is also checked,
against a scan of every (later layer, source) pair, where each of its users
applies it: the engine refuses exactly the ranges that reach back past their
start, naming the first pair ``route_crossings`` finds, the assessment
generator's outputs equal passes from layer 1, and ``split_network`` names
exactly the routes an invalid cut crosses. Mutated config text either parses
or fails with a config, shape or weights error, never another exception type.
A generated network with one field of one layer changed by hand is either
refused at construction or runs, costs and round-trips through config text.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irshield.assessment import _generator_outputs
from irshield.engine import forward, forward_range
from irshield.errors import ConfigError, IrshieldError, PartitionError, ShapeError, WeightsError
from irshield.fixtures import _draw
from irshield.netdef import (
    ACTIVATIONS,
    LayerSpec,
    NetworkDef,
    layer_output_shape,
    parse_network,
    route_crossings,
    serialize_network,
    valid_partition_points,
    weights_layout,
)
from irshield.partition import split_network
from irshield.tensor import Tensor
from irshield.workload import flop_profile

from reference import ref_forward_range
from test_batch import SIZES, _images, assert_batch_matches_lone_passes
from test_netdef import INT64_WRAP_CFG, pack_weights


def _body_layer(draw, index: int, shape, out_shapes) -> LayerSpec:
    w, h, _ = shape
    # convolutions three times as often as each pool, routes once earlier
    # layers exist
    kinds = ["convolutional"] * 3 + ["maxpool", "avgpool"] + ["route"] * (index > 1)
    kind = draw(st.sampled_from(kinds))
    if kind == "convolutional":
        size = draw(st.sampled_from((1, 3)))
        # an unpadded 3x3 kernel needs a 3x3 input
        pad = 1 if size > min(w, h) else draw(st.integers(0, 1))
        return LayerSpec(
            index=index, kind=kind, filters=draw(st.integers(1, 4)), size=size,
            stride=draw(st.sampled_from((1, 2))), pad=pad,
            activation=draw(st.sampled_from(ACTIVATIONS)),
            batch_normalize=draw(st.booleans()),
        )
    if kind == "route":
        first = draw(st.integers(1, index - 1))
        matching = [j for j in range(1, index) if out_shapes[j - 1][:2] == out_shapes[first - 1][:2]]
        rest = draw(st.lists(st.sampled_from(matching), max_size=2))
        return LayerSpec(index=index, kind=kind, sources=(first, *rest))
    size = draw(st.integers(1, min(3, w, h)))
    return LayerSpec(index=index, kind=kind, size=size, stride=draw(st.integers(1, 2)))


@st.composite
def networks(draw):
    """A parsed network of 2-6 body layers, an optional global average pool
    and an optional head, with weights drawn as the fixtures draw them."""
    shape = input_shape = (draw(st.integers(4, 10)), draw(st.integers(4, 10)), draw(st.integers(1, 3)))
    layers, out_shapes = [], []
    for index in range(1, draw(st.integers(2, 6)) + 1):
        layer = _body_layer(draw, index, shape, out_shapes)
        shape = layer_output_shape(layer, shape, tuple(out_shapes[s - 1] for s in layer.sources))
        layers.append(layer)
        out_shapes.append(shape)
    tail = draw(st.sampled_from(((), ("softmax",), ("connected", "softmax"))))
    if draw(st.booleans()):
        tail = ("global avgpool", *tail)
    for kind in tail:
        index = len(layers) + 1
        if kind == "global avgpool":
            layers.append(LayerSpec(index=index, kind="avgpool", stride=0))
        elif kind == "connected":
            layers.append(LayerSpec(index=index, kind=kind, output=draw(st.integers(1, 5))))
        else:
            layers.append(LayerSpec(index=index, kind=kind))
    return _weighted(input_shape, layers, draw(st.integers(0, 2**16)))


def _weighted(input_shape, layers, seed: int):
    """The parsed network over ``layers``, with weights drawn as the fixtures draw them."""
    net = NetworkDef(input_shape, tuple(layers))
    rng = np.random.default_rng(seed)
    per_layer = [
        {name: _draw(rng, name, dims) for name, dims in weights_layout(layer, s)}
        for layer, s in zip(net.layers, net.layer_input_shapes)
    ]
    return parse_network(*serialize_network(replace(net, weights=tuple(per_layer))))


# Layer 4's route reads layer 2, and layer 3 inside that span reads layer 1, so
# the span walk back from layer 4 takes two steps; few generated networks need two.
CHAINED_ROUTES = _weighted((4, 4, 2), (
    LayerSpec(index=1, kind="maxpool", size=1, stride=1),
    LayerSpec(index=2, kind="convolutional", filters=2, size=1, activation="leaky"),
    LayerSpec(index=3, kind="route", sources=(1,)),
    LayerSpec(index=4, kind="route", sources=(2,)),
), 0)


def _full_pass(net, image: np.ndarray) -> bytes:
    if net.layers[-1].kind == "softmax":
        return forward(net, Tensor.from_array(image)).tobytes()
    return forward_range(net, 1, net.n_layers, Tensor.from_array(image)).array.tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(networks(), st.integers(0, 2**16))
def test_batch_rows_equal_lone_passes(net, seed):
    for n in SIZES:
        assert_batch_matches_lone_passes(net, _images(net.input_shape, n, seed + n), net.n_layers)


def assert_steps_return_contiguous_outputs(net, seed: int) -> None:
    """Each plan step, fed what it reads, returns a C-contiguous float32 array
    of its layer's output shape, at every batch size checked: the engine
    chains the steps without copying between them."""
    for n in SIZES:
        outputs = {0: _images(net.input_shape, n, seed + n)}
        for pos, (run, sources, _) in enumerate(net.plan.steps, start=1):
            out = outputs[pos] = run(*[outputs[i] for i in sources or (pos - 1,)])
            w, h, c = net.layer_output_shapes[pos - 1]
            assert (out.shape, out.dtype) == ((n, c, h, w), np.float32), f"layer {pos}"
            assert out.flags.c_contiguous, f"layer {pos}"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(networks(), st.integers(0, 2**16))
def test_plan_steps_return_contiguous_float32_outputs(net, seed):
    assert_steps_return_contiguous_outputs(net, seed)


@pytest.mark.parametrize("arch", ["plain17", "plain28", "denseblock"])
def test_fixture_plan_steps_return_contiguous_float32_outputs(arch, request):
    assert_steps_return_contiguous_outputs(request.getfixturevalue(arch), 7)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(networks(), st.integers(0, 2**16))
def test_halves_compose_bit_exactly_at_every_valid_cut(net, seed):
    image = _images(net.input_shape, 1, seed)[0]
    full = _full_pass(net, image)
    for cut in sorted(valid_partition_points(net)):
        front = forward_range(net, 1, cut, Tensor.from_array(image))
        back = forward_range(net, cut + 1, net.n_layers, front)
        assert back.array.tobytes() == full, f"cut {cut}"


@settings(derandomize=True, max_examples=100, deadline=None)
@given(networks(), st.integers(0, 2**16))
def test_engine_agrees_with_scalar_reference(net, seed):
    w, h, c = net.input_shape
    image = np.random.default_rng(seed).random((c, h, w), dtype=np.float32)
    for last in range(1, net.n_layers + 1):
        got = forward_range(net, 1, last, Tensor.from_array(image)).array
        want = ref_forward_range(net, 1, last, image)
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-6, err_msg=f"layer {last}")


def _route_span_cuts(net) -> set[int]:
    """Cuts after which no layer reads a layer at or before the cut, found by
    checking every (cut, later layer, source) triple."""
    return {
        cut for cut in range(1, net.n_layers)
        if all(src > cut for layer in net.layers[cut:] for src in layer.sources)
    }


@settings(derandomize=True, max_examples=200, deadline=None)
@given(networks())
def test_valid_partition_points_match_brute_force(net):
    valid = valid_partition_points(net)
    assert valid == _route_span_cuts(net)
    # the engine agrees: a back half that starts after an invalid cut is refused
    w, h, c = net.layer_input_shapes[0]
    for cut in set(range(1, net.n_layers)) - valid:
        front = forward_range(net, 1, cut, Tensor.from_array(np.zeros((c, h, w), np.float32)))
        with pytest.raises(PartitionError, match="cross-boundary route"):
            forward_range(net, cut + 1, net.n_layers, front)


def _crossing_pairs(net, start: int, last: int) -> list[tuple[int, int]]:
    """(layer, source) pairs of layers ``start..last`` that read a layer before
    ``start``, found by scanning every pair of the network."""
    return [
        (layer.index, src) for layer in net.layers for src in layer.sources
        if start <= layer.index <= last and src < start
    ]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(networks(), st.integers(0, 2**16))
@example(CHAINED_ROUTES, 0)
def test_engine_refuses_exactly_the_ranges_that_cross_a_route(net, seed):
    x = Tensor.from_array(_images(net.input_shape, 1, seed)[0])
    n = net.n_layers
    inputs = [x] + [forward_range(net, 1, i, x) for i in range(1, n)]  # layer a's input
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            if crossed := _crossing_pairs(net, a, b):
                # the refusal comes from the plan's start table; it names the
                # first pair, the one route_crossings finds first
                assert route_crossings(net, a - 1, b)[0] == crossed[0]
                with pytest.raises(PartitionError) as info:
                    forward_range(net, a, b, inputs[a - 1])
                layer, src = crossed[0]
                assert str(info.value) == (f"cross-boundary route: layer {layer} routes from layer "
                                           f"{src}, before the start of the range at layer {a}")
            else:
                got = forward_range(net, a, b, inputs[a - 1]).array.tobytes()
                assert got == forward_range(net, 1, b, x).array.tobytes(), f"[{a}, {b}]"


@settings(derandomize=True, max_examples=100, deadline=None)
@given(networks(), st.integers(0, 2**16))
@example(CHAINED_ROUTES, 0)
def test_generator_outputs_equal_passes_from_layer_1(net, seed):
    x = Tensor.from_array(_images(net.input_shape, 1, seed)[0])
    outs = _generator_outputs(x, net, net.n_layers)
    assert len(outs) == net.n_layers
    for i, out in enumerate(outs, start=1):
        assert out.array.tobytes() == forward_range(net, 1, i, x).array.tobytes(), f"layer {i}"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(networks())
def test_split_names_exactly_the_crossed_routes(net):
    for cut in range(1, net.n_layers):
        crossed = _crossing_pairs(net, cut + 1, net.n_layers)
        if not crossed:
            split_network(net, cut)
            continue
        with pytest.raises(PartitionError, match=f"cut {cut} crosses a route span") as info:
            split_network(net, cut)
        named = re.findall(r"layer (\d+) routes from layer (\d+)", str(info.value))
        assert [(int(t), int(s)) for t, s in named] == crossed


@settings(derandomize=True, max_examples=200, deadline=None)
@given(networks())
def test_parse_serialize_round_trips_byte_for_byte(net):
    config_text, weights = serialize_network(net)
    again = parse_network(config_text, weights)
    assert again.layers == net.layers
    assert serialize_network(again) == (config_text, weights)


_FIELDS = ("filters", "size", "stride", "pad", "output")
_CONV = LayerSpec(index=1, kind="convolutional", filters=1, size=1)


@st.composite
def hand_built(draw):
    """A generated network's input shape and layers with one change: a field of
    one layer set to a small or unknown value, a layer before the last replaced
    by a softmax, or an input dimension set to 0."""
    net = draw(networks())
    shape, layers = list(net.input_shape), list(net.layers)
    i = draw(st.integers(0, len(layers) - 1))
    layer = layers[i]
    op = draw(st.sampled_from(("field", "activation", "sources", "kind", "softmax", "input")))
    if op == "field":
        layers[i] = replace(layer, **{draw(st.sampled_from(_FIELDS)): draw(st.integers(-1, 2))})
    elif op == "activation":
        layers[i] = replace(layer, activation=draw(st.sampled_from(("tanh", "", "Leaky"))))
    elif op == "sources":
        layers[i] = replace(layer, sources=draw(st.sampled_from(((), (0,), (layer.index,)))))
    elif op == "kind":
        layers[i] = replace(layer, kind=draw(st.sampled_from(("upsample", "net"))))
    elif op == "softmax":
        i = min(i, len(layers) - 2)
        layers[i] = LayerSpec(index=i + 1, kind="softmax")
    else:
        shape[draw(st.integers(0, 2))] = 0
    return tuple(shape), tuple(layers)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(hand_built())
# each crashed at construction or later with an exception of another type: a
# route with no sources (IndexError), a pool of stride 0 (ZeroDivisionError), a
# convolution of no filters (ZeroDivisionError in flop_profile), an unknown
# activation (KeyError at the first pass), and a softmax ahead of the last layer
# (serialized to text that parse_config refuses); an input shape of two or four
# values (KeyError, ValueError) and no layers at all (serialized to text that
# parse_config refuses)
@example(((4, 4, 1), (_CONV, LayerSpec(index=2, kind="route"))))
@example(((4, 4, 1), (LayerSpec(index=1, kind="maxpool", size=2, stride=0),)))
@example(((4, 4, 1), (replace(_CONV, filters=0),)))
@example(((4, 4, 1), (replace(_CONV, activation="tanh"),)))
@example(((4, 4, 1), (LayerSpec(index=1, kind="softmax"), replace(_CONV, index=2))))
@example(((4, 4, 1), (_CONV, replace(_CONV, index=2, sources=(1,)))))
@example(((4, 0, 1), (_CONV,)))
@example(((4, 4), (_CONV,)))
@example(((4, 4, 1, 9), (_CONV,)))
@example(((4, 4, 1), ()))
def test_hand_built_networks_keep_the_config_rules(mutant):
    """A hand-built network either breaks a rule of the config grammar and is
    refused at construction, or runs, costs, and round-trips through config
    text byte for byte."""
    input_shape, layers = mutant
    try:
        NetworkDef(input_shape, layers)
    except IrshieldError:
        return
    net = _weighted(input_shape, layers, 0)  # serialized and parsed back
    assert net.layers == layers
    w, h, c = input_shape
    forward_range(net, 1, net.n_layers, Tensor.from_array(np.zeros((c, h, w), np.float32)))
    assert flop_profile(net).total > 0
    text, blob = serialize_network(net)
    assert serialize_network(parse_network(text, blob)) == (text, blob)


_SECTIONS = ("net", "convolutional", "maxpool", "avgpool", "route", "connected", "softmax", "dropout")
_KEYS = ("width", "height", "channels", "filters", "size", "stride", "pad", "activation",
         "batch_normalize", "layers", "output", "momentum")
_VALUES = ("-1", "0", "x", "9" * 5000, str(2**62))


@st.composite
def mutated_configs(draw):
    """A generated network's (config text, weights), the text mutated one to
    three times: a line dropped, duplicated or swapped, a value replaced, a key
    or section renamed, or the text truncated."""
    text, weights = serialize_network(draw(networks()))
    for _ in range(draw(st.integers(1, 3))):
        lines = text.splitlines()
        op = draw(st.sampled_from(("drop", "duplicate", "swap", "value", "key", "section", "truncate")))
        if op in ("value", "key"):
            targets = [k for k, line in enumerate(lines) if "=" in line]
        elif op == "section":
            targets = [k for k, line in enumerate(lines) if line.startswith("[")]
        else:
            targets = list(range(len(lines)))
        if not targets:
            continue
        i = draw(st.sampled_from(targets))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.sampled_from(targets))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "value":
            lines[i] = lines[i].split("=")[0] + "=" + draw(st.sampled_from(_VALUES))
        elif op == "key":
            lines[i] = draw(st.sampled_from(_KEYS)) + "=" + lines[i].split("=")[1]
        elif op == "section":
            lines[i] = f"[{draw(st.sampled_from(_SECTIONS))}]"
        text = "\n".join(lines) + "\n"
        if op == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
    return text, weights


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mutated_configs())
@example((INT64_WRAP_CFG, pack_weights()))
def test_mutated_configs_fail_only_with_model_errors(config):
    try:
        net = parse_network(*config)
    except (ConfigError, ShapeError, WeightsError):
        return
    # what parses serializes to text that parses back to the same layers
    assert parse_network(*serialize_network(net)).layers == net.layers
