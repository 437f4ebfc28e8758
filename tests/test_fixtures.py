import hashlib
import json

import pytest

from irshield.fixtures import gen_fixture_model
from irshield.netdef import parse_config, parse_network

from conftest import GOLDEN_DIR


@pytest.mark.parametrize("arch", ["plain17", "plain28", "denseblock"])
def test_fixture_bytes_pinned(arch):
    golden = json.loads((GOLDEN_DIR / "fixture_sha256.json").read_text())[arch]
    cfg, weights = gen_fixture_model(arch, golden["seed"], golden["classes"])
    assert hashlib.sha256(cfg.encode()).hexdigest() == golden["config_sha256"]
    assert hashlib.sha256(weights).hexdigest() == golden["weights_sha256"]


@pytest.mark.parametrize("arch,layers", [("plain17", 17), ("plain28", 28), ("denseblock", 14)])
def test_fixture_parses_with_expected_depth(arch, layers):
    cfg, weights = gen_fixture_model(arch, 42, 10)
    net = parse_network(cfg, weights)
    assert net.n_layers == layers
    assert net.layers[-1].kind == "softmax"
    assert net.class_count() == 10


@pytest.mark.parametrize("arch", ["plain17", "plain28", "denseblock"])
def test_fixture_deterministic(arch):
    a = gen_fixture_model(arch, 5, 4)
    b = gen_fixture_model(arch, 5, 4)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_fixture_seed_changes_weights_not_structure():
    cfg_a, w_a = gen_fixture_model("plain17", 1, 10)
    cfg_b, w_b = gen_fixture_model("plain17", 2, 10)
    assert cfg_a == cfg_b
    assert w_a != w_b


def test_denseblock_routes_span_blocks_only_internally():
    cfg, _ = gen_fixture_model("denseblock", 1, 10)
    net = parse_config(cfg)
    routes = [layer for layer in net.layers if layer.kind == "route"]
    assert routes, "denseblock fixture must contain route layers"
    for layer in routes:
        assert len(layer.sources) > 1
        # sources stay inside one block: contiguous run ending just before the route
        assert max(layer.sources) == layer.index - 1
        assert min(layer.sources) >= 1


def test_classes_must_be_at_least_two():
    with pytest.raises(ValueError, match="classes"):
        gen_fixture_model("plain17", 1, 1)


def test_unknown_arch_rejected():
    with pytest.raises(ValueError, match="unknown fixture arch"):
        gen_fixture_model("resnet", 1, 10)
