import json
import sys
import threading

import numpy as np
import pytest

from irshield import engine
from irshield.engine import forward, forward_range, forward_range_batch, top_k
from irshield.errors import PartitionError, ShapeError, WeightsError
from irshield.fixtures import gen_fixture_model
from irshield.netdef import parse_config, parse_network
from irshield.tensor import Tensor

from conftest import GOLDEN_DIR, seed_image
from reference import ref_forward, ref_forward_range
from test_netdef import pack_weights


def tiny_net(body: str, *weights: float):
    return parse_network("[net]\nwidth=1\nheight=1\nchannels=1\n\n" + body, pack_weights(*weights))


def test_single_class_softmax_is_one():
    net = tiny_net("[convolutional]\nfilters=1\nsize=1\nactivation=linear\n\n[softmax]\n", 0.0, 1.0)
    probs = forward(net, Tensor.from_array([[[0.37]]]))
    assert probs.shape == (1,)
    assert probs[0] == 1.0


def test_symmetric_logits_give_half_half():
    net = tiny_net("[convolutional]\nfilters=2\nsize=1\nactivation=linear\n\n[softmax]\n",
                   0.0, 0.0, 0.0, 0.0)
    probs = forward(net, Tensor.from_array([[[0.0]]]))
    assert list(probs) == [0.5, 0.5]


def test_forward_requires_softmax():
    net = tiny_net("[convolutional]\nfilters=1\nsize=1\n", 0.0, 1.0)
    with pytest.raises(ShapeError, match="softmax-terminated"):
        forward(net, Tensor.from_array([[[1.0]]]))


def test_forward_rejects_wrong_input_shape(plain17):
    with pytest.raises(ShapeError, match="does not match"):
        forward(plain17, Tensor.from_array(np.zeros((3, 4, 4))))


def test_empty_batch_refused(plain17):
    w, h, c = plain17.input_shape
    with pytest.raises(ShapeError, match="empty batch"):
        forward_range_batch(plain17, 1, plain17.n_layers, np.zeros((0, c, h, w), np.float32))


def test_wrong_rank_input_names_the_shape_received(plain17):
    with pytest.raises(ShapeError, match=r"input shape \(3, 32, 32\) does not match"):
        forward_range_batch(plain17, 1, plain17.n_layers, np.zeros((3, 32, 32), np.float32))


def test_forward_deterministic(plain17):
    x = seed_image(plain17.input_shape, 7)
    a = forward(plain17, x)
    b = forward(plain17, x)
    assert a.tobytes() == b.tobytes()


def test_full_range_equals_forward(plain17):
    x = seed_image(plain17.input_shape, 11)
    probs = forward(plain17, x)
    ranged = forward_range(plain17, 1, plain17.n_layers, x)
    assert ranged.array.tobytes() == probs.tobytes()


@pytest.mark.parametrize("cut", range(1, 17))
def test_chained_ranges_bit_identical(plain17, cut):
    x = seed_image(plain17.input_shape, 13)
    full = forward(plain17, x)
    ir = forward_range(plain17, 1, cut, x)
    tail = forward_range(plain17, cut + 1, plain17.n_layers, ir)
    assert tail.array.tobytes() == full.tobytes()


def test_chained_ranges_denseblock(denseblock):
    x = seed_image(denseblock.input_shape, 17)
    full = forward(denseblock, x)
    for cut in (5, 11, 12, 13):
        ir = forward_range(denseblock, 1, cut, x)
        tail = forward_range(denseblock, cut + 1, denseblock.n_layers, ir)
        assert tail.array.tobytes() == full.tobytes()


def test_cross_boundary_route_rejected(denseblock):
    x = seed_image(denseblock.input_shape, 19)
    for cut in (2, 3, 7, 9):
        ir = forward_range(denseblock, 1, cut, x)
        with pytest.raises(PartitionError, match="cross-boundary route"):
            forward_range(denseblock, cut + 1, denseblock.n_layers, ir)


def test_invalid_range_rejected(plain17):
    x = seed_image(plain17.input_shape, 23)
    with pytest.raises(ShapeError, match="invalid layer range"):
        forward_range(plain17, 5, 3, x)
    with pytest.raises(ShapeError, match="invalid layer range"):
        forward_range(plain17, 0, 3, x)
    with pytest.raises(ShapeError, match="invalid layer range"):
        forward_range(plain17, 1, 18, x)


def test_engine_matches_scalar_reference(plain17):
    x = seed_image(plain17.input_shape, 29)
    got = forward(plain17, x)
    want = ref_forward(plain17, x.array)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-6)


def test_engine_matches_scalar_reference_denseblock(denseblock):
    x = seed_image(denseblock.input_shape, 31)
    got = forward(denseblock, x)
    want = ref_forward(denseblock, x.array)
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-6)


def test_golden_forward_plain17():
    """Ten-class probabilities frozen from the scalar reference pass.

    The engine must stay within float32 accumulation noise of the frozen
    vector, and exactly reproduce its own recorded output.
    """
    golden = json.loads((GOLDEN_DIR / "forward_plain17.json").read_text())
    cfg, weights = gen_fixture_model("plain17", 42, 10)
    net = parse_network(cfg, weights)
    x = seed_image(net.input_shape, golden["image_seed"])
    got = forward(net, x)
    np.testing.assert_allclose(got, golden["reference_probs"], rtol=1e-4, atol=1e-6)
    assert [float(v) for v in got] == golden["engine_probs"]


class TestTopK:
    def test_basic(self):
        assert top_k(np.array([0.1, 0.7, 0.2]), 1) == [(2, pytest.approx(0.7))]

    def test_tie_breaks_by_ascending_index(self):
        got = top_k(np.array([0.25, 0.25, 0.5]), 2)
        assert [i for i, _ in got] == [3, 1]

    def test_k_equals_n_is_permutation(self):
        p = np.array([0.2, 0.1, 0.4, 0.3])
        got = top_k(p, 4)
        assert sorted(i for i, _ in got) == [1, 2, 3, 4]
        scores = [s for _, s in got]
        assert scores == sorted(scores, reverse=True)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k(np.array([1.0]), 0)
        with pytest.raises(ValueError):
            top_k(np.array([1.0]), 2)


class TestLayerProperties:
    def test_softmax_simplex_property(self):
        cfg = "[net]\nwidth=4\nheight=4\nchannels=2\n\n[softmax]\n"
        net = parse_network(cfg, pack_weights())
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = Tensor.from_array(rng.normal(0, 10, (2, 4, 4)).astype(np.float32))
            out = forward(net, x)
            assert np.all(out >= 0) and np.all(out <= 1)
            assert abs(float(out.sum()) - 1.0) < 1e-5

    def test_maxpool_outputs_are_input_elements(self):
        cfg = "[net]\nwidth=7\nheight=7\nchannels=3\n\n[maxpool]\nsize=2\nstride=2\n"
        net = parse_network(cfg, pack_weights())
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = Tensor.from_array(rng.normal(0, 1, (3, 7, 7)).astype(np.float32))
            out = forward_range(net, 1, 1, x)
            elements = set(x.array.ravel().tolist())
            assert all(v in elements for v in out.array.ravel().tolist())

    def test_avgpool_within_window_bounds(self):
        cfg = "[net]\nwidth=8\nheight=8\nchannels=2\n\n[avgpool]\nsize=4\nstride=4\n"
        net = parse_network(cfg, pack_weights())
        rng = np.random.default_rng(2)
        for _ in range(50):
            arr = rng.normal(0, 1, (2, 8, 8)).astype(np.float32)
            out = forward_range(net, 1, 1, Tensor.from_array(arr)).array
            for ci in range(2):
                for oy in range(2):
                    for ox in range(2):
                        window = arr[ci, oy * 4 : oy * 4 + 4, ox * 4 : ox * 4 + 4]
                        assert window.min() <= out[ci, oy, ox] <= window.max()

    def test_all_layers_finite_on_fixture(self, plain17):
        x = seed_image(plain17.input_shape, 37)
        for pos in range(1, plain17.n_layers + 1):
            out = forward_range(plain17, 1, pos, x)
            assert out.is_finite()

    def test_scalar_reference_agrees_per_layer(self, denseblock):
        x = seed_image(denseblock.input_shape, 41)
        for pos in range(1, denseblock.n_layers + 1):
            got = forward_range(denseblock, 1, pos, x).array
            want = ref_forward_range(denseblock, 1, pos, x.array)
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-6)

    def test_concurrent_forwards_share_one_network(self, plain17):
        import threading

        inputs = [seed_image(plain17.input_shape, 42 + i) for i in range(12)]
        sequential = [forward(plain17, x).tobytes() for x in inputs]
        results = [None] * len(inputs)

        def run(i):
            results[i] = forward(plain17, inputs[i]).tobytes()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == sequential


def fresh_plain17():
    """A plain17 network whose plan has not been compiled yet."""
    return parse_network(*gen_fixture_model("plain17", 42, 10))


class TestPlan:
    def test_compiled_once_per_network(self, monkeypatch):
        folds = []
        fold = engine._bn_fold
        monkeypatch.setattr(engine, "_bn_fold", lambda lw: folds.append(lw) or fold(lw))
        net = fresh_plain17()
        x = seed_image(net.input_shape, 3)
        first = forward(net, x)
        plan = net.plan
        convs_with_bn = sum(layer.batch_normalize for layer in net.layers)
        assert len(folds) == convs_with_bn > 0
        assert forward(net, x).tobytes() == first.tobytes()
        forward_range(net, 1, 12, x)
        forward_range_batch(net, 1, net.n_layers, np.stack([x.array, x.array]))
        assert net.plan is plan
        assert len(folds) == convs_with_bn
        assert fresh_plain17().plan is not plan

    def test_structure_only_network_refused_at_forward(self):
        net = parse_config(gen_fixture_model("plain17", 42, 10)[0])
        x = seed_image(net.input_shape, 5)
        with pytest.raises(WeightsError, match="no weights"):
            forward(net, x)
        with pytest.raises(WeightsError, match="no weights"):
            forward_range(net, 1, 3, x)

    def test_threads_compile_and_share_one_plan(self):
        inputs = [seed_image((32, 32, 3), 60 + i) for i in range(4)]
        lone = [forward(fresh_plain17(), x).tobytes() for x in inputs]
        net = fresh_plain17()
        start = threading.Barrier(len(inputs))
        results = [[] for _ in inputs]

        def run(i):
            start.wait(timeout=30)
            for _ in range(50):
                results[i].append(forward(net, inputs[i]).tobytes())

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[want] * 50 for want in lone]
