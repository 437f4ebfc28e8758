import json
import math

import numpy as np
import pytest

from irshield import assessment, engine
from irshield.assessment import (
    ORACLE_BATCH,
    AssessmentReport,
    LayerKLStats,
    assess_layer,
    assess_model,
    choose_partition,
    kl_divergence,
    project_feature_maps,
    report_table,
    report_tsv,
    uniform_baseline,
    valid_partition_points,
    _generator_outputs,
    _oracle_base,
    _oracle_split,
    _score_layers,
)
from irshield.fixtures import gen_fixture_model
from irshield.imageio import bilinear_resize, resize_to_shape
from irshield.engine import forward, forward_range, forward_range_batch
from irshield.netdef import parse_config, parse_network
from irshield.tensor import Tensor

from conftest import GOLDEN_DIR, seed_image
from test_netdef import pack_weights


def kl_oneline(p, q, floor=1e-10):
    """Independent summation oracle mirroring the documented smoothing."""
    ps = [max(v, floor) for v in p]
    qs = [max(v, floor) for v in q]
    zp, zq = sum(ps), sum(qs)
    return sum((a / zp) * math.log10((a / zp) / (b / zq)) for a, b in zip(ps, qs))


class TestKLDivergence:
    def test_identical_distributions_zero(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_one_hot_vs_fair_coin(self):
        got = kl_divergence([1.0, 0.0], [0.5, 0.5])
        assert got == pytest.approx(math.log10(2), abs=1e-6)
        assert got == pytest.approx(kl_oneline([1.0, 0.0], [0.5, 0.5]), abs=1e-12)

    def test_near_one_hot_over_1000_vs_uniform(self):
        n = 1000
        p = np.full(n, 1e-7)
        p[3] = 1.0 - p.sum() + p[3]
        q = np.full(n, 1.0 / n)
        assert kl_divergence(p, q) == pytest.approx(3.00, abs=0.01)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            kl_divergence([1.0], [0.5, 0.5])

    def test_self_divergence_and_nonnegativity_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 50))
            p = rng.dirichlet(np.full(n, 0.5))
            q = rng.dirichlet(np.full(n, 0.5))
            assert abs(kl_divergence(p, p)) <= 1e-9
            assert kl_divergence(p, q) >= -1e-9

    def test_matches_oneline_oracle_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 20))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            assert kl_divergence(p, q) == pytest.approx(kl_oneline(p, q), abs=1e-12)


def kl_rows_cases(n, rng):
    """Rows of q over n classes: exact zeros, one-hot, near-uniform, all-zero,
    float32-valued and random."""
    zeros = rng.dirichlet(np.ones(n))
    zeros[rng.random(n) < 0.5] = 0.0
    one_hot = np.zeros(n)
    one_hot[n // 3] = 1.0
    near_uniform = np.full(n, 1.0 / n) + rng.uniform(-1e-9, 1e-9, n)
    float32_row = rng.dirichlet(np.full(n, 0.3)).astype(np.float32)
    return np.stack(
        [zeros, one_hot, near_uniform, np.zeros(n), float32_row, *rng.dirichlet(np.ones(n), 4)]
    )


class TestKLDivergenceRows:
    """A 2-D q scores each row with the bytes of the 1-D call on that row."""

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 10, 17, 128, 129, 1000])
    def test_rows_match_single_calls_bytewise(self, n):
        rng = np.random.default_rng(n)
        q = kl_rows_cases(n, rng)
        for p in kl_rows_cases(n, rng):
            for rows in range(1, len(q) + 1):
                got = kl_divergence(p, q[:rows])
                assert got.shape == (rows,)
                want = [kl_divergence(p, row).hex() for row in q[:rows]]
                assert [float(v).hex() for v in got] == want

    def test_float32_oracle_rows(self, plain17):
        x = np.stack([seed_image(plain17.input_shape, s).array
                      for s in range(90, 90 + ORACLE_BATCH)])
        q = engine.forward_range_batch(plain17, 1, plain17.n_layers, x).reshape(len(x), -1)
        p = q[0]
        got = kl_divergence(p, q)
        assert [v.hex() for v in got.tolist()] == [kl_divergence(p, row).hex() for row in q]

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            kl_divergence([0.5, 0.5], np.full((3, 3), 1 / 3))

    def test_one_dimensional_call_returns_float(self):
        assert type(kl_divergence([0.25, 0.75], [0.5, 0.5])) is float


class TestUniformBaseline:
    def test_uniform_scores_zero(self):
        assert uniform_baseline(np.full(8, 1 / 8)) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_1000_is_three(self):
        p = np.zeros(1000)
        p[17] = 1.0
        assert abs(uniform_baseline(p) - 3.0) < 1e-9

    def test_three_class_identity(self):
        p = [0.5, 0.25, 0.25]
        entropy10 = -sum(v * math.log10(v) for v in p)
        assert abs(uniform_baseline(p) - (math.log10(3) - entropy10)) < 1e-9

    def test_entropy_identity_on_random_vectors(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 200))
            p = rng.dirichlet(np.ones(n))
            entropy10 = -float(np.sum(p * np.log10(p)))
            assert abs(uniform_baseline(p) - (math.log10(n) - entropy10)) < 1e-9

    def test_agrees_with_kl_against_uniform(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 100))
            p = rng.dirichlet(np.ones(n))  # strictly positive entries
            assert abs(uniform_baseline(p) - kl_divergence(p, np.full(n, 1 / n))) < 1e-9


def project_one_channel_at_a_time(ir, oracle_input_shape):
    """Per-channel reference for project_feature_maps: one (oh, ow) float32
    plane per channel of a (c, h, w) array."""
    ow, oh, _ = oracle_input_shape
    planes = []
    for channel in np.asarray(ir, dtype=np.float64):
        lo, hi = channel.min(), channel.max()
        if hi == lo:
            flat = np.zeros((oh, ow))
        else:
            flat = bilinear_resize((channel - lo) / (hi - lo), oh, ow)
        planes.append(np.clip(flat, 0.0, 1.0).astype(np.float32))
    return planes


class TestProjection:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the inf channel divides inf by inf
    def test_matches_per_channel_reference(self):
        rng = np.random.default_rng(9)
        arr = rng.standard_normal((6, 5, 7)).astype(np.float32)
        arr[2] = 1.5  # a constant channel
        arr[4, 0, 0] = np.inf
        for shape in ((7, 5, 1), (32, 32, 3), (3, 2, 2)):
            got = project_feature_maps(arr, shape)
            want = project_one_channel_at_a_time(arr, shape)
            assert got.dtype == np.float32 and got.shape == (6, shape[1], shape[0])
            assert [plane.tobytes() for plane in got] == [w.tobytes() for w in want]

    def test_constant_map_projects_to_zeros(self):
        out = project_feature_maps(np.full((1, 3, 3), 5.0, np.float32), (3, 3, 1))
        assert out.shape == (1, 3, 3)
        assert np.all(out == 0)

    def test_normalization_only_when_already_at_size(self):
        arr = np.array([[[0.0, 10.0], [10.0, 0.0]]], np.float32)
        out = project_feature_maps(arr, (2, 2, 1))
        assert out.reshape(-1).tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_bilinear_upscale_hand_oracle(self):
        # corner-aligned 2x2 -> 4x4: sample coords are k/3 for k=0..3
        arr = np.array([[[0.0, 1.0], [0.0, 0.0]]], np.float32)  # top-right corner hot
        out = project_feature_maps(arr, (4, 4, 1))[0]
        xs = np.arange(4) / 3.0
        expected = np.empty((4, 4))
        for yi, fy in enumerate(xs):
            for xi, fx in enumerate(xs):
                # bilinear blend of corners (tl=0, tr=1, bl=0, br=0)
                expected[yi, xi] = (1 - fy) * fx
        np.testing.assert_allclose(out, expected, atol=1e-7)
        assert out[0, 0] == 0.0 and out[0, 3] == 1.0
        assert out[3, 0] == 0.0 and out[3, 3] == 0.0

    def test_image_count_matches_depth_and_range(self):
        rng = np.random.default_rng(4)
        arr = rng.normal(0, 3, (7, 5, 6)).astype(np.float32)
        out = project_feature_maps(arr, (8, 8, 3))
        assert out.shape == (7, 8, 8)
        assert out.dtype == np.float32
        assert float(out.min()) >= 0.0
        assert float(out.max()) <= 1.0

    def test_positive_scaling_invariance_exact_for_pow2(self):
        rng = np.random.default_rng(5)
        arr = rng.normal(0, 2, (4, 6, 6)).astype(np.float32)
        base = project_feature_maps(arr, (6, 6, 3))
        for scale in (4.0, 0.5):
            scaled = project_feature_maps(arr * np.float32(scale), (6, 6, 3))
            assert base.tobytes() == scaled.tobytes()

    def test_positive_scaling_invariance_close_for_any_constant(self):
        rng = np.random.default_rng(6)
        arr = rng.normal(0, 2, (3, 5, 5)).astype(np.float32)
        base = project_feature_maps(arr, (5, 5, 1))
        scaled = project_feature_maps(arr * np.float32(3.7), (5, 5, 1))
        np.testing.assert_allclose(base, scaled, atol=1e-6)


IDENTITY_GEN_CFG = """\
[net]
width=4
height=4
channels=1

[convolutional]
filters=1
size=1
activation=linear

[avgpool]
"""

ORACLE_CFG = """\
[net]
width=4
height=4
channels=1

[convolutional]
filters=4
size=3
pad=1
activation=leaky

[avgpool]

[softmax]
"""


def _small_oracle(seed=99):
    net = parse_config(ORACLE_CFG)
    rng = np.random.default_rng(seed)
    floats = []
    floats.extend(rng.normal(0, 0.1, 4))      # conv biases
    floats.extend(rng.normal(0, 0.5, 4 * 9))  # conv filters
    return parse_network(ORACLE_CFG, pack_weights(*floats))


def _span_01_image():
    rng = np.random.default_rng(8)
    vals = rng.random(16)
    vals[0], vals[-1] = 0.0, 1.0
    return Tensor.from_array(vals.reshape(1, 4, 4))


class TestAssessLayer:
    def test_identity_layer_scores_zero(self):
        irgen = parse_network(IDENTITY_GEN_CFG, pack_weights(0.0, 1.0))
        irval = _small_oracle()
        x = _span_01_image()
        stats = assess_layer(x, irgen, irval, 1)
        assert stats.min_kl == 0.0
        assert stats.delta == 0.0
        assert stats.argmin_j == 1

    def test_layer_index_validated(self, plain17):
        x = seed_image(plain17.input_shape, 50)
        oracle = plain17
        with pytest.raises(ValueError, match="assessable layers"):
            assess_layer(x, plain17, oracle, 17)
        with pytest.raises(ValueError, match="assessable layers"):
            assess_layer(x, plain17, oracle, 0)

    def test_sixteen_feature_maps_order_statistics(self, plain17):
        x = seed_image(plain17.input_shape, 51)
        stats = assess_layer(x, plain17, plain17, 7)  # layer 7 has 16 filters
        assert 1 <= stats.argmin_j <= 16
        assert stats.min_kl <= stats.max_kl
        assert stats.min_kl >= 0

    def test_golden_layer_stats(self, plain17):
        """Frozen from a scalar-reference assessment pass (see golden file)."""
        golden = json.loads((GOLDEN_DIR / "assess_layer_plain17.json").read_text())
        x = seed_image(plain17.input_shape, golden["image_seed"])
        for want in golden["layers"]:
            stats = assess_layer(x, plain17, plain17, want["layer"])
            assert stats.argmin_j == want["argmin_j"]
            assert stats.min_kl == pytest.approx(want["min_kl"], rel=1e-3, abs=1e-6)
            assert stats.max_kl == pytest.approx(want["max_kl"], rel=1e-3, abs=1e-6)
            assert stats.delta == pytest.approx(want["delta"], rel=1e-3, abs=1e-6)

    def test_stats_invariant_under_feature_map_scaling(self, plain17):
        x = seed_image(plain17.input_shape, 52)
        probs, baseline = _oracle_base(plain17, x)
        ir = forward_range(plain17, 1, 3, x).array
        scaled = ir * np.float32(4.0)
        a = _score_layers([(3, Tensor.from_array(ir))], plain17, probs, baseline)
        b = _score_layers([(3, Tensor.from_array(scaled))], plain17, probs, baseline)
        assert a == b


class TestValidPartitionPoints:
    def test_plain_chain_all_interior_points(self, plain17):
        assert valid_partition_points(plain17) == set(range(1, 17))

    def test_denseblock_block_boundaries_only(self, denseblock):
        assert valid_partition_points(denseblock) == {5, 11, 12, 13}

    def test_matches_route_span_oracle(self, denseblock, plain17, plain28):
        for net in (denseblock, plain17, plain28):
            spans = [
                (src, layer.index)
                for layer in net.layers
                if layer.kind == "route"
                for src in layer.sources
            ]
            expected = {
                i
                for i in range(1, net.n_layers)
                if not any(src <= i < t for src, t in spans)
            }
            assert valid_partition_points(net) == expected

    def test_single_layer_net_has_no_points(self):
        net = parse_config("[net]\nwidth=2\nheight=2\nchannels=1\n\n[softmax]\n")
        assert valid_partition_points(net) == set()


def brute_force_choice(deltas, valid):
    for i in sorted(valid):
        if all(d > 1 for d in deltas[i - 1 :]):
            return i
    return None


class TestChoosePartition:
    def test_short_mixed_trace(self):
        assert choose_partition([0.9, 1.2, 0.8, 1.5, 2.0], {1, 2, 3, 4, 5}) == 4

    def test_all_above_one_picks_first(self):
        assert choose_partition([1.1, 1.2, 1.3], {1, 2, 3}) == 1

    def test_reference_shaped_trace_picks_layer_four(self):
        # ratios dip below 1 through layer 3 and stay above from layer 4 on
        trace = [0.7, 0.9, 0.8, 1.4, 1.9, 2.5, 3.0, 2.8, 3.5, 4.0, 3.8, 4.2, 4.5, 5.0]
        assert choose_partition(trace, set(range(1, 15))) == 4

    def test_no_qualifying_suffix(self):
        assert choose_partition([2.0, 0.5], {1, 2}) is None

    def test_validity_restriction(self):
        # suffix holds from 2 but only 4 is a valid cut
        assert choose_partition([0.5, 1.5, 1.5, 1.5], {4}) == 4

    def test_out_of_range_valid_rejected(self):
        with pytest.raises(ValueError, match="outside assessable range"):
            choose_partition([1.5, 1.5], {3})

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(10_000):
            n = int(rng.integers(1, 20))
            if trial % 3 == 0:
                # fluctuating block-style trace: rising trend with dips
                trend = np.linspace(0.3, 3.0, n)
                dips = np.where(rng.random(n) < 0.3, rng.uniform(0.1, 0.9, n), 1.0)
                deltas = (trend * dips).tolist()
            else:
                deltas = rng.uniform(0, 2.5, n).tolist()
            valid = {int(i) for i in rng.choice(np.arange(1, n + 1),
                                                size=int(rng.integers(0, n + 1)),
                                                replace=False)}
            assert choose_partition(deltas, valid) == brute_force_choice(deltas, valid)

    def test_suffix_property_of_returned_index(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            n = int(rng.integers(1, 15))
            deltas = rng.uniform(0, 2.5, n).tolist()
            valid = set(range(1, n + 1))
            got = choose_partition(deltas, valid)
            if got is None:
                continue
            assert all(d > 1 for d in deltas[got - 1 :])
            if got > 1:
                assert not all(d > 1 for d in deltas[got - 2 :])


UNPADDED_GEN_CFG = """\
[net]
width=8
height=8
channels=1

[convolutional]
filters=3
size=3
activation=leaky

[maxpool]
size=2
stride=2

[convolutional]
filters=2
size=1
activation=leaky

[avgpool]
"""


def assess_one_map_at_a_time(xs, irgen, irval):
    """Reference for assess_model: every layer from a pass from layer 1, and
    every projected map through its own lone oracle forward."""
    oc = irval.input_shape[2]
    per_input, baselines = [], []
    for x in xs:
        base = forward(irval, resize_to_shape(x, irval.input_shape))
        baseline = uniform_baseline(base)
        rows = []
        for i in range(1, irgen.n_layers):
            planes = project_one_channel_at_a_time(forward_range(irgen, 1, i, x).array, irval.input_shape)
            images = [Tensor.from_array(np.repeat(plane[None], oc, axis=0)) for plane in planes]
            scores = [kl_divergence(base, forward(irval, img)) for img in images]
            best = scores.index(min(scores))
            rows.append(LayerKLStats(i, scores[best], max(scores), best + 1, scores[best] / baseline))
        per_input.append(rows)
        baselines.append(baseline)
    layers = tuple(min(rows, key=lambda r: r.delta) for rows in zip(*per_input))
    valid = frozenset(valid_partition_points(irgen))
    chosen = choose_partition([r.delta for r in layers], valid)
    return AssessmentReport(
        ",".join(f"input-{k + 1}" for k in range(len(xs))), min(baselines), layers, valid, chosen
    )


class TestConstantMapsShareOnePass:
    """Constant maps all project to the zero image and share one oracle pass;
    reports must match a pass that scores every map alone."""

    @pytest.fixture(scope="class")
    def oracle(self):
        return parse_network(*gen_fixture_model("plain17", 2, 10))

    @pytest.mark.parametrize("arch", ["plain17", "plain28", "denseblock"])
    def test_report_matches_lone_oracle_passes(self, arch, oracle, request):
        irgen = request.getfixturevalue(arch)
        xs = [seed_image(irgen.input_shape, s) for s in (80, 81, 82)]
        want = report_tsv(assess_one_map_at_a_time(xs, irgen, oracle))
        assert report_tsv(assess_model(xs, irgen, oracle)) == want

    def test_all_constant_maps(self):
        # unpadded convolutions keep a constant image constant in every map
        irgen = parse_network(UNPADDED_GEN_CFG, pack_weights(
            *np.random.default_rng(12).normal(0.0, 1.0, 3 + 27 + 2 + 6)))
        irval = _small_oracle()
        x = Tensor.from_array(np.full((1, 8, 8), 0.7))
        for out in _generator_outputs(x, irgen, irgen.n_layers - 1):
            assert np.all(out.array == out.array[:, :1, :1])
        report = assess_model([x], irgen, irval)
        assert report_tsv(report) == report_tsv(assess_one_map_at_a_time([x], irgen, irval))
        assert all(row.min_kl == row.max_kl and row.argmin_j == 1 for row in report.layers)

    def test_layer_of_single_pixel_maps(self, plain17, oracle, monkeypatch):
        passes = []

        def range_batch(net, lo, hi, x):
            passes.append((net is oracle, lo, hi, len(x)))
            return engine.forward_range_batch(net, lo, hi, x)

        monkeypatch.setattr(assessment, "forward_range_batch", range_batch)
        x = seed_image(plain17.input_shape, 83)
        assert plain17.layer_output_shapes[13][:2] == (1, 1)
        stats = assess_layer(x, plain17, oracle, 14)
        split = _oracle_split(oracle, 17)
        # the zero image, and nothing else, through the prefix and the suffix
        assert passes == [(True, 1, split, 1), (True, split + 1, 17, 1)]
        assert stats == assess_one_map_at_a_time([x], plain17, oracle).layers[13]
        assert stats.min_kl == stats.max_kl and stats.argmin_j == 1

    @pytest.mark.parametrize("oracle_arch", ["plain17", "denseblock"])
    def test_multi_input_report_with_a_constant_image(self, oracle_arch, plain17, denseblock):
        oracle = plain17 if oracle_arch == "plain17" else denseblock
        xs = [seed_image(plain17.input_shape, 84), Tensor.from_array(np.full((3, 32, 32), 0.4)),
              seed_image(plain17.input_shape, 85)]
        want = assess_one_map_at_a_time(xs, plain17, oracle)
        assert report_tsv(assess_model(xs, plain17, oracle)) == report_tsv(want)

    def test_assess_layer_matches_lone_passes(self, denseblock, oracle):
        x = seed_image(denseblock.input_shape, 86)
        want = assess_one_map_at_a_time([x], denseblock, oracle).layers
        assert [assess_layer(x, denseblock, oracle, i) for i in range(1, denseblock.n_layers)] == list(want)

    def test_report_without_a_suffix_pass(self, plain17, oracle, monkeypatch):
        xs = [seed_image(plain17.input_shape, s) for s in (87, 88)]
        want = report_tsv(assess_model(xs, plain17, oracle))
        monkeypatch.setattr(assessment, "_oracle_split", lambda irval, rows: irval.n_layers)
        assert report_tsv(assess_model(xs, plain17, oracle)) == want


def _working_set(net, j):
    """Elements one row needs at 0-based layer ``j``: the im2col columns of a
    convolution, taken from the engine's gather index, or input plus output."""
    layer = net.layers[j]
    (iw, ih, ic), (ow, oh, oc) = net.layer_input_shapes[j], net.layer_output_shapes[j]
    if layer.kind == "convolutional":
        return engine._im2col_index(ic, ih, iw, layer.size, layer.stride, layer.pad_pixels()).size
    return iw * ih * ic + ow * oh * oc


class TestOracleSplit:
    """The oracle's chunked prefix ends at a valid cut, derived from shapes."""

    ROWS = (1, 2, 17, 93, 111, 189, 10**6)

    @pytest.fixture(params=["plain17", "plain28", "denseblock", "small"])
    def oracle(self, request):
        return _small_oracle() if request.param == "small" else request.getfixturevalue(request.param)

    def test_split_is_a_valid_cut_or_the_whole_oracle(self, oracle):
        for rows in self.ROWS:
            split = _oracle_split(oracle, rows)
            assert split in valid_partition_points(oracle) | {oracle.n_layers}
            if split < oracle.n_layers:  # the suffix starts cleanly at the cut
                forward_range_batch(oracle, split + 1, oracle.n_layers,
                                    np.zeros((1, *oracle.layer_output_shapes[split - 1][::-1]), np.float32))

    def test_suffix_working_set_within_budget(self, oracle):
        sets = [_working_set(oracle, j) for j in range(oracle.n_layers)]
        budget = ORACLE_BATCH * max(sets)
        for rows in self.ROWS:
            split = _oracle_split(oracle, rows)
            assert all(rows * ws <= budget for ws in sets[split:])
            for cut in valid_partition_points(oracle):  # and no earlier cut qualifies
                if cut < split:
                    assert any(rows * ws > budget for ws in sets[cut:])

    def test_plain17_prefix_is_five_layers(self, plain17):
        assert [_oracle_split(plain17, rows) for rows in (111, 188, 189)] == [5, 5, 5]

    def test_denseblock_routes_respected(self, denseblock):
        assert valid_partition_points(denseblock) == {5, 11, 12, 13}
        assert _oracle_split(denseblock, 189) == 13
        assert _oracle_split(denseblock, 2) == 5  # two rows of layers 6..14 fit the budget

    def test_no_qualifying_cut_means_no_suffix(self):
        oracle = _small_oracle()
        assert _oracle_split(oracle, 144) == 2
        assert _oracle_split(oracle, 145) == oracle.n_layers
        single = parse_config("[net]\nwidth=2\nheight=2\nchannels=1\n\n[softmax]\n")
        assert _oracle_split(single, 1) == 1


class TestNonFiniteInput:
    """Non-finite pixels are refused up front; an overflow names its layer."""

    def test_nan_pixel_refused_before_any_pass(self, plain17, monkeypatch):
        def no_pass(*args):
            raise AssertionError("a pass ran on a non-finite input")

        monkeypatch.setattr(assessment, "forward_range_batch", no_pass)
        monkeypatch.setattr(assessment, "forward", no_pass)
        monkeypatch.setattr(assessment, "forward_range", no_pass)
        arr = seed_image(plain17.input_shape, 66).array.copy()
        arr[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="input-2 has a non-finite pixel"):
            assess_model([seed_image(plain17.input_shape, 67), Tensor.from_array(arr)], plain17, plain17)
        arr[1, 2, 3] = -np.inf
        with pytest.raises(ValueError, match="non-finite pixel"):
            assess_layer(Tensor.from_array(arr), plain17, plain17, 3)

    def test_oracle_overflow_names_the_oracle_layer(self, plain17):
        big = Tensor.from_array(np.full((3, 32, 32), 3e38, np.float32))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"oracle layer 1 output is not finite"):
            assess_model([big], plain17, plain17)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"oracle layer 1 output is not finite"):
            assess_layer(big, plain17, plain17, 5)

    def test_generator_overflow_names_the_generator_layer(self, plain17, denseblock):
        # the denseblock oracle takes 16x16 inputs, so its copy is resized into [0, 1]
        big = Tensor.from_array(np.full((3, 32, 32), 3e38, np.float32))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"generator layer 1 output is not finite"):
            assess_model([big], plain17, denseblock)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"generator layer 4 output is not finite"):
            assess_layer(big, plain17, denseblock, 4)

    def test_oracle_overflow_on_a_map_names_the_generator_layer(self, plain17, monkeypatch):
        def range_batch(net, lo, hi, x):
            out = engine.forward_range_batch(net, lo, hi, x)
            if net is oracle and hi == net.n_layers:
                out[1] = np.nan  # row 0 is the zero image, row 1 a map of layer 1
            return out

        oracle = parse_network(*gen_fixture_model("plain17", 2, 10))
        monkeypatch.setattr(assessment, "forward_range_batch", range_batch)
        with pytest.raises(ValueError, match="oracle output for a map of generator layer 1 is not finite"):
            assess_model([seed_image(plain17.input_shape, 68)], plain17, oracle)


class TestAssessModel:
    def test_shallow_identity_golden(self):
        golden = json.loads((GOLDEN_DIR / "assess_model_shallow.json").read_text())
        cfg = golden["irgen_cfg"]
        irgen = parse_network(cfg, bytes.fromhex(golden["irgen_weights_hex"]))
        irval = _small_oracle()
        report = assess_model([_span_01_image()], irgen, irval)
        assert report.layers[0].delta == pytest.approx(0.0, abs=1e-9)
        assert report.chosen != 1
        assert report_tsv(report) == golden["tsv"]

    def test_idempotent_aggregation(self, plain17):
        x = seed_image(plain17.input_shape, 60)
        solo = assess_model([x], plain17, plain17)
        pair = assess_model([x, x], plain17, plain17)
        assert solo.layers == pair.layers
        assert solo.chosen == pair.chosen
        assert solo.uniform_baseline == pair.uniform_baseline

    def test_single_layer_model_empty_report(self):
        irgen = parse_network(
            "[net]\nwidth=4\nheight=4\nchannels=1\n\n[convolutional]\nfilters=2\nsize=1\n",
            pack_weights(*([0.1] * 2), *([0.2] * 2)),
        )
        report = assess_model([_span_01_image()], irgen, _small_oracle())
        assert report.layers == ()
        assert report.chosen is None

    def test_worst_case_aggregation_takes_min_delta(self, plain17):
        x1 = seed_image(plain17.input_shape, 61)
        x2 = seed_image(plain17.input_shape, 62)
        merged = assess_model([x1, x2], plain17, plain17)
        a = assess_model([x1], plain17, plain17)
        b = assess_model([x2], plain17, plain17)
        for row, ra, rb in zip(merged.layers, a.layers, b.layers):
            assert row.delta == min(ra.delta, rb.delta)
            assert row in (ra, rb)
        assert merged.uniform_baseline == min(a.uniform_baseline, b.uniform_baseline)

    def test_chosen_cut_is_valid_and_suffix_holds(self, denseblock):
        xs = [seed_image(denseblock.input_shape, s) for s in (70, 71)]
        report = assess_model(xs, denseblock, denseblock)
        deltas = [row.delta for row in report.layers]
        assert choose_partition(deltas, report.valid_points) == report.chosen
        if report.chosen is not None:
            assert report.chosen in report.valid_points
            assert all(d > 1 for d in deltas[report.chosen - 1 :])

    def test_report_rendering_stable(self, plain17):
        x = seed_image(plain17.input_shape, 63)
        r1 = assess_model([x], plain17, plain17)
        r2 = assess_model([x], plain17, plain17)
        assert report_tsv(r1) == report_tsv(r2)
        assert report_table(r1) == report_table(r2)
        n_rows = len(report_tsv(r1).strip().splitlines())
        assert n_rows == plain17.n_layers - 1

    def test_plain17_report_golden(self, plain17):
        golden = json.loads((GOLDEN_DIR / "assess_model_plain17.json").read_text())
        oracle = parse_network(
            *gen_fixture_model("plain17", golden["oracle_seed"], golden["classes"])
        )
        xs = [seed_image(plain17.input_shape, s) for s in golden["image_seeds"]]
        report = assess_model(xs, plain17, oracle)
        assert report_tsv(report) == golden["tsv"]
        assert report.chosen == golden["chosen"]

    def test_work_per_image_plain17(self, plain17, monkeypatch):
        """One generator pass of one-layer ranges, one oracle forward for the
        baseline, the oracle's prefix in chunks of at most ORACLE_BATCH rows,
        and one suffix pass over every varying map plus the all-zero image."""
        ranges, forwards, batches = [], [], []
        real_range, real_forward = assessment.forward_range, assessment.forward

        def forward_range(net, lo, hi, x):
            ranges.append((lo, hi))
            return real_range(net, lo, hi, x)

        def forward(net, x):
            forwards.append(x)
            return real_forward(net, x)

        def range_batch(net, lo, hi, x):
            batches.append((net, lo, hi, np.array(x)))
            return engine.forward_range_batch(net, lo, hi, x)

        x = seed_image(plain17.input_shape, 64)
        monkeypatch.setattr(assessment, "forward_range", forward_range)
        monkeypatch.setattr(assessment, "forward", forward)
        monkeypatch.setattr(assessment, "forward_range_batch", range_batch)
        oracle = parse_network(*gen_fixture_model("plain17", 2, 10))
        assess_model([x], plain17, oracle)
        monkeypatch.undo()

        assert ranges == [(i, i) for i in range(1, 17)]
        assert len(forwards) == 1
        assert all(net is oracle for net, _, _, _ in batches)
        assert _oracle_split(oracle, 189) == 5
        prefix = [b for _, lo, hi, b in batches if (lo, hi) == (1, 5)]
        suffix = [b for _, lo, hi, b in batches if (lo, hi) == (6, 17)]
        assert len(prefix) + len(suffix) == len(batches)
        assert ORACLE_BATCH == 8
        assert all(1 <= len(b) <= ORACLE_BATCH for b in prefix)
        assert all(len(b) == ORACLE_BATCH for b in prefix[:-1])  # chunks span layers
        rows = [row for b in prefix for row in b]
        assert not rows[0].any()  # the all-zero image leads the stream
        assert sum(not row.any() for row in rows) == 1
        varying = sum(
            int((out.array.max(axis=(1, 2)) > out.array.min(axis=(1, 2))).sum())
            for out in _generator_outputs(x, plain17, 16)
        )
        maps = sum(c for _, _, c in plain17.layer_output_shapes[:16])
        assert maps == 188
        assert 0 < varying < maps
        assert len(rows) == varying + 1
        assert len(suffix) == 1 and len(suffix[0]) == len(rows)

    def test_route_generator_outputs_match_pass_from_layer_1(self, denseblock):
        x = seed_image(denseblock.input_shape, 65)
        outs = _generator_outputs(x, denseblock, denseblock.n_layers - 1)
        for i, out in enumerate(outs, start=1):
            assert out.array.tobytes() == forward_range(denseblock, 1, i, x).array.tobytes()

    def test_empty_input_set_rejected(self, plain17):
        with pytest.raises(ValueError, match="at least one input"):
            assess_model([], plain17, plain17)
