import json
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from irshield.errors import ShapeError
from irshield.fixtures import FIXTURE_ARCHS, gen_fixture_model
from irshield.netdef import LayerSpec, parse_config
from irshield.workload import flop_profile, frontnet_fraction, profile_tsv

from conftest import GOLDEN_DIR, one_layer_flops
from reference import ref_conv


def conv_spec(filters, size, stride=1, pad=0, bias=True, bn=False):
    return LayerSpec(
        index=1, kind="convolutional", filters=filters, size=size,
        stride=stride, pad=pad, bias=bias, batch_normalize=bn,
    )


class TestLayerFlops:
    def test_one_multiply_add(self):
        layer = conv_spec(1, 1, bias=False)
        assert one_layer_flops(layer, (1, 1, 1)) == 2

    def test_bias_adds_one_per_output(self):
        assert one_layer_flops(conv_spec(1, 1, bias=True), (1, 1, 1)) == 3

    def test_batch_norm_adds_two_per_output(self):
        assert one_layer_flops(conv_spec(1, 1, bias=True, bn=True), (1, 1, 1)) == 5

    def test_imagenet_scale_closed_form(self):
        layer = conv_spec(16, 3, stride=1, pad=1, bias=False)
        assert one_layer_flops(layer, (224, 224, 3)) == 43_352_064
        assert one_layer_flops(layer, (224, 224, 3)) == 2 * 9 * 3 * 224 * 224 * 16

    def test_maxpool_window_oracle(self):
        layer = LayerSpec(index=1, kind="maxpool", size=2, stride=2)
        assert one_layer_flops(layer, (224, 224, 16)) == 112 * 112 * 16 * 4 == 802_816

    def test_global_avgpool_cost(self):
        layer = LayerSpec(index=1, kind="avgpool", stride=0)
        assert one_layer_flops(layer, (7, 5, 8)) == 7 * 5 * 8

    def test_connected_cost(self):
        layer = LayerSpec(index=1, kind="connected", output=10)
        assert one_layer_flops(layer, (4, 4, 2)) == 2 * 32 * 10

    def test_softmax_cost(self):
        layer = LayerSpec(index=1, kind="softmax")
        assert one_layer_flops(layer, (1, 1, 10)) == 50

    def test_kernel_must_fit(self):
        with pytest.raises(ShapeError):
            one_layer_flops(conv_spec(1, 5), (2, 2, 1))

    def test_exhaustive_sweep_against_instrumented_convolution(self):
        """Multiply-counting scalar convolution agrees with the closed form
        for every config with all dims <= 8."""
        rng = np.random.default_rng(0)
        checked = 0
        for w in range(1, 9):
            for h in range(1, 9):
                for k in (1, 2, 3):
                    for stride in (1, 2):
                        for pad in (0, 1):
                            p = k // 2 if pad else 0
                            if w + 2 * p < k or h + 2 * p < k:
                                continue
                            for c_in in (1, 3):
                                for f in (1, 2):
                                    for bias, bn in ((True, False), (True, True), (False, False)):
                                        layer = conv_spec(f, k, stride, pad, bias, bn)
                                        lw = {
                                            "biases": rng.normal(0, 1, f).astype(np.float32),
                                            "bn_scale": np.ones(f, np.float32),
                                            "bn_mean": np.zeros(f, np.float32),
                                            "bn_var": np.ones(f, np.float32),
                                            "filters": rng.normal(0, 1, (f, c_in, k, k)).astype(np.float32),
                                        }
                                        x = rng.normal(0, 1, (c_in, h, w)).astype(np.float32)
                                        out, multiplies = ref_conv(layer, lw, x)
                                        out_elems = out.size
                                        expected = 2 * multiplies
                                        if bias:
                                            expected += out_elems
                                        if bn:
                                            expected += 2 * out_elems
                                        assert one_layer_flops(layer, (w, h, c_in)) == expected
                                        checked += 1
        assert checked > 1000


TWO_EQUAL_LAYERS_CFG = """\
[net]
width=8
height=8
channels=2

[convolutional]
filters=2
size=3
pad=1

[convolutional]
filters=2
size=3
pad=1
"""


class TestFlopProfile:
    def test_two_identical_layers_split_evenly(self):
        net = parse_config(TWO_EQUAL_LAYERS_CFG)
        profile = flop_profile(net)
        assert profile.per_layer[0] == profile.per_layer[1]
        assert list(profile.cumulative) == [0.5, 1.0]

    def test_single_layer_curve(self):
        net = parse_config("[net]\nwidth=4\nheight=4\nchannels=1\n\n[maxpool]\nsize=2\n")
        assert list(flop_profile(net).cumulative) == [1.0]

    def test_monotone_and_ends_at_one(self, plain17, plain28, denseblock):
        for net in (plain17, plain28, denseblock):
            profile = flop_profile(net)
            assert profile.cumulative[-1] == 1.0
            assert all(
                a <= b for a, b in zip(profile.cumulative, profile.cumulative[1:])
            )
            assert all(c > 0 for c in profile.per_layer)
            assert profile.total == sum(profile.per_layer)

    def test_route_costed_as_output_volume(self, denseblock):
        profile = flop_profile(denseblock)
        # layer 5 concatenates four 4-channel 16x16 maps
        assert profile.per_layer[4] == 16 * 16 * 16

    @pytest.mark.parametrize("arch", FIXTURE_ARCHS)
    @pytest.mark.parametrize("classes", [2, 10, 1000])
    def test_cumulative_is_the_exact_ratio_rounded(self, arch, classes):
        # the reference: each prefix sum over the total as an exact rational, then rounded
        profile = flop_profile(parse_config(gen_fixture_model(arch, 0, classes)[0]))
        exact = (Fraction(running, profile.total) for running in accumulate(profile.per_layer))
        assert profile.cumulative == tuple(map(float, exact))

    def test_golden_fixture_fractions(self, plain17, plain28, denseblock):
        golden = json.loads((GOLDEN_DIR / "flop_fractions.json").read_text())
        nets = {"plain17": plain17, "plain28": plain28, "denseblock": denseblock}
        for name, entries in golden.items():
            profile = flop_profile(nets[name])
            for cut_str, fraction in entries.items():
                assert frontnet_fraction(profile, int(cut_str)) == fraction


class TestFrontnetFraction:
    def test_uniform_two_layer_halfway(self):
        net = parse_config(TWO_EQUAL_LAYERS_CFG)
        assert frontnet_fraction(flop_profile(net), 1) == 0.5

    def test_last_assessable_cut_is_cumulative_value(self, plain17):
        profile = flop_profile(plain17)
        n = len(profile.per_layer)
        assert frontnet_fraction(profile, n - 1) == profile.cumulative[n - 2]

    def test_monotone_in_cut(self, plain28):
        profile = flop_profile(plain28)
        fractions = [frontnet_fraction(profile, c) for c in range(1, len(profile.per_layer))]
        assert fractions == sorted(fractions)

    def test_out_of_range_cut(self, plain17):
        profile = flop_profile(plain17)
        with pytest.raises(ValueError):
            frontnet_fraction(profile, 0)
        with pytest.raises(ValueError):
            frontnet_fraction(profile, 17)


def test_profile_tsv_format(plain17):
    profile = flop_profile(plain17)
    lines = profile_tsv(profile).strip().splitlines()
    assert len(lines) == 17
    first = lines[0].split("\t")
    assert first[0] == "1" and first[1] == "convolutional"
    assert int(first[2]) == profile.per_layer[0]
    assert float(first[3]) == profile.cumulative[0]
