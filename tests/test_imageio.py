import numpy as np
import pytest

from irshield import imageio
from irshield.errors import ShapeError
from irshield.imageio import bilinear_resize, load_image, resize_to_shape
from irshield.tensor import Tensor

from conftest import write_netpbm


class TestNetpbm:
    def test_ascii_pgm(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n# a comment\n2 2\n255\n0 255\n128 64\n")
        t = load_image(path)
        assert t.shape == (2, 2, 1)
        np.testing.assert_allclose(
            t.array[0], [[0, 1.0], [128 / 255, 64 / 255]], atol=1e-7
        )

    def test_ascii_ppm(self, tmp_path):
        path = tmp_path / "a.ppm"
        path.write_text("P3\n1 2\n255\n255 0 0\n0 255 0\n")
        t = load_image(path)
        assert t.shape == (1, 2, 3)
        assert t.array[0, 0, 0] == 1.0  # red channel, first row
        assert t.array[1, 1, 0] == 1.0  # green channel, second row

    def test_binary_round_trip_pgm(self, tmp_path):
        src = Tensor.from_array(np.linspace(0, 1, 20, dtype=np.float32).reshape(1, 4, 5))
        path = tmp_path / "b.pgm"
        write_netpbm(src, path)
        back = load_image(path)
        assert back.shape == (5, 4, 1)
        np.testing.assert_allclose(back.array, src.array, atol=1 / 255 + 1e-7)

    def test_binary_round_trip_ppm(self, tmp_path):
        rng = np.random.default_rng(0)
        src = Tensor.from_array(rng.random((3, 6, 7)).astype(np.float32))
        path = tmp_path / "b.ppm"
        write_netpbm(src, path)
        back = load_image(path)
        assert back.shape == (7, 6, 3)
        np.testing.assert_allclose(back.array, src.array, atol=1 / 255 + 1e-7)

    def test_sixteen_bit_binary(self, tmp_path):
        samples = np.array([0, 65535, 32768, 1000], dtype=">u2")
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + samples.tobytes())
        t = load_image(path)
        np.testing.assert_allclose(
            t.array.ravel(), [0.0, 1.0, 32768 / 65535, 1000 / 65535], atol=1e-7
        )

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "d.pbm"
        path.write_bytes(b"P1\n2 2\n0 1 1 0\n")
        with pytest.raises(ShapeError, match="magic"):
            load_image(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(ShapeError, match="too short"):
            load_image(path)

    @pytest.mark.parametrize("blob", [b"P5 2 2 255", b"P6 1 1 255", b"P5 1 1 65535\n\x01"])
    def test_raster_missing_or_odd_is_too_short(self, tmp_path, blob):
        path = tmp_path / "k.pgm"
        path.write_bytes(blob)
        with pytest.raises(ShapeError, match="netpbm raster too short"):
            load_image(path)

    def test_sample_above_maxval(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_text("P2\n1 1\n10\n200\n")
        with pytest.raises(ShapeError, match="exceeds declared maxval"):
            load_image(path)

    def test_negative_ascii_sample_rejected(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_text("P2\n2 1\n255\n-5 7\n")
        with pytest.raises(ShapeError, match=r"bad netpbm sample: b'-5'"):
            load_image(path)

    def test_negative_dimensions_rejected(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_text("P2\n-2 -1\n255\n1 2\n")
        with pytest.raises(ShapeError, match=r"bad netpbm width: b'-2'"):
            load_image(path)

    def test_underscored_maxval_rejected(self, tmp_path):
        path = tmp_path / "j.pgm"
        path.write_bytes(b"P5\n2 1\n2_5_5\n" + bytes([3, 4]))
        with pytest.raises(ShapeError, match=r"bad netpbm maxval: b'2_5_5'"):
            load_image(path)

    def test_empty_raster_rejected(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5 0 0 255\n")
        with pytest.raises(ShapeError, match="positive"):
            load_image(path)

    def test_from_array_rejects_empty_dimensions(self):
        with pytest.raises(ShapeError, match="positive"):
            Tensor.from_array(np.zeros((1, 0, 3), dtype=np.float32))


def bilinear_two_index_arrays(maps, out_h, out_w):
    """Reference: the joint gather through two broadcast index arrays."""
    h, w = maps.shape[-2:]
    src = maps.astype(np.float64)
    sy = np.arange(out_h) * ((h - 1) / (out_h - 1)) if out_h > 1 else np.zeros(1)
    sx = np.arange(out_w) * ((w - 1) / (out_w - 1)) if out_w > 1 else np.zeros(1)
    y0 = np.floor(sy).astype(int)[:, None]
    x0 = np.floor(sx).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = sy[:, None] - y0
    fx = sx - x0
    top = src[..., y0, x0] * (1 - fx) + src[..., y0, x1] * fx
    bottom = src[..., y1, x0] * (1 - fx) + src[..., y1, x1] * fx
    return top * (1 - fy) + bottom * fy


class TestSeparableGather:
    """The row-then-column gather reproduces the joint gather's bytes."""

    @pytest.mark.parametrize(
        "shape,out",
        [
            ((3, 5), (9, 13)),  # upsample
            ((8, 16), (32, 32)),  # upsample by whole factors
            ((17, 11), (5, 4)),  # downsample
            ((32, 32), (7, 32)),  # one axis down, one unchanged
            ((6, 9), (1, 5)),  # output height 1
            ((6, 9), (4, 1)),  # output width 1
            ((6, 9), (1, 1)),
            ((1, 7), (5, 6)),  # source height 1
            ((7, 1), (5, 6)),  # source width 1
            ((1, 1), (3, 4)),
            ((2, 3, 5, 6), (7, 4)),  # leading axes
            ((4, 1, 9), (12, 3)),
        ],
    )
    def test_bytes_match_two_index_arrays(self, shape, out):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        for maps in (rng.random(shape), rng.standard_normal(shape).astype(np.float32)):
            got = bilinear_resize(maps, *out)
            want = bilinear_two_index_arrays(maps, *out)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_non_finite_values_land_in_the_same_places(self):
        maps = np.random.default_rng(5).random((3, 4, 5))
        maps[0, 1, 2] = np.inf
        maps[1, 3, 4] = np.nan
        maps[2, 0, 0] = -np.inf
        with np.errstate(invalid="ignore"):
            got = bilinear_resize(maps, 9, 7)
            want = bilinear_two_index_arrays(maps, 9, 7)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("out", [(9, 7), (2, 3), (1, 7), (9, 1), (1, 1), (4, 5)])
    def test_non_finite_rows_and_columns_at_every_output_size(self, out):
        maps = np.random.default_rng(5).random((5, 4, 5))
        maps[0, 1, 2] = np.inf
        maps[1, 3, 4] = np.nan
        maps[2, 0, 0] = -np.inf
        maps[3, 2, :] = np.inf  # a whole source row
        maps[4, :, 0] = np.nan  # a whole source column
        with np.errstate(invalid="ignore"):
            got = bilinear_resize(maps, *out)
            want = bilinear_two_index_arrays(maps, *out)
        assert got.shape == want.shape == (5, *out)
        assert got.tobytes() == want.tobytes()

    def test_size_one_sources_with_non_finite_values(self):
        for shape in ((1, 6), (6, 1), (1, 1)):
            maps = np.stack([np.full(shape, np.inf), np.full(shape, np.nan), np.full(shape, -2.5)])
            for out in ((1, 1), (3, 1), (1, 4), (5, 6)):
                with np.errstate(invalid="ignore"):
                    got = bilinear_resize(maps, *out)
                    want = bilinear_two_index_arrays(maps, *out)
                assert got.tobytes() == want.tobytes()

    def test_tables_are_shared_and_read_only(self):
        a = bilinear_resize(np.ones((4, 5)), 7, 3)
        assert a.tobytes() == np.ones((7, 3)).tobytes()
        tables = imageio._resize_tables(4, 5, 7, 3)
        assert tables is imageio._resize_tables(4, 5, 7, 3)
        assert not any(t.flags.writeable for t in tables)


class TestResize:
    def test_identity_when_same_size(self):
        rng = np.random.default_rng(1)
        arr = rng.random((4, 4)).astype(np.float32)
        out = bilinear_resize(arr, 4, 4)
        np.testing.assert_array_equal(out, arr.astype(np.float64))

    def test_corner_alignment(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = bilinear_resize(arr, 5, 5)
        assert out[0, 0] == 1.0 and out[0, 4] == 2.0
        assert out[4, 0] == 3.0 and out[4, 4] == 4.0

    def test_values_stay_within_source_range(self):
        rng = np.random.default_rng(2)
        arr = rng.random((3, 5))
        out = bilinear_resize(arr, 9, 13)
        assert out.min() >= arr.min() - 1e-12
        assert out.max() <= arr.max() + 1e-12

    def test_downscale_to_single_pixel_samples_origin(self):
        arr = np.arange(9, dtype=np.float64).reshape(3, 3)
        out = bilinear_resize(arr, 1, 1)
        assert out.shape == (1, 1)
        assert out[0, 0] == arr[0, 0]

    def test_leading_axes_resample_like_single_maps(self):
        rng = np.random.default_rng(4)
        maps = rng.random((2, 3, 5, 6)).astype(np.float32)
        out = bilinear_resize(maps, 7, 4)
        for i in range(2):
            for j in range(3):
                assert out[i, j].tobytes() == bilinear_resize(maps[i, j], 7, 4).tobytes()

    def test_gray_replicated_to_three_channels(self):
        t = Tensor.from_array([[[0.0, 0.25], [0.5, 1.0]]])
        out = resize_to_shape(t, (4, 4, 3))
        assert out.shape == (4, 4, 3)
        np.testing.assert_array_equal(out.array[0], out.array[1])
        np.testing.assert_array_equal(out.array[0], out.array[2])

    def test_color_collapsed_to_gray(self):
        rng = np.random.default_rng(3)
        t = Tensor.from_array(rng.random((3, 4, 4)).astype(np.float32))
        out = resize_to_shape(t, (4, 4, 1))
        np.testing.assert_allclose(
            out.array[0], t.array.astype(np.float64).mean(axis=0), atol=1e-6
        )
