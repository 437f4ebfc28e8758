import numpy as np
import pytest

from irshield.errors import ShapeError
from irshield.imageio import (
    bilinear_resize,
    load_image,
    resize_to_shape,
    write_pgm,
    write_ppm,
)
from irshield.tensor import Tensor


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
        src = Tensor(5, 4, 1, np.linspace(0, 1, 20, dtype=np.float32))
        path = tmp_path / "b.pgm"
        write_pgm(src, path)
        back = load_image(path)
        assert back.shape == (5, 4, 1)
        np.testing.assert_allclose(back.array, src.array, atol=1 / 255 + 1e-7)

    def test_binary_round_trip_ppm(self, tmp_path):
        rng = np.random.default_rng(0)
        src = Tensor.from_array(rng.random((3, 6, 7)).astype(np.float32))
        path = tmp_path / "b.ppm"
        write_ppm(src, path)
        back = load_image(path)
        assert back.shape == (7, 6, 3)
        np.testing.assert_allclose(back.array, src.array, atol=1 / 255 + 1e-7)

    def test_sixteen_bit_binary(self, tmp_path):
        samples = np.array([0, 65535, 32768, 1000], dtype=">u2")
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + samples.tobytes())
        t = load_image(path)
        np.testing.assert_allclose(
            t.data, [0.0, 1.0, 32768 / 65535, 1000 / 65535], atol=1e-7
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

    def test_sample_above_maxval(self, tmp_path):
        path = tmp_path / "f.pgm"
        path.write_text("P2\n1 1\n10\n200\n")
        with pytest.raises(ShapeError, match="exceeds declared maxval"):
            load_image(path)

    def test_empty_raster_rejected(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5 0 0 255\n")
        with pytest.raises(ShapeError, match="positive"):
            load_image(path)

    def test_from_array_rejects_empty_dimensions(self):
        with pytest.raises(ShapeError, match="positive"):
            Tensor.from_array(np.zeros((1, 0, 3), dtype=np.float32))

    def test_writer_channel_checks(self, tmp_path):
        gray = Tensor(2, 2, 1, np.zeros(4, dtype=np.float32))
        with pytest.raises(ShapeError):
            write_ppm(gray, tmp_path / "x.ppm")
        color = Tensor(2, 2, 3, np.zeros(12, dtype=np.float32))
        with pytest.raises(ShapeError):
            write_pgm(color, tmp_path / "x.pgm")


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
        t = Tensor(2, 2, 1, [0.0, 0.25, 0.5, 1.0])
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
