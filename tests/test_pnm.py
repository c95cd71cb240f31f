"""PGM/PPM reader-writer: header quirks, bit depths, failure modes."""

import numpy as np
import pytest

from lflc.errors import PnmError
from lflc.pnm import (
    image_to_unit,
    read_planes,
    read_pnm,
    unit_to_image,
    write_planes,
    write_pnm,
)


class TestRoundtrips:
    def test_gray_uint8(self, tmp_path):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        path = tmp_path / "g.pgm"
        write_pnm(path, pixels)
        np.testing.assert_array_equal(read_pnm(path), pixels)

    def test_color_uint8(self, tmp_path):
        rng = np.random.default_rng(2)
        pixels = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
        path = tmp_path / "c.ppm"
        write_pnm(path, pixels)
        np.testing.assert_array_equal(read_pnm(path), pixels)

    def test_gray_uint16(self, tmp_path):
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 65536, size=(3, 4), dtype=np.uint16)
        path = tmp_path / "g16.pgm"
        write_pnm(path, pixels)
        np.testing.assert_array_equal(read_pnm(path), pixels)

    def test_uint16_raster_is_big_endian(self, tmp_path):
        pixels = np.array([[0x0102]], dtype=np.uint16)
        path = tmp_path / "be.pgm"
        write_pnm(path, pixels)
        raw = path.read_bytes()
        assert raw.endswith(b"\x01\x02")


class TestHeaderParsing:
    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # magic\n# a comment line\n 2\t2 # dims\n255\n\x00\x01\x02\x03")
        np.testing.assert_array_equal(
            read_pnm(path), np.array([[0, 1], [2, 3]], dtype=np.uint8)
        )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P4\n2 2\n255\n\x00\x00\x00\x00")
        with pytest.raises(PnmError):
            read_pnm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n100\n\x00")
        with pytest.raises(PnmError):
            read_pnm(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
        with pytest.raises(PnmError):
            read_pnm(path)


class TestUnitScaling:
    def test_uint8_scale(self):
        pixels = np.array([[0, 255, 128]], dtype=np.uint8)
        unit = image_to_unit(pixels)
        np.testing.assert_allclose(unit, [[0.0, 1.0, 128 / 255]], rtol=0, atol=0)

    def test_uint16_scale(self):
        pixels = np.array([[0, 65535]], dtype=np.uint16)
        np.testing.assert_allclose(image_to_unit(pixels), [[0.0, 1.0]])

    def test_roundtrip_error_bound(self):
        rng = np.random.default_rng(4)
        values = rng.random((16, 16))
        again = image_to_unit(unit_to_image(values, bit_depth=8))
        assert np.max(np.abs(again - values)) <= 0.5 / 255 + 1e-12

    def test_unit_to_image_clips(self):
        pixels = unit_to_image(np.array([[-0.2, 1.3]]), bit_depth=8)
        np.testing.assert_array_equal(pixels, np.array([[0, 255]], dtype=np.uint8))


class TestPlanes:
    @pytest.mark.parametrize("bit_depth", [8, 16])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_planes_are_the_file_pixels(self, tmp_path, channels, bit_depth):
        rng = np.random.default_rng(5)
        planes = rng.random((channels, 3, 4))
        path = tmp_path / "p.pnm"
        write_planes(path, planes, bit_depth)
        pixels = read_pnm(path)
        layout = pixels[None] if channels == 1 else pixels.transpose(2, 0, 1)
        np.testing.assert_array_equal(layout, unit_to_image(planes, bit_depth))
        again, depth = read_planes(path)
        assert depth == bit_depth
        np.testing.assert_array_equal(again, image_to_unit(layout))

    @pytest.mark.parametrize("shape", [(2, 3, 4), (3, 4), (1, 1, 3, 4)])
    def test_write_refuses_other_layouts(self, tmp_path, shape):
        with pytest.raises(PnmError):
            write_planes(tmp_path / "p.pnm", np.zeros(shape))
