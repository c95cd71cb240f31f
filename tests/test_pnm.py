"""PGM/PPM planes reader-writer: header quirks, bit depths, failure modes."""

import hashlib
import re

import numpy as np
import pytest

from lflc.errors import PnmError
from lflc.pnm import read_planes, write_planes


def golden_planes(channels):
    """Fixed planes with samples below 0, above 1 and at half an 8-bit level."""
    planes = np.random.default_rng(40 + channels).random((channels, 3, 4))
    planes[0, 0, 0] = -0.2
    planes[0, 0, 1] = 1.3
    planes[-1, 2, 3] = 0.5 / 255
    return planes


class TestRoundtrips:
    def test_gray_uint8(self, tmp_path):
        rng = np.random.default_rng(1)
        pixels = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        path = tmp_path / "g.pgm"
        write_planes(path, pixels[None] / 255)
        assert path.read_bytes() == b"P5\n7 5\n255\n" + pixels.tobytes()
        planes, depth = read_planes(path)
        assert depth == 8
        np.testing.assert_array_equal(planes, pixels[None] / 255)

    def test_color_uint8(self, tmp_path):
        rng = np.random.default_rng(2)
        pixels = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
        path = tmp_path / "c.ppm"
        write_planes(path, pixels.transpose(2, 0, 1) / 255)
        assert path.read_bytes() == b"P6\n6 4\n255\n" + pixels.tobytes()
        planes, depth = read_planes(path)
        assert depth == 8
        np.testing.assert_array_equal(planes, pixels.transpose(2, 0, 1) / 255)

    def test_gray_uint16(self, tmp_path):
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 65536, size=(3, 4), dtype=np.uint16)
        path = tmp_path / "g16.pgm"
        write_planes(path, pixels[None] / 65535, bit_depth=16)
        assert path.read_bytes() == b"P5\n4 3\n65535\n" + pixels.astype(">u2").tobytes()
        planes, depth = read_planes(path)
        assert depth == 16
        np.testing.assert_array_equal(planes, pixels[None] / 65535)

    def test_uint16_raster_is_big_endian(self, tmp_path):
        path = tmp_path / "be.pgm"
        write_planes(path, np.full((1, 1, 1), 0x0102 / 65535), bit_depth=16)
        raw = path.read_bytes()
        assert raw.endswith(b"\x01\x02")
        assert read_planes(path)[0][0, 0, 0] == 0x0102 / 65535


class TestHeaderParsing:
    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # magic\n# a comment line\n 2\t2 # dims\n255\n\x00\x01\x02\x03")
        planes, depth = read_planes(path)
        assert depth == 8
        np.testing.assert_array_equal(planes, np.array([[[0, 1], [2, 3]]]) / 255)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"P5\n2 2", "unexpected end of file in header"),
            (b"P5\n2 2 # no maxval#", "unexpected end of file in header"),
            (b"P5\n2 x\n255\n\x00\x00\x00\x00", "bad header token"),
            (b"P5\n1 1\n255", "missing whitespace after header"),
        ],
        ids=["end-of-file", "end-in-comment", "token", "whitespace"],
    )
    def test_bad_header_names_the_file(self, tmp_path, data, message):
        path = tmp_path / "h.pgm"
        path.write_bytes(data)
        with pytest.raises(PnmError, match=f"{re.escape(str(path))}: {message}"):
            read_planes(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P4\n2 2\n255\n\x00\x00\x00\x00")
        with pytest.raises(PnmError, match=re.escape(str(path))):
            read_planes(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        for maxval in (b"100", b"0", b"4095"):
            path.write_bytes(b"P5\n1 1\n" + maxval + b"\n\x00\x00")
            with pytest.raises(PnmError, match=re.escape(f"{path}: unsupported maxval")):
                read_planes(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.pgm"
        for maxval in (b"255", b"65535"):
            path.write_bytes(b"P5\n2 2\n" + maxval + b"\n\x00\x01\x02")
            with pytest.raises(PnmError, match=re.escape(f"{path}: raster shorter")):
                read_planes(path)

    @pytest.mark.parametrize("size", [b"0 3", b"3 0"])
    def test_empty_raster_names_its_file(self, tmp_path, size):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n")
        width, height = size.decode().split()
        with pytest.raises(PnmError, match=re.escape(f"{path}: empty {width}x{height} raster")):
            read_planes(path)


class TestUnitScaling:
    def test_uint8_scale(self, tmp_path):
        path = tmp_path / "s.pgm"
        path.write_bytes(b"P5\n3 1\n255\n\x00\xff\x80")
        planes, _ = read_planes(path)
        np.testing.assert_array_equal(planes, [[[0.0, 1.0, 128 / 255]]])

    def test_uint16_scale(self, tmp_path):
        path = tmp_path / "s16.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n\x00\x00\xff\xff")
        planes, depth = read_planes(path)
        assert depth == 16
        np.testing.assert_array_equal(planes, [[[0.0, 1.0]]])

    def test_roundtrip_error_bound(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.random((1, 16, 16))
        path = tmp_path / "r.pgm"
        for bit_depth in (8, 16):
            write_planes(path, values, bit_depth)
            again, _ = read_planes(path)
            assert np.max(np.abs(again - values)) <= 0.5 / (2**bit_depth - 1) + 1e-12

    def test_write_clips_and_rounds_half_to_even(self, tmp_path):
        path = tmp_path / "k.pgm"
        write_planes(path, np.array([[[-0.2, 1.3, 0.5 / 255, 1.5 / 255]]]))
        assert path.read_bytes().endswith(bytes([0, 255, 0, 2]))


class TestPlanes:
    @pytest.mark.parametrize("bit_depth", [8, 16])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_planes_are_the_file_pixels(self, tmp_path, channels, bit_depth):
        rng = np.random.default_rng(5)
        planes = rng.random((channels, 3, 4))
        path = tmp_path / "p.pnm"
        write_planes(path, planes, bit_depth)
        maxval = 2**bit_depth - 1
        header = b"P%d\n4 3\n%d\n" % (5 if channels == 1 else 6, maxval)
        raw = path.read_bytes()
        assert raw.startswith(header)
        sample = ">u2" if bit_depth == 16 else "u1"
        pixels = np.frombuffer(raw[len(header):], sample).reshape(3, 4, channels)
        np.testing.assert_array_equal(pixels.transpose(2, 0, 1), np.rint(planes * maxval))
        again, depth = read_planes(path)
        assert depth == bit_depth
        np.testing.assert_array_equal(again, pixels.transpose(2, 0, 1) / maxval)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (3, 4), (1, 1, 3, 4)])
    def test_write_refuses_other_layouts(self, tmp_path, shape):
        with pytest.raises(PnmError):
            write_planes(tmp_path / "p.pnm", np.zeros(shape))

    @pytest.mark.parametrize("bit_depth", [1, 12, 32])
    def test_write_refuses_other_depths(self, tmp_path, bit_depth):
        with pytest.raises(PnmError, match="unsupported bit depth"):
            write_planes(tmp_path / "p.pnm", np.zeros((1, 2, 2)), bit_depth)


# SHA-256 of the file write_planes makes of golden_planes(C), per (C, bit depth)
GOLDEN_FILES = {
    (1, 8): "bb1857e51e9cc94d428b481a5ce5dfb83a5d394c899bb68888e033cbd4953d4e",
    (1, 16): "cd5de0dedaf9d774bc10a955413c21b9acd72230835bc761e36e3a58e46b492c",
    (3, 8): "af56b25187e850f62c25d15a4ff0625485ee21e394d344df08286f12d2f3c4f7",
    (3, 16): "3d0621ea3315cf036704342c030f34929cf99e3eed76b59d2959d7e28b17c5c8",
}


@pytest.mark.parametrize("channels, bit_depth", GOLDEN_FILES)
def test_written_bytes_are_pinned(tmp_path, channels, bit_depth):
    path = tmp_path / "golden.pnm"
    write_planes(path, golden_planes(channels), bit_depth)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_FILES[channels, bit_depth]
