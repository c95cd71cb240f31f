"""Light-field container, manifest I/O, angular indexing, PSNR."""

import math
import re

import numpy as np
import pytest

from conftest import sha256_of_files
from lflc.errors import ManifestError, PnmError
from lflc.lightfield import (
    LightField,
    Manifest,
    angular_offset,
    load_light_field,
    psnr,
    psnr_masked,
    read_manifest,
    save_light_field,
    write_manifest,
)


class TestAngularOffset:
    def test_odd_grid_is_symmetric(self):
        assert [angular_offset(s, 5) for s in range(5)] == [-2, -1, 0, 1, 2]

    def test_even_grid_is_left_heavy(self):
        assert [angular_offset(s, 4) for s in range(4)] == [-2, -1, 0, 1]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            angular_offset(5, 5)
        with pytest.raises(IndexError):
            angular_offset(-1, 5)


class TestLightFieldType:
    def test_accessors(self):
        rng = np.random.default_rng(0)
        lf = LightField(samples=rng.random((3, 2, 4, 8, 16)))
        assert lf.angular_dims == (4, 2)
        assert lf.spatial_dims == (16, 8)
        assert lf.channels == 3

    def test_rejects_out_of_range_samples(self):
        with pytest.raises(ValueError):
            LightField(samples=np.full((1, 1, 1, 2, 2), 1.5))

    @pytest.mark.parametrize("planted", [np.nan, np.inf, -np.inf, -0.1, 1.1])
    def test_rejects_bad_sample(self, planted):
        samples = np.full((1, 2, 2, 2, 3), 0.5)
        samples[0, 1, 0, 1, 2] = planted
        if np.isfinite(planted):
            message = r"must lie in \[0, 1\]"
        else:  # refused as non-finite although a sample is out of range too
            samples[0, 0, 1, 0, 0] = 1.5
            message = "non-finite"
        with pytest.raises(ValueError, match=message):
            LightField(samples=samples)

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ValueError):
            LightField(samples=np.zeros((2, 1, 1, 2, 2)))


class TestManifestIO:
    def test_roundtrip(self, tmp_path):
        manifest = Manifest(
            angular_dims=(3, 2),
            channels=1,
            bit_depth=8,
            paths=tuple(f"v{i}.pgm" for i in range(6)),
        )
        path = tmp_path / "manifest.txt"
        write_manifest(manifest, path)
        assert read_manifest(path) == manifest

    def test_wrong_path_count(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("2 2 1 8\nonly_one.pgm\n")
        with pytest.raises(ManifestError, match=re.escape(f"{path}: manifest lists 1 files")):
            read_manifest(path)

    def test_garbled_header(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("2 x 1 8\na.pgm\nb.pgm\nc.pgm\nd.pgm\n")
        with pytest.raises(ManifestError):
            read_manifest(path)


# sha256_of_files of the directory save_light_field writes, per (C, bit depth)
GOLDEN_DIRECTORIES = {
    (1, 8): "dee25f08fa199fa07e33f17155139286dbcd364c492dfbbde0326d6f94dd78ca",
    (1, 16): "a8de9b513676c0add150030f6c398ae7f7082714840680ae84933ff3f26e8adb",
    (3, 8): "7bb26303be06bbd2464e6eec10893283478c97023dae284c28d651773fa45a87",
    (3, 16): "54399292c8037300ee8c4eb4a313925dafb74fbde6fba184d1031d502d55f09b",
}


class TestLoadSave:
    def test_save_load_roundtrip_8bit(self, tmp_path):
        rng = np.random.default_rng(5)
        lf = LightField(samples=rng.random((1, 2, 2, 4, 4)))
        save_light_field(lf, tmp_path)
        again = load_light_field(tmp_path / "manifest.txt")
        assert np.max(np.abs(again.samples - lf.samples)) <= 0.5 / 255 + 1e-12

    def test_save_load_roundtrip_16bit_color(self, tmp_path):
        rng = np.random.default_rng(6)
        lf = LightField(samples=rng.random((3, 2, 2, 4, 4)))
        save_light_field(lf, tmp_path, bit_depth=16)
        again = load_light_field(tmp_path / "manifest.txt")
        assert again.samples.shape == lf.samples.shape
        assert np.max(np.abs(again.samples - lf.samples)) <= 0.5 / 65535 + 1e-12

    def test_views_land_row_major(self, tmp_path):
        # view at manifest line t*S + s must fill samples[:, t, s]
        samples = np.zeros((1, 2, 3, 2, 2))
        for t in range(2):
            for s in range(3):
                samples[0, t, s] = (t * 3 + s) / 255.0
        save_light_field(LightField(samples=samples), tmp_path)
        again = load_light_field(tmp_path / "manifest.txt")
        for t in range(2):
            for s in range(3):
                np.testing.assert_allclose(
                    again.samples[0, t, s], (t * 3 + s) / 255.0, atol=1e-12
                )

    def test_missing_view_file(self, tmp_path):
        lf = LightField(samples=np.zeros((1, 1, 2, 2, 2)))
        save_light_field(lf, tmp_path)
        manifest = read_manifest(tmp_path / "manifest.txt")
        (tmp_path / manifest.paths[0]).unlink()
        with pytest.raises(ManifestError, match=re.escape(str(tmp_path / manifest.paths[0]))):
            load_light_field(tmp_path / "manifest.txt")

    def test_bit_depth_mismatch(self, tmp_path):
        lf = LightField(samples=np.zeros((1, 1, 1, 2, 2)))
        save_light_field(lf, tmp_path, bit_depth=8)
        manifest = read_manifest(tmp_path / "manifest.txt")
        deep = Manifest(
            angular_dims=manifest.angular_dims,
            channels=manifest.channels,
            bit_depth=16,
            paths=manifest.paths,
        )
        write_manifest(deep, tmp_path / "manifest.txt")
        with pytest.raises(PnmError, match=re.escape(str(tmp_path / manifest.paths[0]))):
            load_light_field(tmp_path / "manifest.txt")

    def test_views_resolve_against_the_manifest_directory(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        lf = LightField(samples=rng.random((1, 1, 2, 3, 3)))
        save_light_field(lf, tmp_path / "field")
        monkeypatch.chdir(tmp_path)
        again = load_light_field("field/manifest.txt")
        np.testing.assert_array_equal(
            again.samples, load_light_field(tmp_path / "field" / "manifest.txt").samples
        )

    def test_empty_view_names_its_file(self, tmp_path):
        save_light_field(LightField(samples=np.zeros((1, 1, 2, 2, 3))), tmp_path)
        view = tmp_path / read_manifest(tmp_path / "manifest.txt").paths[1]
        view.write_bytes(b"P5\n0 3\n255\n")
        with pytest.raises(PnmError, match=re.escape(f"{view}: empty 0x3 raster")):
            load_light_field(tmp_path / "manifest.txt")

    @pytest.mark.parametrize("channels, bit_depth", GOLDEN_DIRECTORIES)
    def test_written_bytes_are_pinned(self, tmp_path, channels, bit_depth):
        rng = np.random.default_rng(50 + channels + bit_depth)
        save_light_field(LightField(rng.random((channels, 2, 3, 4, 5))), tmp_path, bit_depth)
        assert sha256_of_files(tmp_path) == GOLDEN_DIRECTORIES[channels, bit_depth]


class TestPsnr:
    def test_closed_form_value(self):
        # 16/255 offset on 8-bit scale: 10*log10(255^2/16^2)
        a = np.zeros((1, 1, 1, 4, 4))
        b = np.full((1, 1, 1, 4, 4), 16.0 / 255.0)
        expected = 10.0 * math.log10(255.0**2 / 16.0**2)
        np.testing.assert_allclose(psnr(a, b), expected, rtol=1e-12)

    def test_identical_inputs_are_infinite(self):
        a = np.full((1, 1, 1, 2, 2), 0.25)
        assert psnr(a, a) == math.inf

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((1, 1, 1, 2, 2)), np.zeros((1, 1, 1, 2, 3)))

    def test_mask_excludes_corruption(self):
        rng = np.random.default_rng(7)
        a = rng.random((1, 2, 2, 4, 4))
        b = a + rng.normal(0, 0.01, a.shape)
        mask = np.ones((2, 2, 4, 4), dtype=bool)
        mask[0, 0] = False
        b_corrupt = b.copy()
        b_corrupt[0, 0, 0] = 0.0  # garbage outside the mask
        clean = psnr_masked(np.clip(a, 0, 1), np.clip(b, 0, 1), mask)
        corrupt = psnr_masked(np.clip(a, 0, 1), np.clip(b_corrupt, 0, 1), mask)
        np.testing.assert_allclose(clean, corrupt, rtol=1e-12)

    def test_empty_mask_rejected(self):
        a = np.zeros((1, 1, 1, 2, 2))
        with pytest.raises(ValueError):
            psnr_masked(a, a, np.zeros((1, 1, 2, 2), dtype=bool))
