"""Light-field container, manifest I/O, angular indexing, PSNR."""

import math

import numpy as np
import pytest

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
        with pytest.raises(ManifestError):
            read_manifest(path)

    def test_garbled_header(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("2 x 1 8\na.pgm\nb.pgm\nc.pgm\nd.pgm\n")
        with pytest.raises(ManifestError):
            read_manifest(path)


class TestLoadSave:
    def test_save_load_roundtrip_8bit(self, tmp_path):
        rng = np.random.default_rng(5)
        lf = LightField(samples=rng.random((1, 2, 2, 4, 4)))
        save_light_field(lf, tmp_path)
        again = load_light_field(read_manifest(tmp_path / "manifest.txt"), tmp_path)
        assert np.max(np.abs(again.samples - lf.samples)) <= 0.5 / 255 + 1e-12

    def test_save_load_roundtrip_16bit_color(self, tmp_path):
        rng = np.random.default_rng(6)
        lf = LightField(samples=rng.random((3, 2, 2, 4, 4)))
        save_light_field(lf, tmp_path, bit_depth=16)
        again = load_light_field(read_manifest(tmp_path / "manifest.txt"), tmp_path)
        assert again.samples.shape == lf.samples.shape
        assert np.max(np.abs(again.samples - lf.samples)) <= 0.5 / 65535 + 1e-12

    def test_views_land_row_major(self, tmp_path):
        # view at manifest line t*S + s must fill samples[:, t, s]
        samples = np.zeros((1, 2, 3, 2, 2))
        for t in range(2):
            for s in range(3):
                samples[0, t, s] = (t * 3 + s) / 255.0
        save_light_field(LightField(samples=samples), tmp_path)
        again = load_light_field(read_manifest(tmp_path / "manifest.txt"), tmp_path)
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
        with pytest.raises(ManifestError):
            load_light_field(manifest, tmp_path)

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
        with pytest.raises(PnmError):
            load_light_field(deep, tmp_path)


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
