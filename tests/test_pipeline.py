"""End-to-end codec paths: lossless exactness, progressive decode, training."""

import struct

import numpy as np
import pytest

from conftest import centered_depths, random_truth_field
from lflc.bitstream import dequantize, packed_header_size, quantize, truncate_container
from lflc.config import PipelineConfig, default_config
from lflc.dbn import (
    Autoencoder,
    DbnConfig,
    decode_patches,
    depatchify,
    encode_patches,
    tile_patches,
)
from lflc.errors import DataError
from lflc.layers import SolverConfig
from lflc.lightfield import psnr_masked
from lflc.pipeline import (
    collect_training_patches,
    decode_light_field,
    encode_light_field,
    model_layout,
    train_autoencoder,
    training_images_from_light_field,
    unit_normalize,
)
from lflc.wbi import WbiConfig, decode_levels


def small_config(levels=(1, 1), layers=2, iterations=20, **kwargs):
    return PipelineConfig(
        solver=SolverConfig(max_iterations=iterations),
        wbi=WbiConfig(components=sum(levels), partition=tuple(levels)),
        dbn=DbnConfig(layer_sizes=(6, 8, 4, 2), patch=4, allow_any_sizes=True),
        depths=centered_depths(layers),
        **kwargs,
    )


def random_model(rng, input_units=16, sizes=(6, 8, 4, 2)):
    dims = (input_units,) + tuple(sizes)
    dims = dims + dims[-2::-1]
    weights = tuple(
        rng.normal(0, 0.3, (dims[i + 1], dims[i])) for i in range(len(dims) - 1)
    )
    biases = tuple(np.zeros(dims[i + 1]) for i in range(len(dims) - 1))
    return Autoencoder(weights=weights, biases=biases)


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(70)
    lf, mask, _ = random_truth_field(
        rng, layer_count=2, height=16, width=16, views=(3, 3)
    )
    return lf, mask


class TestModelLayout:
    def test_reads_patch_and_encoder_sizes(self):
        model = random_model(np.random.default_rng(71))
        assert model_layout(model) == (4, (6, 8, 4, 2))

    def test_non_square_input_rejected(self):
        model = random_model(np.random.default_rng(72), input_units=12)
        with pytest.raises(DataError):
            model_layout(model)


class TestLossless:
    def test_roundtrip_recovers_factorization_exactly(self, field):
        lf, _ = field
        config = small_config()
        encoded = encode_light_field(lf, None, config, lossless=True)
        decoded = decode_light_field(encoded.container)
        assert decoded.levels_used == 2
        # the container stores the factorization exactly, so the decoded
        # stack is the encoder's own WBI reconstruction bit for bit
        expected = np.clip(
            decode_levels(encoded.wbi_code, 2), 0.0, encoded.header.layer_bound
        )
        np.testing.assert_array_equal(decoded.layers.images, expected)
        quality = psnr_masked(lf.samples, decoded.light_field.samples, decoded.mask)
        assert quality > 10.0  # factorization is approximate, render is sane

    def test_lossless_needs_no_model(self, field):
        lf, _ = field
        encoded = encode_light_field(lf, None, small_config(), lossless=True)
        assert encoded.header.lossless
        decode_light_field(encoded.container, model=None)

    def test_non_finite_record_is_data_error(self, field):
        lf, _ = field
        encoded = encode_light_field(lf, None, small_config(), lossless=True)
        data = bytearray(encoded.container)
        header_end = packed_header_size(encoded.header)
        struct.pack_into("<d", data, header_end - 8, float("nan"))  # last record's max
        with pytest.raises(DataError, match="normalization record"):
            decode_light_field(bytes(data), model=None)

    def test_container_is_deterministic(self, field):
        lf, _ = field
        config = small_config()
        a = encode_light_field(lf, None, config, lossless=True)
        b = encode_light_field(lf, None, config, lossless=True)
        assert a.container == b.container


# header offsets: magic and version/flags take 8 bytes, then S, T, W, H,
# channels, the layer count and the K depths as 4-byte little-endian fields
_HEADER_PATCHES = {
    "repeated_depth": (32, "<3i", (0, 0, 1)),
    "decreasing_depths": (32, "<3i", (1, 0, -1)),
    "no_columns": (8, "<I", (0,)),  # S = 0
    "no_rows": (12, "<I", (0,)),  # T = 0
}


class TestHeaderGeometry:
    @pytest.fixture(scope="class")
    def containers(self, field):
        lf, _ = field
        config = small_config(layers=3)
        model = random_model(np.random.default_rng(84))
        return {
            True: (encode_light_field(lf, None, config, lossless=True).container, None),
            False: (encode_light_field(lf, model, config, quant_bits=8).container, model),
        }

    @pytest.mark.parametrize("lossless", [True, False], ids=["lossless", "lossy"])
    @pytest.mark.parametrize("patch", list(_HEADER_PATCHES))
    def test_bad_geometry_is_data_error(self, containers, lossless, patch):
        container, model = containers[lossless]
        offset, layout, values = _HEADER_PATCHES[patch]
        data = bytearray(container)
        assert struct.unpack_from("<I", data, 28) == (3,)  # three layer depths
        struct.pack_into(layout, data, offset, *values)
        with pytest.raises(DataError):
            decode_light_field(bytes(data), model)


class TestLossy:
    def test_roundtrip_and_levels(self, field):
        lf, _ = field
        rng = np.random.default_rng(73)
        model = random_model(rng)
        config = small_config()
        encoded = encode_light_field(lf, model, config, quant_bits=10)
        assert encoded.header.quant_bits == 10
        decoded = decode_light_field(encoded.container, model)
        assert decoded.levels_used == 2
        assert decoded.light_field.samples.shape == lf.samples.shape
        assert decoded.light_field.samples.min() >= 0.0
        assert decoded.light_field.samples.max() <= 1.0

    def test_progressive_prefix_decodes(self, field):
        lf, _ = field
        model = random_model(np.random.default_rng(74))
        encoded = encode_light_field(lf, model, small_config(), quant_bits=8)
        short = truncate_container(encoded.container, 1)
        decoded = decode_light_field(short, model)
        assert decoded.levels_used == 1
        limited = decode_light_field(encoded.container, model, max_level=1)
        np.testing.assert_array_equal(
            decoded.light_field.samples, limited.light_field.samples
        )

    def test_layer_images_respect_bound(self, field):
        lf, _ = field
        model = random_model(np.random.default_rng(75))
        encoded = encode_light_field(lf, model, small_config(), quant_bits=8)
        decoded = decode_light_field(encoded.container, model)
        bound = decoded.header.layer_bound
        assert decoded.layers.images.min() >= 0.0
        assert decoded.layers.images.max() <= bound + 1e-12

    @pytest.mark.parametrize("bits", [0, 1, 17])
    def test_out_of_range_bits_rejected(self, field, bits):
        lf, _ = field
        model = random_model(np.random.default_rng(76))
        with pytest.raises(ValueError, match="quantizer bits"):
            encode_light_field(lf, model, small_config(), quant_bits=bits)
        with pytest.raises(ValueError, match="quantizer bits"):
            encode_light_field(lf, None, small_config(), quant_bits=bits, lossless=True)

    def test_level_latents_match_coding_each_image_alone(self, field):
        lf, _ = field
        model = random_model(np.random.default_rng(83))
        config = small_config(levels=(2, 1))
        encoded = encode_light_field(lf, model, config, quant_bits=12)
        decoded = decode_light_field(encoded.container, model)
        for sent, got in zip(encoded.wbi_code.levels, decoded.wbi_code.levels):
            unit_basis = unit_normalize(sent.basis, sent.norm_records)
            for comp, chan in np.ndindex(*sent.basis.shape[:2]):
                lo, hi = sent.norm_records[comp, chan]
                tiles = tile_patches(unit_basis[comp, chan], 4)
                symbols = quantize(encode_patches(model, tiles), 12)
                latent = dequantize(symbols, 12)
                unit = depatchify(decode_patches(model, latent), 4, unit_basis.shape[2:])
                np.testing.assert_allclose(
                    got.basis[comp, chan], unit * (hi - lo) + lo, rtol=0, atol=1e-12
                )

    def test_lossy_requires_model_both_ways(self, field):
        lf, _ = field
        with pytest.raises(DataError):
            encode_light_field(lf, None, small_config(), quant_bits=8)
        model = random_model(np.random.default_rng(77))
        encoded = encode_light_field(lf, model, small_config(), quant_bits=8)
        with pytest.raises(DataError):
            decode_light_field(encoded.container, model=None)

    def test_model_layout_mismatch_rejected(self, field):
        lf, _ = field
        model = random_model(np.random.default_rng(78))
        other = random_model(np.random.default_rng(79), sizes=(6, 8, 4, 3))
        encoded = encode_light_field(lf, model, small_config(), quant_bits=8)
        with pytest.raises(DataError):
            decode_light_field(encoded.container, other)

    def test_timings_cover_all_stages(self, field):
        lf, _ = field
        model = random_model(np.random.default_rng(80))
        encoded = encode_light_field(lf, model, small_config(), quant_bits=8)
        assert set(encoded.timings) == {"layers", "wbi", "latent", "container"}
        assert all(t >= 0.0 for t in encoded.timings.values())
        assert encoded.bits_per_pixel > 0.0


class TestTrainingPath:
    def test_unit_normalize_maps_records_to_unit_range(self):
        images = np.stack([np.linspace(0.2, 0.6, 16).reshape(4, 4), np.full((4, 4), 0.7)])
        records = np.array([[0.2, 0.6], [0.7, 0.7]])
        unit = unit_normalize(images, records)
        assert unit[0].min() == 0.0 and unit[0].max() == 1.0
        np.testing.assert_allclose(unit[0] * 0.4 + 0.2, images[0], atol=1e-15)
        np.testing.assert_array_equal(unit[1], 0.0)  # flat images map to zero

    def test_basis_images_are_unit_range(self, field):
        lf, _ = field
        images = training_images_from_light_field(lf, small_config(iterations=10))
        assert len(images) == 2  # one per component, single channel
        for image in images:
            assert image.shape == (16, 16)
            assert image.min() >= 0.0 and image.max() <= 1.0

    def test_collect_patches_filters_variance(self):
        flat = np.full((16, 16), 0.5)
        textured = np.random.default_rng(81).random((16, 16))
        config = DbnConfig(
            layer_sizes=(6, 8, 4, 2), patch=4, stride=4,
            variance_threshold=1e-6, allow_any_sizes=True,
        )
        patches = collect_training_patches([flat, textured], config)
        assert patches.shape == (16, 16)  # only the textured image survives
        with pytest.raises(DataError):
            collect_training_patches([flat], config)

    def test_train_autoencoder_learns_something(self):
        rng = np.random.default_rng(82)
        patches = rng.random((60, 16))
        config = DbnConfig(
            layer_sizes=(6, 8, 4, 2), patch=4, epochs=3, batch_size=20,
            allow_any_sizes=True,
        )
        model = train_autoencoder(patches, config)
        assert model.sizes == (16, 6, 8, 4, 2, 4, 8, 6, 16)
        with pytest.raises(DataError):
            train_autoencoder(rng.random((10, 9)), config)

    def test_default_config_used_when_none(self, field):
        lf, _ = field
        assert default_config().lossless is False
