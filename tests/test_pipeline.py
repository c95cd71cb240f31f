"""End-to-end codec paths: lossless exactness, progressive decode, training."""

import hashlib
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import centered_depths, random_truth_field
from lflc import bitstream, pipeline
from lflc.bitstream import (
    DEFAULT_QUANT_BITS,
    MAX_FIELD_SAMPLES,
    ContainerHeader,
    check_field_size,
    dequantize,
    packed_header_size,
    quantize,
    read_header,
    truncate_container,
)
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
from lflc.lightfield import LightField, psnr_masked
from lflc.pipeline import (
    collect_training_patches,
    decode_light_field,
    decode_payloads,
    encode_light_field,
    model_layout,
    norm_records,
    train_autoencoder,
    training_images_from_light_field,
    unit_normalize,
)
from lflc.wbi import WbiConfig, decode_levels, encode_scalable


def small_config(levels=(1, 1), layers=2, iterations=20, **kwargs):
    return PipelineConfig(
        solver=SolverConfig(max_iterations=iterations),
        wbi=WbiConfig(components=sum(levels), partition=tuple(levels)),
        dbn=DbnConfig(layer_sizes=(6, 8, 4, 2), patch=4),
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


def oversized_layout_container() -> bytes:
    """185 bytes: a header whose F4 of 166 667 makes its one section hold
    6 tiles x 166 667 = 1 000 002 symbols, over a 64-byte zero stream."""
    header = ContainerHeader(
        angular_dims=(3, 3), spatial_dims=(6, 4), channels=1, depths=(-1, 0, 1),
        partition=(1,), patch=2, layer_sizes=(4, 8, 6, 166_667), quant_bits=8,
        lossless=False, norm_records=np.array([[[0.0, 1.0]]]),
    )
    section = struct.pack("<IBII", 1, 0b10100000, 1_000_002, 64) + bytes(64)
    return bitstream._pack_header(header) + struct.pack(">I", len(section)) + section


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

# fields the reader must refuse before it sizes anything from them: 70 000
# views along one axis, or 3 x 3 views of 4096 x 4096 px (151M samples)
_OVERSIZED_PATCHES = {
    "many_columns": (8, "<I", (70000,)),  # S
    "many_rows": (12, "<I", (70000,)),  # T
    "many_samples": (16, "<2I", (4096, 4096)),  # W, H
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

    @pytest.mark.parametrize("lossless", [True, False], ids=["lossless", "lossy"])
    @pytest.mark.parametrize("patch", list(_OVERSIZED_PATCHES))
    def test_oversized_field_refused_before_allocation(self, containers, lossless, patch):
        container, model = containers[lossless]
        offset, layout, values = _OVERSIZED_PATCHES[patch]
        data = bytearray(container)
        struct.pack_into(layout, data, offset, *values)
        tracemalloc.start()
        tick = time.perf_counter()
        try:
            with pytest.raises(DataError, match="exceeds"):
                decode_light_field(bytes(data), model)
            elapsed = time.perf_counter() - tick
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20

    def test_encoder_refuses_what_the_reader_would(self, monkeypatch):
        solves = []
        monkeypatch.setattr(pipeline, "optimize_layers", lambda *a, **k: solves.append(a))
        wide = LightField(np.zeros((1, 1, 65, 1, 1)))
        with pytest.raises(ValueError, match="views per axis"):
            encode_light_field(wide, None, small_config(), lossless=True)
        assert solves == []
        check_field_size((1, 1), (4096, 4096), 1)  # exactly MAX_FIELD_SAMPLES
        assert 4096 * 4096 == MAX_FIELD_SAMPLES
        with pytest.raises(ValueError, match="samples"):
            check_field_size((1, 1), (4096, 4097), 1)


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

    @pytest.mark.parametrize("lossless", [False, True], ids=["lossy", "lossless"])
    def test_quant_bits_default_to_eight(self, field, lossless):
        lf, _ = field
        model = None if lossless else random_model(np.random.default_rng(86))
        encoded = encode_light_field(lf, model, small_config(), lossless=lossless)
        assert DEFAULT_QUANT_BITS == 8
        assert encoded.header.quant_bits == DEFAULT_QUANT_BITS
        assert read_header(encoded.container).quant_bits == DEFAULT_QUANT_BITS

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
            records = norm_records(sent.basis)
            unit_basis = unit_normalize(sent.basis, records)
            for comp, chan in np.ndindex(*sent.basis.shape[:2]):
                lo, hi = records[comp, chan]
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

    def test_layout_checked_before_entropy_decoding(self, monkeypatch):
        data = oversized_layout_container()
        assert len(data) == 185
        model = random_model(np.random.default_rng(85), input_units=4, sizes=(4, 8, 6, 4))
        tick = time.perf_counter()
        with pytest.raises(DataError, match="model layout"):
            decode_light_field(data, model)
        assert time.perf_counter() - tick < 0.5
        calls = []
        monkeypatch.setattr(bitstream, "entropy_decode", lambda *args: calls.append(args))
        with pytest.raises(DataError, match="model layout"):
            decode_light_field(data, model)
        assert calls == []

    def test_timings_cover_all_stages(self, field):
        lf, _ = field
        model = random_model(np.random.default_rng(80))
        encoded = encode_light_field(lf, model, small_config(), quant_bits=8)
        assert set(encoded.timings) == {"layers", "wbi", "latent", "container"}
        assert all(t >= 0.0 for t in encoded.timings.values())


def assert_same_decode(got, want):
    """Two decodes agree bit for bit: field, mask, layers and levels used."""
    np.testing.assert_array_equal(got.light_field.samples, want.light_field.samples)
    np.testing.assert_array_equal(got.mask, want.mask)
    np.testing.assert_array_equal(got.layers.images, want.layers.images)
    assert got.levels_used == want.levels_used


class TestDecodePayloads:
    """The back half fed the encoder's own payloads equals decoding the bytes."""

    def test_lossy_payloads_decode_like_the_container(self, field):
        lf, _ = field
        model = random_model(np.random.default_rng(86))
        encoded = encode_light_field(lf, model, small_config(), quant_bits=8)
        assert len(encoded.payloads) == 2
        assert_same_decode(
            decode_payloads(encoded.header, encoded.payloads, model),
            decode_light_field(encoded.container, model),
        )
        prefix = decode_payloads(encoded.header, encoded.payloads[:1], model)
        assert prefix.levels_used == 1
        assert_same_decode(
            prefix, decode_light_field(encoded.container, model, max_level=1)
        )

    def test_lossless_payloads_decode_like_the_container(self, field):
        lf, _ = field
        encoded = encode_light_field(lf, None, small_config(), lossless=True)
        # the payloads hold the encoder's level basis itself, not a copy
        for payload, level in zip(encoded.payloads, encoded.wbi_code.levels):
            assert payload.basis_raw is level.basis
        assert_same_decode(
            decode_payloads(encoded.header, encoded.payloads, None),
            decode_light_field(encoded.container),
        )


class TestTrainingPath:
    def test_unit_normalize_maps_records_to_unit_range(self):
        images = np.stack([np.linspace(0.2, 0.6, 16).reshape(4, 4), np.full((4, 4), 0.7)])
        records = np.array([[0.2, 0.6], [0.7, 0.7]])
        unit = unit_normalize(images, records)
        assert unit[0].min() == 0.0 and unit[0].max() == 1.0
        np.testing.assert_allclose(unit[0] * 0.4 + 0.2, images[0], atol=1e-15)
        np.testing.assert_array_equal(unit[1], 0.0)  # flat images map to zero

    def test_norm_records_match_basis_extrema(self):
        rng = np.random.default_rng(36)
        code = encode_scalable(
            rng.random((3, 2, 6, 6)), WbiConfig(components=2, partition=(1, 1))
        )
        for level in code.levels:
            records = norm_records(level.basis)
            assert records.shape == level.basis.shape[:2] + (2,)
            for comp in range(level.basis.shape[0]):
                for chan in range(level.basis.shape[1]):
                    lo, hi = records[comp, chan]
                    assert lo == level.basis[comp, chan].min()
                    assert hi == level.basis[comp, chan].max()

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
            variance_threshold=1e-6,
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
        )
        model = train_autoencoder(patches, config)
        assert model.sizes == (16, 6, 8, 4, 2, 4, 8, 6, 16)
        with pytest.raises(DataError):
            train_autoencoder(rng.random((10, 9)), config)

    def test_default_config_used_when_none(self, field):
        lf, _ = field
        implicit = encode_light_field(lf, None, lossless=True)
        explicit = encode_light_field(lf, None, default_config(), lossless=True)
        assert implicit.container == explicit.container


@pytest.fixture(scope="module")
def criterion_10_containers():
    """Criterion 10's Q10 lossy container (222 B) with its model, and its
    lossless twin (4 234 B)."""
    field, _, _ = random_truth_field(
        np.random.default_rng(10), 2, 1, 16, 16, (3, 3)
    )
    config = small_config(iterations=15)
    model = random_model(np.random.default_rng(11))
    return {
        False: (encode_light_field(field, model, config, quant_bits=10).container, model),
        True: (encode_light_field(field, None, config, lossless=True).container, None),
    }


class TestGoldenContainers:
    # Every byte the encoder writes for criterion 10's field and model; a
    # change to the container format or the encoder's numbers shows here.
    @pytest.mark.parametrize(
        "lossless, size, digest",
        [
            (False, 222, "ca99d88b9e2b0b349d7fb98f3506a3f8cf6a444c7f7500fe9e7c8bc18f57aced"),
            (True, 4234, "007cb51efbc7bff407fdee67c9f73e16774173897bcfe33b5ce5f9563b05bbc1"),
        ],
        ids=["lossy-q10", "lossless"],
    )
    def test_container_bytes(self, criterion_10_containers, lossless, size, digest):
        container, _ = criterion_10_containers[lossless]
        assert len(container) == size
        assert hashlib.sha256(container).hexdigest() == digest


class TestCorruption:
    @pytest.mark.parametrize("lossless", [False, True], ids=["lossy", "lossless"])
    @settings(max_examples=500, deadline=1000)
    @given(data=st.data())
    def test_flip_or_cut_decodes_or_raises_data_error(
        self, criterion_10_containers, lossless, data
    ):
        container, model = criterion_10_containers[lossless]
        if data.draw(st.booleans(), label="flip"):
            bit = data.draw(st.integers(0, 8 * len(container) - 1), label="bit")
            corrupt = bytearray(container)
            corrupt[bit // 8] ^= 1 << (bit % 8)
            corrupt = bytes(corrupt)
        else:
            corrupt = container[: data.draw(st.integers(0, len(container) - 1), label="cut")]
        try:
            decode_light_field(corrupt, model)
        except DataError:
            pass
