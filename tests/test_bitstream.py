"""Quantizer, arithmetic coder, container format."""

import dataclasses
import hashlib
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lflc import bitstream
from lflc.bitstream import (
    ContainerHeader,
    DecodedContainer,
    LevelPayload,
    bits_per_pixel,
    dequantize,
    entropy_decode,
    entropy_encode,
    packed_header_size,
    quantize,
    read_container,
    read_header,
    section_boundaries,
    truncate_container,
    write_container,
)
from lflc.errors import (
    ContainerError,
    DataError,
    TruncatedSectionError,
    TruncatedStreamError,
)
from lflc.pipeline import decode_light_field


def make_header(levels=(2, 2), channels=1, lossless=False, quant_bits=8,
                spatial=(6, 4), layers=3):
    total = sum(levels)
    records = np.zeros((total, channels, 2))
    records[:, :, 1] = 1.0
    return ContainerHeader(
        angular_dims=(3, 3),
        spatial_dims=spatial,
        channels=channels,
        depths=tuple(range(-(layers // 2), layers - layers // 2)),
        partition=tuple(levels),
        patch=2,
        layer_sizes=(4, 6, 3, 2),
        quant_bits=quant_bits,
        lossless=lossless,
        norm_records=records,
    )


def section_symbols(header, n):
    """Latent symbols of n basis images: one F4-wide code per patch tile."""
    W, H = header.spatial_dims
    tiles = -(-H // header.patch) * -(-W // header.patch)
    return n * header.channels * tiles * header.layer_sizes[-1]


def make_payloads(header, rng):
    payloads = []
    W, H = header.spatial_dims
    for n in header.partition:
        codes = (rng.random((n, header.layer_count)) < 0.5).astype(np.uint8)
        if header.lossless:
            basis = rng.random((n, header.channels, H, W))
            payloads.append(LevelPayload(codes=codes, basis_raw=basis))
        else:
            symbols = rng.integers(
                0, 1 << header.quant_bits, size=section_symbols(header, n),
                dtype=np.uint32,
            )
            payloads.append(LevelPayload(codes=codes, symbols=symbols))
    return payloads


class TestQuantizer:
    def test_closed_form_symbols(self):
        out = quantize([0.0, 1 / 3, 0.5, 1.0], 2)
        np.testing.assert_array_equal(out, [0, 1, 2, 3])

    def test_rounding_is_nearest(self):
        # with 3 levels (2 bits would be 4), use 2 bits: scale 3
        assert quantize([0.49999 / 3], 2)[0] == 0
        assert quantize([0.50001 / 3], 2)[0] == 1

    def test_roundtrip_error_bound(self):
        rng = np.random.default_rng(40)
        values = rng.random(500)
        for bits in (2, 5, 8, 12, 16):
            back = dequantize(quantize(values, bits), bits)
            assert np.max(np.abs(back - values)) <= 0.5 / ((1 << bits) - 1) + 1e-12

    def test_monotone(self):
        values = np.linspace(0, 1, 1000)
        symbols = quantize(values, 6)
        assert np.all(np.diff(symbols.astype(int)) >= 0)

    def test_bit_range_enforced(self):
        with pytest.raises(ValueError):
            quantize([0.5], 1)
        with pytest.raises(ValueError):
            quantize([0.5], 17)
        with pytest.raises(ValueError):
            dequantize([0], 1)
        quantize([0.5], 2)
        quantize([0.5], 16)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            quantize([-0.01], 8)
        with pytest.raises(ValueError):
            quantize([1.01], 8)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                quantize([0.5, bad], 8)
        with pytest.raises(ValueError):
            dequantize([256], 8)


class TestEntropyCodec:
    def test_roundtrips(self):
        rng = np.random.default_rng(41)
        for bits in (2, 3, 8, 12, 16):
            for count in (1, 2, 37, 1000):
                symbols = rng.integers(0, 1 << bits, size=count, dtype=np.uint32)
                data = entropy_encode(symbols, bits)
                back = entropy_decode(data, count, bits)
                np.testing.assert_array_equal(back, symbols)

    def test_empty_roundtrip(self):
        data = entropy_encode(np.empty(0, dtype=np.uint32), 8)
        assert entropy_decode(data, 0, 8).size == 0

    def test_constant_stream_compresses_hard(self):
        data = entropy_encode(np.zeros(10_000, dtype=np.uint32), 8)
        assert len(data) < 200

    def test_skew_beats_uniform(self):
        rng = np.random.default_rng(42)
        uniform = rng.integers(0, 256, size=5000, dtype=np.uint32)
        skewed = rng.choice(
            np.arange(256, dtype=np.uint32), size=5000,
            p=np.array([0.9] + [0.1 / 255] * 255),
        )
        assert len(entropy_encode(skewed, 8)) < 0.5 * len(entropy_encode(uniform, 8))

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        symbols = rng.integers(0, 64, size=400, dtype=np.uint32)
        assert entropy_encode(symbols, 6) == entropy_encode(symbols, 6)

    # Every container ever written depends on these exact bytes.
    @pytest.mark.parametrize(
        "symbols, bits, digest",
        [
            # 70 000 decisions per plane: both planes pass the 65 536-count rescale
            (
                np.minimum(np.random.default_rng(2026).geometric(0.7, 70_000) - 1, 3),
                2,
                "5f4de84a5c5bcaa8025ef785e238da26bc7b9a1774892d4eeb69fd4244f577c8",
            ),
            (
                np.random.default_rng(14).integers(0, 1 << 14, 5_000),
                14,
                "836f37d33de4170a0f6508d786cc18603373d0e0b0915b030c966c788f0f58c9",
            ),
            (
                np.zeros(10_000, dtype=np.uint32),
                8,
                "39aacdb7c5b0f8f7c76abbcef6c950b7dd009512fdddf0e21e79d3de57b952c9",
            ),
            # the widest planes the quantizer allows
            (
                np.random.default_rng(16).integers(0, 1 << 16, 3_000),
                16,
                "5859d8ecde820c900be021df054977d88d920f795923bced26a14e30cf8b033f",
            ),
        ],
        ids=["skewed-2bit-rescaled", "uniform-14bit", "zeros-8bit", "uniform-16bit"],
    )
    def test_golden_streams(self, symbols, bits, digest):
        data = entropy_encode(symbols, bits)
        assert hashlib.sha256(data).hexdigest() == digest
        np.testing.assert_array_equal(entropy_decode(data, symbols.size, bits), symbols)

    def test_state_fits_exact_float_integers(self):
        # the coder keeps low, high and code in floats: the widest product,
        # zeros * (high - low + 1), must stay an integer below 2**53
        assert (bitstream._RESCALE_TOTAL - 1) * 2**bitstream._STATE_BITS < 2**53

    def test_corrupt_stream_outcomes_golden(self):
        """What the decoder makes of seeded valid, truncated, extended,
        bit-flipped and random streams: the decoded symbols, or the error
        class and message. Pinned so a coder rewrite cannot change them."""
        rng = np.random.default_rng(49)
        cases = []
        for _ in range(40):
            bits, count = int(rng.integers(2, 17)), int(rng.integers(0, 120))
            data = entropy_encode(rng.integers(0, 1 << bits, count), bits)
            cases.append((data, count, bits))
            cases += [(data[:cut], count, bits) for cut in rng.integers(0, len(data), 4)]
            tail = bytes(rng.integers(0, 256, 3).astype(np.uint8))
            cases += [(data + tail[:k], count, bits) for k in (1, 3)]
            for at in rng.integers(0, 8 * len(data), 6):
                flipped = bytearray(data)
                flipped[at // 8] ^= 0x80 >> (at % 8)
                cases.append((bytes(flipped), count, bits))
            cases.append((data, count + 1, bits))
        for _ in range(150):
            data = bytes(rng.integers(0, 256, int(rng.integers(0, 48))).astype(np.uint8))
            cases.append((data, int(rng.integers(0, 300)), int(rng.integers(2, 17))))
        digest = hashlib.sha256()
        for data, count, bits in cases:
            try:
                outcome = entropy_decode(data, count, bits).astype("<u4").tobytes()
            except DataError as exc:
                outcome = f"{type(exc).__name__}: {exc}".encode()
            digest.update(b"%d:" % len(outcome) + outcome)
        assert len(cases) == 710
        assert digest.hexdigest() == (
            "bf19e3cca92d724e3d79437cffaf444acae779a51e9f2a10533358c2bfe7e5d6"
        )

    def test_truncated_stream_raises(self):
        rng = np.random.default_rng(44)
        symbols = rng.integers(0, 256, size=1000, dtype=np.uint32)
        data = entropy_encode(symbols, 8)
        with pytest.raises(TruncatedStreamError):
            entropy_decode(data[: len(data) // 2], 1000, 8)

    @pytest.mark.parametrize(
        "symbols, bits",
        [
            (np.random.default_rng(46).integers(0, 256, 150), 8),
            (np.minimum(np.random.default_rng(47).geometric(0.6, 300) - 1, 15), 4),
            (np.full(381, 1234), 12),
        ],
        ids=["uniform-8bit", "geometric-4bit", "constant-12bit"],
    )
    def test_stream_must_be_exactly_the_encoders(self, symbols, bits):
        data = entropy_encode(symbols, bits)
        # a zero byte reads like the decoder's own zero tail, so the symbols
        # decode unchanged and only the length gives the extra byte away
        with pytest.raises(ContainerError, match="holds"):
            entropy_decode(data + b"\x00", symbols.size, bits)
        for cut in range(len(data)):
            with pytest.raises(DataError):
                entropy_decode(data[:cut], symbols.size, bits)

    def test_anything_decoded_is_what_the_encoder_writes(self):
        """Truncated, extended or random bytes either raise DataError or are
        exactly the stream entropy_encode writes for the decoded symbols."""
        rng = np.random.default_rng(48)
        cases = []
        for _ in range(20):
            bits, count = int(rng.integers(2, 17)), int(rng.integers(1, 120))
            data = entropy_encode(rng.integers(0, 1 << bits, count), bits)
            cases += [(data[:cut], count, bits) for cut in range(len(data))]
            tail = bytes(rng.integers(0, 256, 3).astype(np.uint8))
            cases += [(data + tail[:k], count, bits) for k in (1, 2, 3)]
        for _ in range(300):
            data = bytes(rng.integers(0, 256, int(rng.integers(0, 64))).astype(np.uint8))
            cases.append((data, int(rng.integers(1, 400)), int(rng.integers(2, 17))))
        for data, count, bits in cases:
            try:
                symbols = entropy_decode(data, count, bits)
            except DataError:
                continue
            assert entropy_encode(symbols, bits) == data

    def test_empty_stream_is_one_flush_byte(self):
        assert entropy_encode(np.empty(0, dtype=np.uint32), 8) == b"\x80"
        with pytest.raises(TruncatedStreamError):
            entropy_decode(b"", 0, 8)
        for data in (b"\x00", b"\x81", b"\xc0", b"\x80\x00"):
            with pytest.raises(ContainerError):
                entropy_decode(data, 0, 8)

    def test_symbol_validation(self):
        with pytest.raises(ValueError):
            entropy_encode(np.array([256], dtype=np.int64), 8)
        with pytest.raises(ValueError):
            entropy_encode(np.array([-1], dtype=np.int64), 8)
        with pytest.raises(ValueError):
            entropy_decode(b"", -1, 8)


class TestContainer:
    def test_lossy_roundtrip(self):
        rng = np.random.default_rng(45)
        header = make_header()
        payloads = make_payloads(header, rng)
        data = write_container(header, payloads)
        decoded = read_container(data)
        assert isinstance(decoded, DecodedContainer)
        assert len(decoded.payloads) == 2
        got = decoded.header
        assert got.angular_dims == header.angular_dims
        assert got.spatial_dims == header.spatial_dims
        assert got.channels == header.channels
        assert got.depths == header.depths
        assert got.layer_bound == header.layer_bound
        assert got.partition == header.partition
        assert got.patch == header.patch
        assert got.layer_sizes == header.layer_sizes
        assert got.quant_bits == header.quant_bits
        assert got.lossless == header.lossless
        np.testing.assert_array_equal(got.norm_records, header.norm_records)
        for sent, back in zip(payloads, decoded.payloads):
            np.testing.assert_array_equal(sent.codes, back.codes)
            np.testing.assert_array_equal(sent.symbols, back.symbols)
            assert back.basis_raw is None

    def test_lossless_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(46)
        header = make_header(levels=(1, 2, 1), channels=3, lossless=True)
        payloads = make_payloads(header, rng)
        data = write_container(header, payloads)
        decoded = read_container(data)
        for sent, back in zip(payloads, decoded.payloads):
            np.testing.assert_array_equal(sent.codes, back.codes)
            assert np.array_equal(sent.basis_raw, back.basis_raw)
            assert back.symbols is None

    def test_max_level_limits_parsing(self):
        rng = np.random.default_rng(47)
        header = make_header(levels=(2, 1, 1))
        data = write_container(header, make_payloads(header, rng))
        decoded = read_container(data, max_level=1)
        assert len(decoded.payloads) == 1
        with pytest.raises(ValueError):
            read_container(data, max_level=0)
        with pytest.raises(ValueError):
            read_container(data, max_level=4)

    def test_boundary_truncation_is_a_valid_container(self):
        rng = np.random.default_rng(48)
        header = make_header(levels=(2, 2))
        payloads = make_payloads(header, rng)
        data = write_container(header, payloads)
        short = truncate_container(data, 1)
        assert len(short) < len(data)
        decoded = read_container(short)
        assert len(decoded.payloads) == 1
        np.testing.assert_array_equal(decoded.payloads[0].codes, payloads[0].codes)
        np.testing.assert_array_equal(decoded.payloads[0].symbols, payloads[0].symbols)

    def test_mid_section_truncation_reports_last_level(self):
        rng = np.random.default_rng(49)
        header = make_header(levels=(2, 2))
        data = write_container(header, make_payloads(header, rng))
        first_end = section_boundaries(data)[0]
        with pytest.raises(TruncatedSectionError) as info:
            read_container(data[: first_end + 3])
        assert info.value.last_complete_level == 1

    def test_header_only_has_no_sections(self):
        rng = np.random.default_rng(50)
        header = make_header()
        data = write_container(header, make_payloads(header, rng))
        with pytest.raises(TruncatedSectionError) as info:
            read_container(data[: packed_header_size(header)])
        assert info.value.last_complete_level == 0

    def test_truncation_inside_header(self):
        rng = np.random.default_rng(51)
        header = make_header()
        data = write_container(header, make_payloads(header, rng))
        with pytest.raises(ContainerError):
            read_container(data[:10])

    def test_bad_magic(self):
        with pytest.raises(ContainerError):
            read_container(b"XXXX" + b"\x00" * 100)

    def test_unknown_version(self):
        rng = np.random.default_rng(52)
        header = make_header()
        data = bytearray(write_container(header, make_payloads(header, rng)))
        data[4] = 0xFF
        with pytest.raises(ContainerError):
            read_container(bytes(data))

    @pytest.mark.parametrize("lossless", [False, True], ids=["lossy", "lossless"])
    @pytest.mark.parametrize("channels", [0, 2])
    def test_channel_count_other_than_one_or_three_rejected(self, lossless, channels):
        rng = np.random.default_rng(58)
        header = make_header(levels=(1, 2), lossless=lossless)
        data = bytearray(write_container(header, make_payloads(header, rng)))
        offset = struct.calcsize("<4sHH4I")
        assert struct.unpack_from("<I", data, offset) == (1,)
        struct.pack_into("<I", data, offset, channels)
        data = bytes(data)
        for read in (read_header, read_container, decode_light_field):
            with pytest.raises(ContainerError, match="channel count"):
                read(data)

    def test_layer_bound_other_than_one_over_k_rejected(self):
        rng = np.random.default_rng(53)
        header = make_header(lossless=True, layers=2)
        data = write_container(header, make_payloads(header, rng))
        offset = struct.calcsize("<4sHH5II") + 4 * header.layer_count
        assert struct.unpack_from("<d", data, offset) == (0.5,)
        for bound in (0.9, float("nan")):
            patched = bytearray(data)
            struct.pack_into("<d", patched, offset, bound)
            with pytest.raises(ContainerError, match="layer bound"):
                read_container(bytes(patched))

    @pytest.mark.parametrize("lossless", [False, True])
    @pytest.mark.parametrize(
        "record",
        [(0.0, float("nan")), (float("inf"), float("inf")),
         (-float("inf"), 0.5), (0.75, 0.25)],
        ids=["nan", "inf", "-inf", "min-above-max"],
    )
    def test_bad_normalization_record_rejected(self, lossless, record):
        rng = np.random.default_rng(56)
        header = make_header(levels=(1, 2), lossless=lossless)
        data = bytearray(write_container(header, make_payloads(header, rng)))
        records = packed_header_size(header) - header.norm_records.nbytes
        struct.pack_into("<2d", data, records + 16, *record)  # second record
        with pytest.raises(ContainerError, match="normalization record"):
            read_container(bytes(data))

    @pytest.mark.parametrize("sample", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_raw_basis_rejected(self, sample):
        rng = np.random.default_rng(57)
        header = make_header(levels=(1, 2), lossless=True)
        data = bytearray(write_container(header, make_payloads(header, rng)))
        # section 1: length, component count, one byte of codes, raw samples
        raw = packed_header_size(header) + 4 + 4 + 1
        struct.pack_into("<d", data, raw + 8 * 5, sample)
        with pytest.raises(ContainerError, match="non-finite") as info:
            read_container(bytes(data))
        assert not isinstance(info.value, TruncatedSectionError)

    @pytest.mark.parametrize("lossless", [False, True])
    def test_wrong_component_count_in_complete_section(self, lossless):
        rng = np.random.default_rng(59)
        header = make_header(levels=(1, 2), lossless=lossless)
        data = bytearray(write_container(header, make_payloads(header, rng)))
        struct.pack_into("<I", data, packed_header_size(header) + 4, 7)
        with pytest.raises(ContainerError, match="declares 7 components") as info:
            read_container(bytes(data))
        assert not isinstance(info.value, TruncatedSectionError)

    def test_inflated_symbol_count_is_data_error(self):
        rng = np.random.default_rng(58)
        header = make_header()
        data = bytearray(write_container(header, make_payloads(header, rng)))
        # section 1: length, component count, packed codes, then symbol count
        packed_codes = (header.partition[0] * header.layer_count + 7) // 8
        offset = packed_header_size(header) + 4 + 4 + packed_codes
        assert struct.unpack_from("<I", data, offset) == (
            section_symbols(header, header.partition[0]),
        )
        struct.pack_into("<I", data, offset, 0xFFFFFFFF)
        t0 = time.perf_counter()
        with pytest.raises(DataError) as info:
            read_container(bytes(data))
        assert time.perf_counter() - t0 < 1.0
        assert not isinstance(info.value, TruncatedSectionError)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_symbol_count_checked_before_decoding(self, delta, monkeypatch):
        rng = np.random.default_rng(64)
        header = make_header(levels=(1, 2), channels=3, spatial=(5, 3))
        data = bytearray(write_container(header, make_payloads(header, rng)))
        # 1 image x 3 channels x 2x3 tiles of 3x5 px at patch 2 x F4 = 2
        offset = packed_header_size(header) + 4 + 4 + 1
        assert struct.unpack_from("<I", data, offset) == (36,)
        struct.pack_into("<I", data, offset, 36 + delta)
        calls = []
        monkeypatch.setattr(bitstream, "entropy_decode",
                            lambda *args: calls.append(args))
        with pytest.raises(ContainerError, match="declares %d symbols" % (36 + delta)):
            read_container(bytes(data))
        assert calls == []

    def test_writer_refuses_symbols_the_reader_would(self):
        rng = np.random.default_rng(65)
        header = make_header(levels=(2,))
        (payload,) = make_payloads(header, rng)
        for symbols in (payload.symbols[:-1], np.append(payload.symbols, 0)):
            with pytest.raises(ValueError, match="symbols must number 24"):
                write_container(header, [LevelPayload(codes=payload.codes,
                                                      symbols=symbols)])

    @pytest.mark.parametrize("patch, sizes", [(0, (4, 6, 3, 2)), (2, ())])
    def test_lossy_layout_without_tiles_rejected(self, patch, sizes):
        header = make_header(levels=(1,))
        data = write_container(header, make_payloads(header, np.random.default_rng(66)))
        offset = struct.calcsize("<4sHH5II") + 4 * header.layer_count + 8 + 4 + 4
        assert struct.unpack_from("<II", data, offset) == (2, 4)
        patched = (data[:offset] + struct.pack("<II", patch, len(sizes))
                   + struct.pack(f"<{len(sizes)}I", *sizes) + data[offset + 24 :])
        with pytest.raises(ContainerError, match="lossy layout"):
            read_container(patched)

    def test_extra_stream_byte_in_complete_section(self):
        rng = np.random.default_rng(60)
        header = make_header()
        data = bytearray(write_container(header, make_payloads(header, rng)))
        # section 1: length, component count, packed codes, symbol count,
        # stream length, stream; grow the stream by one byte and both lengths
        start = packed_header_size(header)
        packed_codes = (header.partition[0] * header.layer_count + 7) // 8
        length_at = start + 4 + 4 + packed_codes + 4
        (section_len,) = struct.unpack_from(">I", data, start)
        (stream_len,) = struct.unpack_from("<I", data, length_at)
        struct.pack_into(">I", data, start, section_len + 1)
        struct.pack_into("<I", data, length_at, stream_len + 1)
        data[length_at + 4 + stream_len : length_at + 4 + stream_len] = b"\x00"
        with pytest.raises(DataError) as info:
            read_container(bytes(data))
        assert isinstance(info.value, ContainerError)
        assert not isinstance(info.value, TruncatedSectionError)

    def test_section_boundaries_and_trailing_bytes(self):
        rng = np.random.default_rng(53)
        header = make_header(levels=(1, 1, 2))
        data = write_container(header, make_payloads(header, rng))
        boundaries = section_boundaries(data)
        assert len(boundaries) == 3
        assert boundaries == sorted(boundaries)
        assert boundaries[-1] == len(data)
        with pytest.raises(ContainerError):
            section_boundaries(data + b"\x00")

    def test_truncate_levels_range(self):
        rng = np.random.default_rng(54)
        header = make_header(levels=(1, 1))
        data = write_container(header, make_payloads(header, rng))
        with pytest.raises(ValueError):
            truncate_container(data, 0)
        with pytest.raises(ValueError):
            truncate_container(data, 3)
        assert truncate_container(data, 2) == data

    def test_trailing_bytes_after_last_section_rejected(self):
        rng = np.random.default_rng(61)
        header = make_header(levels=(1, 1, 1), lossless=True, spatial=(16, 16))
        data = write_container(header, make_payloads(header, rng))
        with pytest.raises(ContainerError, match="trailing") as info:
            read_container(data + b"junk")
        assert not isinstance(info.value, TruncatedSectionError)
        assert len(read_container(data + b"junk", max_level=2).payloads) == 2

    def test_boundary_prefix_is_walked_like_a_container(self):
        rng = np.random.default_rng(62)
        header = make_header(levels=(1, 1, 1), lossless=True, spatial=(16, 16))
        data = write_container(header, make_payloads(header, rng))
        two = truncate_container(data, 2)
        assert len(read_container(two).payloads) == 2
        assert section_boundaries(two) == section_boundaries(data)[:2]
        assert truncate_container(two, 1) == truncate_container(data, 1)
        with pytest.raises(ValueError):
            truncate_container(two, 3)

    def test_cut_stream_falls_back_to_last_complete_level(self):
        rng = np.random.default_rng(63)
        header = make_header(levels=(1, 1, 1), lossless=True, spatial=(16, 16))
        data = write_container(header, make_payloads(header, rng))
        cut = data[: section_boundaries(data)[1] + 10]
        with pytest.raises(TruncatedSectionError) as info:
            read_container(cut)
        level = info.value.last_complete_level
        assert level == 2
        assert truncate_container(cut, level) == truncate_container(data, 2)
        assert len(read_container(cut, max_level=level).payloads) == 2

    @settings(max_examples=40, deadline=None)
    @given(
        levels=st.lists(st.integers(1, 3), min_size=1, max_size=4),
        channels=st.sampled_from([1, 3]),
        lossless=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        suffix=st.binary(min_size=1, max_size=6),
    )
    def test_one_rule_splits_every_prefix(self, levels, channels, lossless, seed,
                                          suffix):
        header = make_header(levels=levels, channels=channels, lossless=lossless,
                             spatial=(3, 2))
        data = write_container(header, make_payloads(header, np.random.default_rng(seed)))
        start = packed_header_size(header)
        ends = []  # each section is a big-endian length and that many bytes
        for _ in levels:
            ends.append(ends[-1] if ends else start)
            ends[-1] += 4 + int.from_bytes(data[ends[-1] : ends[-1] + 4], "big")
        assert ends[-1] == len(data)
        for k, end in enumerate(ends, start=1):
            prefix = data[:end]
            assert len(read_container(prefix).payloads) == k
            assert section_boundaries(prefix) == ends[:k]
            assert truncate_container(data, k) == prefix
        for cut in range(start + 1, len(data)):
            if cut in ends:
                continue
            complete = sum(end < cut for end in ends)
            with pytest.raises(TruncatedSectionError) as info:
                read_container(data[:cut])
            assert info.value.last_complete_level == complete
            if complete:
                assert truncate_container(data[:cut], complete) == data[: ends[complete - 1]]
        for reader in (read_container, section_boundaries):
            with pytest.raises(ContainerError) as info:
                reader(data + suffix)
            assert not isinstance(info.value, TruncatedSectionError)
        if len(levels) > 1:
            assert len(read_container(data + suffix, max_level=1).payloads) == 1

    def test_payload_count_must_match_partition(self):
        rng = np.random.default_rng(55)
        header = make_header(levels=(2, 2))
        payloads = make_payloads(header, rng)
        with pytest.raises(ValueError):
            write_container(header, payloads[:1])

    def test_lossless_payload_needs_basis(self):
        header = make_header(levels=(1,), lossless=True)
        codes = np.ones((1, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            write_container(header, [LevelPayload(codes=codes, symbols=np.zeros(4, np.uint32))])

    @pytest.mark.parametrize(
        "fields",
        [
            {"channels": 2, "norm_records": np.tile([0.0, 1.0], (4, 2, 1))},
            {"depths": (1, 0, -1)},
            {"quant_bits": 1},
            {"norm_records": np.array([[[0.0, np.nan]]] * 4)},
            {"norm_records": np.array([[[0.75, 0.25]]] * 4)},
            {"spatial_dims": (0, 4)},
            {"patch": 0},
            {"layer_sizes": ()},
        ],
        ids=["2-channels", "decreasing-depths", "1-bit", "nan-record",
             "inverted-record", "0x4-px", "lossy-patch-0", "no-layer-sizes"],
    )
    def test_header_the_reader_refuses_cannot_be_built(self, fields):
        with pytest.raises(ValueError):
            dataclasses.replace(make_header(), **fields)

    def test_payload_the_reader_refuses_cannot_be_built(self):
        header = make_header(levels=(1,), lossless=True)
        (payload,) = make_payloads(header, np.random.default_rng(67))
        basis = payload.basis_raw.copy()
        basis[0, 0, 1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            LevelPayload(codes=payload.codes, basis_raw=basis)
        for codes in (np.array([[1, 2, 0]]), np.array([1, 0, 1]), np.array([[0.5, 1, 0]])):
            with pytest.raises(ValueError, match="0s and 1s"):
                LevelPayload(codes=codes, symbols=np.zeros(24, np.uint32))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_header_is_refused_or_reads_back_unchanged(self, data):
        """Header fields drawn valid, or invalid for the fields in `broken`:
        a broken header cannot be built (ValueError), and the container
        written from any other reads back as the same header."""
        broken = data.draw(st.sets(st.sampled_from(
            ["views", "pixels", "channels", "depths", "partition", "patch",
             "layer_sizes", "quant_bits", "records"]), max_size=2), label="broken")
        side = st.sampled_from([0, -1, 65])
        pick = {
            "views": (st.tuples(st.integers(1, 4), st.integers(1, 4)),
                      st.one_of(st.tuples(side, st.integers(1, 4)),
                                st.tuples(st.integers(1, 4), side))),
            "pixels": (st.tuples(st.integers(1, 6), st.integers(1, 6)),
                       st.sampled_from([(0, 4), (3, -1), (5000, 5000)])),
            "channels": (st.sampled_from([1, 3]), st.sampled_from([0, 2, 4])),
            "depths": (st.lists(st.integers(-3, 3), min_size=1, max_size=4,
                                unique=True).map(sorted),
                       st.sampled_from([[], [0, 0], [1, 0, -1], [-2, 1, 1]])),
            "partition": (st.lists(st.integers(1, 3), min_size=1, max_size=3),
                          st.sampled_from([[], [0], [2, 0], [1, 0, 3]])),
            "patch": (st.integers(1, 3), st.just(0)),
            "layer_sizes": (st.lists(st.integers(0, 4), min_size=1, max_size=4),
                            st.just([])),
            "quant_bits": (st.integers(2, 16), st.sampled_from([0, 1, 17, 100])),
        }
        fields = {name: data.draw(pick[name][name in broken], label=name)
                  for name in pick}
        rows, channels = sum(fields["partition"]), fields["channels"]
        values = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=2 * rows * channels,
                                    max_size=2 * rows * channels), label="records")
        records = np.sort(np.reshape(values, (rows, channels, 2)), axis=-1)
        if "records" in broken:
            bad = data.draw(st.sampled_from(["shape", np.nan, np.inf, -np.inf, "inverted"]
                                            if rows and channels else ["shape"]))
            if bad == "shape":
                records = np.zeros((rows + 1, channels, 2))
            else:
                records[0, 0] = (1.0, 0.0) if bad == "inverted" else (0.0, bad)
        lossless = data.draw(st.booleans(), label="lossless")
        lossless &= not {"patch", "layer_sizes"} & broken  # both only bind lossy
        kwargs = dict(
            angular_dims=fields["views"], spatial_dims=fields["pixels"],
            channels=channels, depths=fields["depths"], partition=fields["partition"],
            patch=fields["patch"], layer_sizes=fields["layer_sizes"],
            quant_bits=fields["quant_bits"], lossless=lossless, norm_records=records,
        )
        if broken:
            with pytest.raises(ValueError):
                ContainerHeader(**kwargs)
            return
        header = ContainerHeader(**kwargs)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        blob = write_container(header, make_payloads(header, rng))
        for got in (read_header(blob), read_container(blob).header):
            for field in dataclasses.fields(ContainerHeader):
                want, back = getattr(header, field.name), getattr(got, field.name)
                if field.name == "norm_records":
                    assert back.dtype == want.dtype and np.array_equal(back, want)
                else:
                    assert type(back) is type(want) and back == want

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_mutated_header_field_reads_back_or_is_refused(self, data):
        """Writing any value into one field of a valid header: read_header
        either raises ContainerError or returns a header that packs back to
        exactly the bytes it was read from."""
        lossless = data.draw(st.booleans(), label="lossless")
        header = make_header(levels=(1, 2), channels=3, lossless=lossless,
                             spatial=(5, 3))
        blob = write_container(header, make_payloads(header, np.random.default_rng(68)))
        fields = (["4s", "H", "H"]  # magic, version, flags
                  + ["I"] * 6  # S, T, W, H, C and K
                  + ["i"] * 3 + ["d"]  # depths and layer bound
                  + ["I"] * 3  # M and the partition
                  + ["I"] * 2 + ["I"] * 4  # patch, layer size count and sizes
                  + ["I"] + ["d"] * header.norm_records.size)  # bits and records
        offsets = np.cumsum([0] + [struct.calcsize("<" + f) for f in fields])
        assert offsets[-1] == packed_header_size(header)
        index = data.draw(st.integers(0, len(fields) - 1), label="field")
        values = {
            "4s": st.binary(min_size=4, max_size=4),
            "H": st.one_of(st.integers(0, 4), st.integers(0, 2**16 - 1)),
            "I": st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 1)),
            "i": st.one_of(st.integers(-4, 4), st.integers(-2**31, 2**31 - 1)),
            "d": st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1 / 3]), st.floats()),
        }
        value = data.draw(values[fields[index]], label="value")
        mutated = bytearray(blob)
        struct.pack_into("<" + fields[index], mutated, int(offsets[index]), value)
        try:
            got = read_header(bytes(mutated))
        except ContainerError:
            return
        packed = bitstream._pack_header(got)
        assert packed == bytes(mutated[: len(packed)])

    def test_header_records_shape_validated(self):
        with pytest.raises(ValueError):
            make_header(levels=(2, 2), channels=1).__class__(
                angular_dims=(3, 3),
                spatial_dims=(4, 4),
                channels=1,
                depths=(0,),
                partition=(2,),
                patch=2,
                layer_sizes=(4, 6, 3, 2),
                quant_bits=8,
                lossless=False,
                norm_records=np.zeros((3, 1, 2)),
            )

    def test_bits_per_pixel_closed_form(self):
        assert bits_per_pixel(100, (5, 5), (4, 4)) == 2.0

