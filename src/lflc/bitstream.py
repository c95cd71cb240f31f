"""Progressive container: quantizer, adaptive arithmetic coder, serialization.

The container carries everything a decoder needs, front-loaded: a header with
the light-field geometry, layer depths, the weighted-binary partition, the
autoencoder layout and per-basis-image normalization records, followed by one
self-contained section per scalability level. Sections hold the packed binary
code matrix plus the entropy-coded quantized latent codes of that level's
basis images (or the raw 64-bit images in lossless mode). One rule splits the
bytes: a prefix that ends on a section boundary is itself a valid container
for the levels it covers (the whole point of the format), a cut inside a
section raises TruncatedSectionError and bytes after the last section raise
ContainerError.

ContainerHeader and LevelPayload hold the rules on their contents (see their
docstrings): building either raises ValueError, which the reader turns into
ContainerError, so the writer refuses whatever the reader does. The reader
alone checks the bytes: magic, version and flags, the stored layer bound 1/K,
section lengths and counts (a lossy symbol count against its geometry, before
decoding) and that each entropy stream is exactly the encoder's bytes for its
symbols (TruncatedStreamError if it is too short, else ContainerError).

The entropy stage is a 32-bit binary arithmetic coder in the classic
low/high/underflow formulation (Witten, Neal & Cleary 1987), driven MSB-first
over the bit planes of each quantized symbol with one adaptive
(Laplace-smoothed) frequency pair per plane. It is strictly sequential and
bit-reproducible. State and counts are floats, cheaper in CPython than ints
above 2**30, and exact: every value is an integer below 2**48 (a count below
2**16 times a range of at most 2**32), so no sum, product or // rounds.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContainerError, TruncatedSectionError, TruncatedStreamError

MAGIC = b"LFLC"
VERSION = 1
MIN_QUANT_BITS = 2
MAX_QUANT_BITS = 16
DEFAULT_QUANT_BITS = 8  # also the depth a lossless header records
MAX_VIEWS_PER_AXIS = 64  # S and T
MAX_FIELD_SAMPLES = 1 << 24  # C * S * T * H * W

_STATE_BITS = 32
_STATE_MASK = (1 << _STATE_BITS) - 1
_HALF = 1 << (_STATE_BITS - 1)
_QUARTER = 1 << (_STATE_BITS - 2)
_RESCALE_TOTAL = 1 << 16
_EOF_BIT_ALLOWANCE = 48  # legitimate decoder tail overshoot is < state width
_FLOAT_CONSTANTS = tuple(map(float, (_HALF, _QUARTER, 3 * _QUARTER, _RESCALE_TOTAL)))


# ---------------------------------------------------------------------------
# quantizer


def check_quant_bits(bits: int) -> None:
    """Raise ValueError unless bits is a supported quantizer depth."""
    if not MIN_QUANT_BITS <= bits <= MAX_QUANT_BITS:
        raise ValueError(
            f"quantizer bits must be in [{MIN_QUANT_BITS}, {MAX_QUANT_BITS}], got {bits}"
        )


def check_field_size(angular_dims, spatial_dims, channels: int) -> None:
    """Raise ValueError unless a (S, T) x (W, H) x channels light field fits
    the container: 1 or 3 channels, a non-empty view grid, at most
    MAX_VIEWS_PER_AXIS views along each axis and at most MAX_FIELD_SAMPLES
    samples in all."""
    (S, T), (W, H) = angular_dims, spatial_dims
    if channels not in (1, 3):
        raise ValueError(f"channel count must be 1 or 3, got {channels}")
    if min(S, T, W, H) < 1:
        raise ValueError(f"empty view grid {S}x{T} of {W}x{H} px")
    if max(S, T) > MAX_VIEWS_PER_AXIS:
        raise ValueError(
            f"view grid {S}x{T} exceeds {MAX_VIEWS_PER_AXIS} views per axis"
        )
    if channels * S * T * H * W > MAX_FIELD_SAMPLES:
        raise ValueError(
            f"{channels}x{S}x{T}x{W}x{H} light field exceeds "
            f"{MAX_FIELD_SAMPLES} samples"
        )


def quantize(values, bits: int) -> np.ndarray:
    """Uniform mid-tread quantization of [0,1] values to integer symbols."""
    check_quant_bits(bits)
    values = np.asarray(values, dtype=np.float64)
    # Written so that NaN, which fails every comparison, fails the test too.
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValueError("quantizer input must be finite and lie in [0, 1]")
    scale = (1 << bits) - 1
    return np.floor(values * scale + 0.5).astype(np.uint32)


def dequantize(symbols, bits: int) -> np.ndarray:
    check_quant_bits(bits)
    symbols = np.asarray(symbols)
    if symbols.size and int(symbols.max()) >= (1 << bits):
        raise ValueError(f"symbol overflow for {bits}-bit quantizer")
    return symbols.astype(np.float64) / ((1 << bits) - 1)


# ---------------------------------------------------------------------------
# adaptive binary arithmetic coder


def entropy_encode(symbols, bits: int) -> bytes:
    """Arithmetic-code symbols MSB-plane-first with per-plane adaptation."""
    symbols = np.asarray(symbols).ravel()
    if symbols.size and int(symbols.max()) >= (1 << bits):
        raise ValueError(f"symbol overflow for {bits}-bit planes")
    if symbols.size and int(symbols.min()) < 0:
        raise ValueError("symbols must be non-negative")
    half, quarter, three_quarters, rescale = _FLOAT_CONSTANTS
    # one adaptive [zeros, ones] pair per bit plane, MSB plane first
    planes = [(shift, [1.0, 1.0]) for shift in range(bits - 1, -1, -1)]
    low, high, pending = 0.0, float(_STATE_MASK), 0
    out = bytearray()
    for symbol in symbols.tolist():
        for shift, pair in planes:
            bit = (symbol >> shift) & 1
            zero = pair[0]
            split = low + zero * (high - low + 1.0) // (zero + pair[1])
            if bit:
                low = split
            else:
                high = split - 1.0
            while True:
                if high < half:
                    out += b"\x00" + b"\x01" * pending
                    pending, offset = 0, 0.0
                elif low >= half:
                    out += b"\x01" + bytes(pending)
                    pending, offset = 0, half
                elif low >= quarter and high < three_quarters:
                    pending, offset = pending + 1, quarter
                else:
                    break
                low = 2.0 * (low - offset)
                high = 2.0 * (high - offset) + 1.0
            pair[bit] += 1.0
            if pair[0] + pair[1] >= rescale:
                pair[0] = (pair[0] + 1.0) // 2.0
                pair[1] = (pair[1] + 1.0) // 2.0
    out += b"\x01" + bytes(pending)
    return np.packbits(np.frombuffer(out, dtype=np.uint8)).tobytes()


def entropy_decode(data: bytes, count: int, bits: int) -> np.ndarray:
    """Invert entropy_encode.

    Accepts only the exact bytes entropy_encode writes for the decoded
    symbols: a stream too short for them raises TruncatedStreamError, one
    that is longer or ends in other bits than the encoder's flush and
    padding raises ContainerError.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    # MSB-first bits of the stream plus the zero tail a decoder may legitimately
    # read past the end; reading beyond that tail means the stream is starved
    stream = np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tobytes()
    stream += bytes(_EOF_BIT_ALLOWANCE)
    half, quarter, three_quarters, rescale = _FLOAT_CONSTANTS
    code = float(int.from_bytes(bytes(data[:4]).ljust(4, b"\0"), "big"))  # 32 bits
    pos = _STATE_BITS
    planes = [[1.0, 1.0] for _ in range(bits)]
    low, high, pending = 0.0, float(_STATE_MASK), 0
    symbols = []
    try:
        for _ in range(count):
            symbol = 0
            for pair in planes:
                zero = pair[0]
                split = low + zero * (high - low + 1.0) // (zero + pair[1])
                if code >= split:
                    bit = 1
                    low = split
                else:
                    bit = 0
                    high = split - 1.0
                # code stays in [low, high]: one offset shifts all three
                while True:
                    if high < half:
                        pending, offset = 0, 0.0
                    elif low >= half:
                        pending, offset = 0, half
                    elif low >= quarter and high < three_quarters:
                        pending, offset = pending + 1, quarter
                    else:
                        break
                    low = 2.0 * (low - offset)
                    high = 2.0 * (high - offset) + 1.0
                    code = 2.0 * (code - offset) + stream[pos]
                    pos += 1
                pair[bit] += 1.0
                if pair[0] + pair[1] >= rescale:
                    pair[0] = (pair[0] + 1.0) // 2.0
                    pair[1] = (pair[1] + 1.0) // 2.0
                symbol = (symbol << 1) | bit
            symbols.append(symbol)
    except IndexError:
        raise TruncatedStreamError("entropy stream exhausted mid-symbol") from None
    # the decoder read one bit per encoder shift after its first state-width
    # bits; the encoder ended with a 1, its pending bits as 0s and zero padding
    flush = pos - _STATE_BITS - pending
    expected = (pos - _STATE_BITS + 1 + 7) // 8
    if len(data) < expected:
        raise TruncatedStreamError(
            f"entropy stream holds {len(data)} bytes, its symbols need {expected}"
        )
    if len(data) > expected:
        raise ContainerError(
            f"entropy stream holds {len(data)} bytes, its symbols fill {expected}"
        )
    if not stream[flush] or any(stream[flush + 1 : 8 * len(data)]):
        raise ContainerError("entropy stream does not end the way the encoder ends it")
    return np.array(symbols, dtype=np.uint32)


# ---------------------------------------------------------------------------
# container serialization


@dataclass(frozen=True)
class ContainerHeader:
    """Everything global a decoder needs before reading any section. Building
    one raises ValueError unless check_field_size passes, there are layers
    and levels and no level is empty, the depths strictly increase,
    check_quant_bits passes, a lossy layout has a patch of at least 1 and at
    least one layer size, and the normalization records are (N, C, 2),
    finite and have min <= max."""

    angular_dims: tuple[int, int]  # (S, T)
    spatial_dims: tuple[int, int]  # (W, H)
    channels: int
    depths: tuple[int, ...]  # layer depth offsets; K = len(depths)
    partition: tuple[int, ...]  # components per level; M = len(partition)
    patch: int
    layer_sizes: tuple[int, ...]  # encoder sizes F1..F4
    quant_bits: int
    lossless: bool
    norm_records: np.ndarray  # (N, C, 2) per-basis-image (min, max)

    def __post_init__(self):
        for name in ("angular_dims", "spatial_dims", "depths", "partition",
                     "layer_sizes"):
            object.__setattr__(self, name, tuple(map(int, getattr(self, name))))
        records = np.array(self.norm_records, dtype=np.float64, order="C")
        object.__setattr__(self, "norm_records", records)
        check_field_size(self.angular_dims, self.spatial_dims, self.channels)
        depths, partition = self.depths, self.partition
        if not depths or min(partition, default=0) < 1:
            raise ValueError("degenerate layer or level structure")
        if any(b <= a for a, b in zip(depths, depths[1:])):
            raise ValueError(f"layer depths {depths} are not strictly increasing")
        check_quant_bits(self.quant_bits)
        if not self.lossless and (self.patch < 1 or not self.layer_sizes):
            raise ValueError(
                f"lossy layout patch {self.patch}, layer sizes {self.layer_sizes}"
            )
        shape = (sum(partition), self.channels, 2)
        if records.shape != shape:
            raise ValueError(f"norm records must be {shape}, got {records.shape}")
        if not np.all(np.isfinite(records)):
            raise ValueError("normalization records hold non-finite values")
        if np.any(records[..., 0] > records[..., 1]):
            raise ValueError("normalization record with min above max")

    @property
    def layer_count(self) -> int:
        return len(self.depths)

    @property
    def layer_bound(self) -> float:
        """Per-layer cap 1/K; the header records it, the reader checks it."""
        return 1.0 / len(self.depths)

    @property
    def level_count(self) -> int:
        return len(self.partition)

    @property
    def component_count(self) -> int:
        return sum(self.partition)


@dataclass(frozen=True)
class LevelPayload:
    """One section's worth of encoded data, still symbol-domain. Building one
    raises ValueError unless the codes are a matrix of 0s and 1s and the raw
    basis images, if any, are finite."""

    codes: np.ndarray  # (n, K) uint8 binary selection matrix
    symbols: np.ndarray | None = None  # quantized latent symbols (lossy mode)
    basis_raw: np.ndarray | None = None  # (n, C, H, W) float64 (lossless mode)

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 2 or not np.all((codes == 0) | (codes == 1)):
            raise ValueError("level codes must be a matrix of 0s and 1s")
        if self.basis_raw is not None and not np.all(np.isfinite(self.basis_raw)):
            raise ValueError("raw basis images hold non-finite samples")


@dataclass(frozen=True)
class DecodedContainer:
    header: ContainerHeader
    payloads: tuple[LevelPayload, ...]


def _pack_header(header: ContainerHeader) -> bytes:
    S, T = header.angular_dims
    W, H = header.spatial_dims
    parts = [
        MAGIC,
        struct.pack("<HH", VERSION, 1 if header.lossless else 0),
        struct.pack("<5I", S, T, W, H, header.channels),
        struct.pack("<I", header.layer_count),
        struct.pack(f"<{header.layer_count}i", *header.depths),
        struct.pack("<d", header.layer_bound),
        struct.pack("<I", header.level_count),
        struct.pack(f"<{header.level_count}I", *header.partition),
        struct.pack("<I", header.patch),
        struct.pack("<I", len(header.layer_sizes)),
        struct.pack(f"<{len(header.layer_sizes)}I", *header.layer_sizes),
        struct.pack("<I", header.quant_bits),
        np.ascontiguousarray(header.norm_records, dtype="<f8").tobytes(),
    ]
    return b"".join(parts)


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, count: int, what: str) -> bytes:
        if self.offset + count > len(self.data):
            raise ContainerError(f"container ends inside {what}")
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def _parse_header(cursor: _Cursor) -> ContainerHeader:
    magic = cursor.take(4, "magic")
    if magic != MAGIC:
        raise ContainerError(f"bad container magic {magic!r}")
    version, flags = cursor.unpack("<HH", "version")
    if version != VERSION:
        raise ContainerError(f"unsupported container version {version}")
    if flags > 1:
        raise ContainerError(f"unknown container flags {flags:#x}")
    S, T, W, H, channels = cursor.unpack("<5I", "dimensions")
    try:
        check_field_size((S, T), (W, H), channels)  # before any size is read
    except ValueError as exc:
        raise ContainerError(str(exc)) from None
    (layer_count,) = cursor.unpack("<I", "layer count")
    depths = cursor.unpack(f"<{layer_count}i", "depths")
    (layer_bound,) = cursor.unpack("<d", "layer bound")
    (level_count,) = cursor.unpack("<I", "level count")
    partition = cursor.unpack(f"<{level_count}I", "partition")
    (patch,) = cursor.unpack("<I", "patch size")
    (n_sizes,) = cursor.unpack("<I", "layer size count")
    layer_sizes = cursor.unpack(f"<{n_sizes}I", "layer sizes")
    (quant_bits,) = cursor.unpack("<I", "quantizer bits")
    raw = cursor.take(16 * sum(partition) * channels, "normalization records")
    records = np.frombuffer(raw, dtype="<f8").reshape(-1, channels, 2)
    try:
        header = ContainerHeader((S, T), (W, H), channels, depths, partition, patch,
                                 layer_sizes, quant_bits, bool(flags), records)
    except ValueError as exc:
        raise ContainerError(str(exc)) from None
    if layer_bound != header.layer_bound:
        raise ContainerError(f"layer bound {layer_bound!r} is not 1/{layer_count}")
    return header


def read_header(data: bytes) -> ContainerHeader:
    """Parse and check the container's header alone; no section is read."""
    return _parse_header(_Cursor(data))


def _section_symbols(header: ContainerHeader, n: int) -> int:
    """Latent symbols in a lossy section of n basis images: F4 per patch tile."""
    (W, H), p = header.spatial_dims, header.patch
    return n * header.channels * -(-H // p) * -(-W // p) * header.layer_sizes[-1]


def _pack_section(header: ContainerHeader, payload: LevelPayload, n: int) -> bytes:
    K = header.layer_count
    codes = np.asarray(payload.codes, dtype=np.uint8)
    if codes.shape != (n, K):
        raise ValueError(f"level codes must be ({n}, {K}), got {codes.shape}")
    body = [struct.pack("<I", n), np.packbits(codes.reshape(-1)).tobytes()]
    if header.lossless:
        if payload.basis_raw is None:
            raise ValueError("lossless container needs raw basis images")
        W, H = header.spatial_dims
        basis = np.asarray(payload.basis_raw, dtype=np.float64)
        shape = (n, header.channels, H, W)
        if basis.shape != shape:
            raise ValueError(f"raw basis must be {shape}, got {basis.shape}")
        body.append(np.ascontiguousarray(basis, dtype="<f8").tobytes())
    else:
        if payload.symbols is None:
            raise ValueError("lossy container needs quantized symbols")
        symbols = np.asarray(payload.symbols).ravel()
        count = _section_symbols(header, n)
        if symbols.size != count:
            raise ValueError(f"level symbols must number {count}, got {symbols.size}")
        stream = entropy_encode(symbols, header.quant_bits)
        body += [struct.pack("<II", symbols.size, len(stream)), stream]
    blob = b"".join(body)
    return struct.pack(">I", len(blob)) + blob


def _parse_section(header: ContainerHeader, blob: bytes, n: int) -> LevelPayload:
    cursor = _Cursor(blob)
    (stored_n,) = cursor.unpack("<I", "component count")
    if stored_n != n:
        raise ContainerError(f"section declares {stored_n} components, header says {n}")
    K = header.layer_count
    packed = cursor.take((n * K + 7) // 8, "code matrix")
    codes = np.unpackbits(np.frombuffer(packed, np.uint8), count=n * K).reshape(n, K)
    if header.lossless:
        W, H = header.spatial_dims
        raw = cursor.take(8 * n * header.channels * H * W, "raw basis images")
        basis = np.frombuffer(raw, dtype="<f8").reshape(n, header.channels, H, W)
        try:
            payload = LevelPayload(codes=codes, basis_raw=basis.copy())
        except ValueError as exc:
            raise ContainerError(str(exc)) from None
    else:
        (symbol_count,) = cursor.unpack("<I", "symbol count")
        count = _section_symbols(header, n)
        if symbol_count != count:
            raise ContainerError(
                f"section declares {symbol_count} symbols, header says {count}"
            )
        (stream_len,) = cursor.unpack("<I", "stream length")
        stream = cursor.take(stream_len, "entropy stream")
        symbols = entropy_decode(stream, symbol_count, header.quant_bits)
        payload = LevelPayload(codes=codes, symbols=symbols)
    if cursor.offset < len(blob):
        raise ContainerError(f"{len(blob) - cursor.offset} stray bytes inside section")
    return payload


def write_container(header: ContainerHeader, payloads) -> bytes:
    payloads = tuple(payloads)
    if len(payloads) != header.level_count:
        raise ValueError(
            f"expected {header.level_count} level payloads, got {len(payloads)}"
        )
    parts = [_pack_header(header)]
    for payload, n in zip(payloads, header.partition):
        parts.append(_pack_section(header, payload, n))
    return b"".join(parts)


def _sections(data: bytes, levels: int | None = None):
    """(header, spans): one (start, end) body span for each of the first
    `levels` sections (all when None), split by the rule read_container states."""
    cursor = _Cursor(data)
    header = _parse_header(cursor)
    spans, end = [], cursor.offset
    for level in range(header.level_count):
        if level == levels or end == len(data):
            break
        start = end + 4  # after the big-endian length prefix
        end = start + int.from_bytes(data[start - 4 : start], "big")
        if end > len(data):
            raise TruncatedSectionError(
                f"container ends inside section {level + 1}", last_complete_level=level
            )
        spans.append((start, end))
    if len(spans) == header.level_count and end < len(data):
        raise ContainerError(f"{len(data) - end} trailing bytes after last section")
    return header, spans


def read_container(data: bytes, max_level: int | None = None) -> DecodedContainer:
    """Parse header plus up to max_level sections.

    A prefix that ends on a section boundary is a valid shorter container
    (fewer payloads), a cut inside a section raises TruncatedSectionError
    with the last complete level, and bytes after the header's last section
    raise ContainerError. A complete section that fails to parse raises its
    own DataError, never TruncatedSectionError.
    """
    header, spans = _sections(data, max_level)
    if max_level is not None and not 1 <= max_level <= header.level_count:
        raise ValueError(
            f"max_level must be in [1, {header.level_count}], got {max_level}"
        )
    if not spans:
        raise TruncatedSectionError(
            "container holds no complete section", last_complete_level=0
        )
    payloads = tuple(
        _parse_section(header, data[start:end], n)
        for (start, end), n in zip(spans, header.partition)
    )
    return DecodedContainer(header=header, payloads=payloads)


def packed_header_size(header: ContainerHeader) -> int:
    """Byte length of the serialized header (sections start right after)."""
    return len(_pack_header(header))


def section_boundaries(data: bytes) -> list[int]:
    """Byte offsets at which each section of the container ends."""
    return [end for _, end in _sections(data)[1]]


def truncate_container(data: bytes, levels: int) -> bytes:
    """Cut a container, or a longer or cut stream, to its first `levels` sections."""
    _, spans = _sections(data, levels)
    if not 1 <= levels <= len(spans):
        raise ValueError(f"levels must be in [1, {len(spans)}], got {levels}")
    return data[: spans[-1][1]]


def bits_per_pixel(byte_count: int, angular_dims, spatial_dims) -> float:
    S, T = angular_dims
    W, H = spatial_dims
    return byte_count * 8.0 / (S * T * W * H)
