"""Minimal binary PGM (P5) / PPM (P6) reader and writer.

Only the binary variants with maxval 255 or 65535 are supported; 16-bit
samples are big-endian as required by the format. `read_pnm` / `write_pnm`
take integer arrays, (H, W) for PGM and (H, W, 3) for PPM; the rest of the
codec uses `read_planes` / `write_planes`, which take (C, H, W) samples in
[0, 1] and own the file layout and the maxval.
"""

from __future__ import annotations

import numpy as np

from .errors import PnmError

_MAGIC_CHANNELS = {b"P5": 1, b"P6": 3}


def _read_header_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integer tokens, skipping # comments.

    Returns the tokens and the offset of the first raster byte (one
    whitespace character after the last token, per the PNM convention).
    """
    tokens: list[int] = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise PnmError("unexpected end of file in header")
        ch = data[i : i + 1]
        if ch == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            token = data[i:j]
            if not token.isdigit():
                raise PnmError(f"bad header token {token!r}")
            tokens.append(int(token))
            i = j
    if i >= len(data) or not data[i : i + 1].isspace():
        raise PnmError("missing whitespace after header")
    return tokens, i + 1


def read_pnm(path) -> np.ndarray:
    """Read a binary PGM/PPM file into an integer array.

    Returns uint8 for maxval 255 and uint16 for maxval 65535 (shape (H, W)
    or (H, W, 3)). The array's `maxval` is recoverable from its dtype.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in _MAGIC_CHANNELS:
        raise PnmError(f"{path}: unsupported magic {magic!r} (want P5 or P6)")
    channels = _MAGIC_CHANNELS[magic]
    (width, height, maxval), offset = _read_header_tokens(data[2:], 3)
    offset += 2
    if maxval == 255:
        dtype = np.dtype(np.uint8)
    elif maxval == 65535:
        dtype = np.dtype(">u2")
    else:
        raise PnmError(f"{path}: unsupported maxval {maxval} (want 255 or 65535)")
    count = width * height * channels
    raster = data[offset : offset + count * dtype.itemsize]
    if len(raster) != count * dtype.itemsize:
        raise PnmError(f"{path}: raster shorter than {width}x{height} header promises")
    pixels = np.frombuffer(raster, dtype=dtype).astype(
        np.uint8 if maxval == 255 else np.uint16
    )
    shape = (height, width) if channels == 1 else (height, width, 3)
    return pixels.reshape(shape)


def write_pnm(path, pixels: np.ndarray) -> None:
    """Write an integer array as binary PGM (2-D) or PPM ((H, W, 3))."""
    pixels = np.asarray(pixels)
    if pixels.ndim == 2:
        magic = b"P5"
    elif pixels.ndim == 3 and pixels.shape[2] == 3:
        magic = b"P6"
    else:
        raise PnmError(f"cannot write array of shape {pixels.shape} as PGM/PPM")
    if pixels.dtype == np.uint8:
        maxval, out = 255, pixels
    elif pixels.dtype == np.uint16:
        maxval, out = 65535, pixels.astype(">u2")
    else:
        raise PnmError(f"cannot write dtype {pixels.dtype} (want uint8 or uint16)")
    height, width = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n%d\n" % (width, height, maxval))
        fh.write(out.tobytes())


def image_to_unit(pixels: np.ndarray) -> np.ndarray:
    """Scale integer samples to float64 in [0, 1] by the dtype's maxval."""
    maxval = 255 if pixels.dtype == np.uint8 else 65535
    return pixels.astype(np.float64) / maxval


def unit_to_image(values: np.ndarray, bit_depth: int = 8) -> np.ndarray:
    """Quantize [0, 1] samples back to uint8/uint16 pixels (round-to-nearest)."""
    if bit_depth == 8:
        dtype, maxval = np.uint8, 255
    elif bit_depth == 16:
        dtype, maxval = np.uint16, 65535
    else:
        raise PnmError(f"unsupported bit depth {bit_depth}")
    return np.clip(np.rint(values * maxval), 0, maxval).astype(dtype)


def read_planes(path) -> tuple[np.ndarray, int]:
    """Read a PGM/PPM file as (C, H, W) float64 samples in [0, 1].

    Returns the samples and the file's bit depth, 8 or 16.
    """
    pixels = read_pnm(path)
    planes = pixels[None] if pixels.ndim == 2 else pixels.transpose(2, 0, 1)
    return image_to_unit(planes), 8 if pixels.dtype == np.uint8 else 16


def write_planes(path, planes: np.ndarray, bit_depth: int = 8) -> None:
    """Write (C, H, W) samples in [0, 1] as PGM (C = 1) or PPM (C = 3)."""
    planes = np.asarray(planes)
    if planes.ndim != 3 or planes.shape[0] not in (1, 3):
        raise PnmError(f"cannot write planes of shape {planes.shape} as PGM/PPM")
    image = planes[0] if planes.shape[0] == 1 else planes.transpose(1, 2, 0)
    write_pnm(path, unit_to_image(image, bit_depth))
