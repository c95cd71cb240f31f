"""Binary PGM (P5) / PPM (P6) files as (C, H, W) planes in [0, 1].

`read_planes` and `write_planes` are the codec's whole image-file layer:
every view and layer file is C = 1 (PGM) or C = 3 (PPM) planes of float64
samples in [0, 1]. Files hold 8- or 16-bit samples, maxval 2^depth - 1,
16-bit samples big-endian as the format requires. Writing clips to [0, 1]
and rounds to the nearest level, ties to even; reading divides by maxval.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import PnmError

_MAGIC_CHANNELS = {b"P5": 1, b"P6": 3}
# bit depth -> raster sample type; the file's maxval is 2**depth - 1
_SAMPLE_TYPE = {8: np.dtype("u1"), 16: np.dtype(">u2")}
# one header field: whitespace and #-comments (each to the end of its line)
# skipped, then a token that runs to the next whitespace
_FIELD = re.compile(rb"(?:\s|#[^\r\n]*(?=[\r\n]|\Z))*([^\s#]\S*)")


def read_planes(path) -> tuple[np.ndarray, int]:
    """Read a PGM/PPM file as (C, H, W) float64 samples in [0, 1].

    Returns the samples and the file's bit depth, 8 or 16. A bad magic or
    header, a maxval other than 255 or 65535, and an empty or short raster
    raise PnmError naming the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in _MAGIC_CHANNELS:
        raise PnmError(f"{path}: unsupported magic {magic!r} (want P5 or P6)")
    fields, offset = [], 2
    for _ in range(3):
        match = _FIELD.match(data, offset)
        if match is None:
            raise PnmError(f"{path}: unexpected end of file in header")
        if not match[1].isdigit():
            raise PnmError(f"{path}: bad header token {match[1]!r}")
        fields.append(int(match[1]))
        offset = match.end()
    if not data[offset : offset + 1].isspace():
        raise PnmError(f"{path}: missing whitespace after header")
    width, height, maxval = fields
    depth = maxval.bit_length()
    if depth not in _SAMPLE_TYPE or maxval != 2**depth - 1:
        raise PnmError(f"{path}: unsupported maxval {maxval} (want 255 or 65535)")
    if width * height == 0:
        raise PnmError(f"{path}: empty {width}x{height} raster")
    channels = _MAGIC_CHANNELS[magic]
    sample = _SAMPLE_TYPE[depth]
    size = width * height * channels * sample.itemsize
    raster = data[offset + 1 : offset + 1 + size]
    if len(raster) != size:
        raise PnmError(f"{path}: raster shorter than {width}x{height} header promises")
    pixels = np.frombuffer(raster, sample).reshape(height, width, channels)
    return pixels.transpose(2, 0, 1).astype(np.float64) / maxval, depth


def write_planes(path, planes: np.ndarray, bit_depth: int = 8) -> None:
    """Write (C, H, W) samples in [0, 1] as PGM (C = 1) or PPM (C = 3)."""
    planes = np.asarray(planes)
    if planes.ndim != 3 or planes.shape[0] not in (1, 3):
        raise PnmError(f"cannot write planes of shape {planes.shape} as PGM/PPM")
    if bit_depth not in _SAMPLE_TYPE:
        raise PnmError(f"unsupported bit depth {bit_depth}")
    maxval = 2**bit_depth - 1
    pixels = np.clip(np.rint(planes.transpose(1, 2, 0) * maxval), 0, maxval)
    channels, height, width = planes.shape
    with open(path, "wb") as fh:
        fh.write(b"P%d\n%d %d\n%d\n" % (5 if channels == 1 else 6, width, height, maxval))
        fh.write(pixels.astype(_SAMPLE_TYPE[bit_depth]).tobytes())
