"""Light-field data model, manifest I/O, and PSNR.

A light field is stored as a dense float64 tensor indexed (c, t, s, v, u):
channel, vertical angular index, horizontal angular index, row, column.
All samples live in [0, 1]. On disk a light field is a plain-text manifest
listing one PGM/PPM file per view in row-major (t outer, s inner) order,
each path relative to the manifest's directory. `load_light_field` takes
the manifest's path and is the one place that resolves the view paths;
each view file is read and written as (C, H, W) planes by `pnm.read_planes`
/ `pnm.write_planes`. A saved layer stack is a light field too, one row of
K views (see `layers.save_layer_stack`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ManifestError, PnmError
from .pnm import read_planes, write_planes


def angular_offset(s: int, size: int) -> int:
    """Signed ray-direction coordinate for grid index `s` of `size` views.

    The grid is centered: for odd sizes the middle view maps to 0, for even
    sizes the range is asymmetric (e.g. size 4 -> -2..1).
    """
    if not 0 <= s < size:
        raise IndexError(f"angular index {s} out of range for {size} views")
    return s - size // 2


@dataclass(frozen=True)
class LightField:
    """Dense 4-D light field, samples indexed (c, t, s, v, u) in [0, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.ascontiguousarray(np.asarray(self.samples, dtype=np.float64))
        if samples.ndim != 5:
            raise ValueError(
                f"light-field samples must be (C, T, S, H, W), got {samples.shape}"
            )
        if samples.shape[0] not in (1, 3):
            raise ValueError(f"channel count must be 1 or 3, got {samples.shape[0]}")
        if min(samples.shape[1:]) < 1:
            raise ValueError(f"degenerate light-field shape {samples.shape}")
        # NaN and +-inf show in the minimum or the maximum
        low, high = samples.min(), samples.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("light field contains non-finite samples")
        if low < 0.0 or high > 1.0:
            raise ValueError("light field samples must lie in [0, 1]")
        object.__setattr__(self, "samples", samples)

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def angular_dims(self) -> tuple[int, int]:
        """(S, T) view-grid dimensions."""
        return self.samples.shape[2], self.samples.shape[1]

    @property
    def spatial_dims(self) -> tuple[int, int]:
        """(W, H) per-view pixel dimensions."""
        return self.samples.shape[4], self.samples.shape[3]


@dataclass(frozen=True)
class Manifest:
    """Grid dimensions plus the row-major list of per-view file paths."""

    angular_dims: tuple[int, int]
    channels: int
    bit_depth: int
    paths: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        S, T = self.angular_dims
        if S < 1 or T < 1:
            raise ManifestError(f"bad grid dims {S}x{T}")
        if self.channels not in (1, 3):
            raise ManifestError(f"channels must be 1 or 3, got {self.channels}")
        if self.bit_depth not in (8, 16):
            raise ManifestError(f"bit depth must be 8 or 16, got {self.bit_depth}")
        if len(self.paths) != S * T:
            raise ManifestError(
                f"manifest lists {len(self.paths)} files, grid needs {S * T}"
            )


def read_manifest(path) -> Manifest:
    """Parse a manifest file: 'S T C BITDEPTH' then S*T relative paths."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise ManifestError(f"cannot read manifest: {exc}") from exc
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ManifestError(f"{path}: empty manifest")
    head = lines[0].split()
    if len(head) != 4:
        raise ManifestError(f"{path}: first line must be 'S T C BITDEPTH'")
    try:
        s, t, c, depth = (int(x) for x in head)
    except ValueError as exc:
        raise ManifestError(f"{path}: non-integer header field") from exc
    try:
        return Manifest((s, t), c, depth, tuple(lines[1:]))
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def write_manifest(manifest: Manifest, path) -> None:
    S, T = manifest.angular_dims
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{S} {T} {manifest.channels} {manifest.bit_depth}\n")
        for rel in manifest.paths:
            fh.write(rel + "\n")


def load_light_field(manifest_path) -> LightField:
    """Load the light field a manifest file lists, samples in [0, 1].

    View paths are relative to the manifest's directory. The view listed at
    line t*S + s lands at angular index (s, t). All files must share
    dimensions, channel count, and the declared bit depth.
    """
    manifest = read_manifest(manifest_path)
    base_dir = Path(manifest_path).parent
    S, T = manifest.angular_dims
    samples = None
    for index, rel in enumerate(manifest.paths):
        full = os.path.join(base_dir, rel)
        if not os.path.exists(full):
            raise ManifestError(f"missing view file: {full}")
        planes, bit_depth = read_planes(full)
        if planes.shape[0] != manifest.channels:
            raise ManifestError(
                f"{full}: has {planes.shape[0]} channels, manifest declares "
                f"{manifest.channels}"
            )
        if bit_depth != manifest.bit_depth:
            raise PnmError(
                f"{full}: {bit_depth}-bit samples do not match declared "
                f"{manifest.bit_depth}-bit depth"
            )
        if samples is None:
            samples = np.empty((manifest.channels, T, S, *planes.shape[1:]))
        elif planes.shape[1:] != samples.shape[3:]:
            raise ManifestError(
                f"{full}: dimensions {planes.shape[1:]} differ from first view "
                f"{samples.shape[3:]}"
            )
        samples[:, index // S, index % S] = planes
    return LightField(samples)


def save_light_field(lf: LightField, base_dir, bit_depth: int = 8) -> None:
    """Write one PGM/PPM per view plus the `manifest.txt` that lists them.

    `load_light_field(base_dir/manifest.txt)` reads it back; the round trip
    is bit-exact for data loaded from sources of the same depth.
    """
    S, T = lf.angular_dims
    os.makedirs(base_dir, exist_ok=True)
    ext = "pgm" if lf.channels == 1 else "ppm"
    paths = []
    for t in range(T):
        for s in range(S):
            rel = f"view_{t:02d}_{s:02d}.{ext}"
            write_planes(os.path.join(base_dir, rel), lf.samples[:, t, s], bit_depth)
            paths.append(rel)
    manifest = Manifest((S, T), lf.channels, bit_depth, tuple(paths))
    write_manifest(manifest, os.path.join(base_dir, "manifest.txt"))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB at peak 1; +inf when the inputs are
    identical.

    Takes two sample arrays of identical shape (a LightField's `.samples`).
    The mean squared error averages over every sample including channels.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean(np.square(a - b)))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def psnr_masked(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> float:
    """PSNR of two (C, T, S, H, W) sample arrays restricted to samples where
    `mask` is true.

    The mask indexes (t, s, v, u) and is broadcast across channels.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if not mask.any():
        raise ValueError("validity mask is empty")
    diff = np.square(a - b)[:, mask]
    mse = float(diff.mean())
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)
