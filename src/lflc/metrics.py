"""Rate-distortion sweeps and Bjontegaard BD-Rate / BD-PSNR.

The BD metrics follow the standard recipe: fit a low-order polynomial to
each curve in (log10 rate, PSNR) space, integrate both fits over the
overlapping interval, and report the mean gap. Integrating PSNR over
log-rate gives BD-PSNR in dB; integrating log-rate over PSNR gives the mean
log-rate difference, turned into a percentage via 10^delta. Curves must
arrive clean (three plus points, distinct rates, quality non-decreasing in
rate); garbage curves are rejected rather than silently sorted into shape.
"""

from __future__ import annotations

import concurrent.futures
import io
from dataclasses import dataclass

import numpy as np

from . import pipeline
from .bitstream import bits_per_pixel
from .config import quant_bits_for_qp
from .lightfield import LightField, psnr_masked


@dataclass(frozen=True)
class RdPoint:
    rate: float  # bits per pixel
    quality: float  # PSNR in dB

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise ValueError(f"rate must be finite and > 0, got {self.rate}")
        if not np.isfinite(self.quality):
            raise ValueError(f"quality must be finite, got {self.quality}")


@dataclass(frozen=True)
class BdResult:
    bd_rate: float  # percent, negative favors curve B
    bd_psnr: float  # dB, positive favors curve B
    rate_overlap: tuple[float, float]  # log10-rate integration interval
    quality_overlap: tuple[float, float]  # PSNR integration interval
    fit_degree: int
    low_order: bool  # True when fewer than 4 points forced degree < 3


def _clean_curve(points, label: str) -> tuple[np.ndarray, np.ndarray]:
    pts = [p if isinstance(p, RdPoint) else RdPoint(*p) for p in points]
    if len(pts) < 3:
        raise ValueError(f"curve {label} needs >= 3 points, got {len(pts)}")
    rates = np.array([p.rate for p in pts], dtype=np.float64)
    quals = np.array([p.quality for p in pts], dtype=np.float64)
    order = np.argsort(rates)
    rates, quals = rates[order], quals[order]
    if np.any(np.diff(rates) == 0):
        raise ValueError(f"curve {label} has duplicate rates")
    if np.any(np.diff(quals) < 0):
        raise ValueError(f"curve {label} quality is not non-decreasing in rate")
    return np.log10(rates), quals


def _mean_fit_gap(
    x_a: np.ndarray, y_a: np.ndarray, x_b: np.ndarray, y_b: np.ndarray, degree: int
) -> tuple[float, tuple[float, float]]:
    lo = max(x_a.min(), x_b.min())
    hi = min(x_a.max(), x_b.max())
    if hi <= lo:
        raise ValueError("curves do not overlap on the integration axis")
    gap = 0.0
    for x, y, sign in ((x_b, y_b, 1.0), (x_a, y_a, -1.0)):
        integral = np.polyint(np.polyfit(x, y, degree))
        gap += sign * (np.polyval(integral, hi) - np.polyval(integral, lo))
    return gap / (hi - lo), (float(lo), float(hi))


def bd_metrics(curve_a, curve_b) -> BdResult:
    """Bjontegaard deltas of curve B relative to curve A."""
    log_a, psnr_a = _clean_curve(curve_a, "A")
    log_b, psnr_b = _clean_curve(curve_b, "B")
    degree = min(3, min(log_a.size, log_b.size) - 1)
    delta_psnr, rate_overlap = _mean_fit_gap(log_a, psnr_a, log_b, psnr_b, degree)
    delta_log_rate, quality_overlap = _mean_fit_gap(
        psnr_a, log_a, psnr_b, log_b, degree
    )
    return BdResult(
        bd_rate=float((10.0**delta_log_rate - 1.0) * 100.0),
        bd_psnr=float(delta_psnr),
        rate_overlap=rate_overlap,
        quality_overlap=quality_overlap,
        fit_degree=degree,
        low_order=degree < 3,
    )


def rd_sweep(
    lf: LightField,
    model,
    config,
    qualities=None,
    workers: int = 1,
) -> list[tuple[int, RdPoint]]:
    """Encode/decode the light field at each quality and measure (bpp, PSNR).

    The rate is the written container's length. The quality comes from the
    encoder's own level payloads through the decoder's back half
    (pipeline.decode_payloads), so no point parses or entropy-decodes the
    bytes it just wrote; the coder is lossless, and a test pins the rows
    equal to decoding the container.

    Every quality maps to its quantizer depth before any encode starts; two
    qualities on one depth would code the same rate twice, which the BD fit
    rejects, so they raise ValueError up front, as does workers < 1. Quality
    settings may run on parallel workers; each setting's encode is fully
    deterministic, and rows come back sorted by rate, so the output is
    independent of worker count and completion order. The workers are
    threads that share the GIL: on a 2-vCPU host 2 or 3 of them made every
    benchmark sweep 1.3-3.4x slower than 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    qualities = tuple(qualities if qualities is not None else config.qualities)
    if not qualities:
        raise ValueError("quality list is empty")
    bits = {qp: quant_bits_for_qp(qp) for qp in qualities}
    if len(set(bits.values())) < len(qualities):
        raise ValueError(
            f"qualities {qualities} repeat a quantizer depth: "
            f"{[bits[qp] for qp in qualities]} bits"
        )

    def measure(qp: int) -> tuple[int, RdPoint]:
        encoded = pipeline.encode_light_field(lf, model, config, quant_bits=bits[qp])
        decoded = pipeline.decode_payloads(encoded.header, encoded.payloads, model)
        rate = bits_per_pixel_of(encoded.container, lf)
        quality = psnr_masked(lf.samples, decoded.light_field.samples, decoded.mask)
        return qp, RdPoint(rate=rate, quality=float(quality))

    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(measure, qualities))
    else:
        rows = [measure(qp) for qp in qualities]
    rows.sort(key=lambda row: row[1].rate)
    return rows


def bits_per_pixel_of(container: bytes, lf: LightField) -> float:
    return bits_per_pixel(len(container), lf.angular_dims, lf.spatial_dims)


def sweep_csv(rows) -> str:
    """CSV with header quality,bpp,psnr_db; one row per sweep setting."""
    out = io.StringIO()
    out.write("quality,bpp,psnr_db\n")
    for quality, point in rows:
        out.write(f"{quality},{point.rate:.8f},{point.quality:.6f}\n")
    return out.getvalue()


def read_sweep_csv(text: str) -> list[tuple[int, RdPoint]]:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != "quality,bpp,psnr_db":
        raise ValueError("expected CSV header 'quality,bpp,psnr_db'")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"malformed CSV row: {line!r}")
        rows.append((int(fields[0]), RdPoint(float(fields[1]), float(fields[2]))))
    return rows


def bd_report(result: BdResult, label_a: str = "A", label_b: str = "B") -> str:
    lines = [
        f"BD metrics of {label_b} against {label_a}",
        f"  BD-Rate : {result.bd_rate:+10.4f} %",
        f"  BD-PSNR : {result.bd_psnr:+10.4f} dB",
        f"  overlap : log10(bpp) [{result.rate_overlap[0]:.4f}, {result.rate_overlap[1]:.4f}]"
        f", PSNR [{result.quality_overlap[0]:.2f}, {result.quality_overlap[1]:.2f}] dB",
        f"  fit     : degree {result.fit_degree}"
        + ("  (low-order fallback, < 4 points)" if result.low_order else ""),
    ]
    return "\n".join(lines)


def gnuplot_script(csv_paths, labels) -> str:
    """Gnuplot commands plotting each sweep CSV as one RD curve into
    rd_curves.png."""
    if len(csv_paths) != len(labels):
        raise ValueError("need one label per CSV path")
    plots = ", \\\n     ".join(
        f"'{path}' using 2:3 with linespoints title '{label}'"
        for path, label in zip(csv_paths, labels)
    )
    return "\n".join(
        [
            "set datafile separator ','",
            "set output 'rd_curves.png'",
            "set terminal pngcairo size 900,600",
            "set xlabel 'bits per pixel'",
            "set ylabel 'PSNR (dB)'",
            "set key bottom right",
            "set grid",
            f"plot {plots}",
            "",
        ]
    )
