"""Bjontegaard deltas against closed forms and an independent fit oracle."""

import numpy as np
import pytest

from conftest import centered_depths, random_truth_field
from lflc import bitstream, metrics, pipeline
from lflc.config import DEFAULT_QP_GRID, PipelineConfig, quant_bits_for_qp
from lflc.dbn import Autoencoder, DbnConfig
from lflc.layers import SolverConfig
from lflc.lightfield import psnr_masked
from lflc.metrics import (
    BdResult,
    RdPoint,
    bd_metrics,
    bd_report,
    gnuplot_script,
    rd_sweep,
    read_sweep_csv,
    sweep_csv,
)
from lflc.wbi import WbiConfig

RATES = (0.5, 1.0, 2.0, 4.0, 8.0)


def affine_curve(slope, intercept, rates=RATES):
    return [RdPoint(r, slope * np.log10(r) + intercept) for r in rates]


def reference_bd(curve_a, curve_b, degree):
    """Independent Bjontegaard evaluation: Polynomial.fit + dense trapezoid."""
    xa = np.log10([p.rate for p in curve_a])
    ya = np.array([p.quality for p in curve_a])
    xb = np.log10([p.rate for p in curve_b])
    yb = np.array([p.quality for p in curve_b])

    def mean_gap(x1, y1, x2, y2):
        lo = max(x1.min(), x2.min())
        hi = min(x1.max(), x2.max())
        grid = np.linspace(lo, hi, 200_001)
        fit1 = np.polynomial.Polynomial.fit(x1, y1, degree)
        fit2 = np.polynomial.Polynomial.fit(x2, y2, degree)
        return float(np.trapezoid(fit2(grid) - fit1(grid), grid) / (hi - lo))

    bd_psnr = mean_gap(xa, ya, xb, yb)
    bd_rate = (10.0 ** mean_gap(ya, xa, yb, xb) - 1.0) * 100.0
    return bd_rate, bd_psnr


class TestBdClosedForms:
    def test_identical_curves_are_zero(self):
        curve = affine_curve(10.0, 30.0)
        result = bd_metrics(curve, curve)
        assert abs(result.bd_rate) <= 1e-9
        assert abs(result.bd_psnr) <= 1e-9

    def test_constant_quality_offset(self):
        base = affine_curve(10.0, 30.0)
        lifted = affine_curve(10.0, 33.0)
        result = bd_metrics(base, lifted)
        np.testing.assert_allclose(result.bd_psnr, 3.0, atol=1e-6)
        # +3 dB at slope 10 dB/decade saves 0.3 decades of rate
        np.testing.assert_allclose(
            result.bd_rate, (10.0**-0.3 - 1.0) * 100.0, rtol=1e-6
        )

    def test_constant_rate_scaling(self):
        gamma = 1.7
        base = affine_curve(10.0, 30.0)
        scaled = [RdPoint(p.rate * gamma, p.quality) for p in base]
        result = bd_metrics(base, scaled)
        np.testing.assert_allclose(result.bd_rate, (gamma - 1.0) * 100.0, rtol=1e-6)
        np.testing.assert_allclose(result.bd_psnr, -10.0 * np.log10(gamma), atol=1e-6)

    def test_curved_case_matches_independent_fit(self):
        rng = np.random.default_rng(60)
        rates = np.array([0.25, 0.5, 1.1, 2.3, 4.9, 9.7])
        curve_a = [
            RdPoint(r, 28.0 + 9.0 * np.log10(r) + 0.8 * np.log10(r) ** 2)
            for r in rates
        ]
        curve_b = [
            RdPoint(r, 30.5 + 8.0 * np.log10(r) - 0.5 * np.log10(r) ** 3)
            for r in rates * rng.uniform(1.05, 1.15)
        ]
        result = bd_metrics(curve_a, curve_b)
        ref_rate, ref_psnr = reference_bd(curve_a, curve_b, result.fit_degree)
        np.testing.assert_allclose(result.bd_psnr, ref_psnr, atol=1e-3)
        np.testing.assert_allclose(result.bd_rate, ref_rate, atol=1e-3)

    def test_antisymmetry(self):
        curve_a = affine_curve(10.0, 30.0)
        curve_b = [
            RdPoint(r * 1.3, 9.5 * np.log10(r) + 31.0) for r in RATES
        ]
        ab = bd_metrics(curve_a, curve_b)
        ba = bd_metrics(curve_b, curve_a)
        np.testing.assert_allclose(ab.bd_psnr, -ba.bd_psnr, atol=1e-9)
        np.testing.assert_allclose(
            (1.0 + ab.bd_rate / 100.0) * (1.0 + ba.bd_rate / 100.0), 1.0, rtol=1e-9
        )

    def test_tuple_points_accepted(self):
        curve = [(r, 10 * np.log10(r) + 30) for r in RATES]
        result = bd_metrics(curve, curve)
        assert abs(result.bd_rate) <= 1e-9


class TestBdValidation:
    def test_needs_three_points(self):
        short = affine_curve(10.0, 30.0, rates=(1.0, 2.0))
        with pytest.raises(ValueError):
            bd_metrics(short, affine_curve(10.0, 30.0))

    def test_duplicate_rates_rejected(self):
        dupes = [RdPoint(1.0, 30.0), RdPoint(1.0, 31.0), RdPoint(2.0, 33.0)]
        with pytest.raises(ValueError):
            bd_metrics(dupes, affine_curve(10.0, 30.0))

    def test_quality_must_not_decrease_with_rate(self):
        bad = [RdPoint(1.0, 32.0), RdPoint(2.0, 31.0), RdPoint(4.0, 33.0)]
        with pytest.raises(ValueError):
            bd_metrics(bad, affine_curve(10.0, 30.0))

    def test_disjoint_rate_ranges_rejected(self):
        low = affine_curve(10.0, 30.0, rates=(0.1, 0.2, 0.4))
        high = affine_curve(10.0, 30.0, rates=(10.0, 20.0, 40.0))
        with pytest.raises(ValueError):
            bd_metrics(low, high)

    def test_low_order_flag_on_three_points(self):
        a = affine_curve(10.0, 30.0, rates=(1.0, 2.0, 4.0))
        b = affine_curve(10.0, 31.0, rates=(1.0, 2.0, 4.0))
        result = bd_metrics(a, b)
        assert result.fit_degree == 2
        assert result.low_order
        full = bd_metrics(affine_curve(10.0, 30.0), affine_curve(10.0, 31.0))
        assert full.fit_degree == 3
        assert not full.low_order

    def test_rd_point_validation(self):
        with pytest.raises(ValueError):
            RdPoint(0.0, 30.0)
        with pytest.raises(ValueError):
            RdPoint(-1.0, 30.0)
        with pytest.raises(ValueError):
            RdPoint(1.0, np.inf)


class TestCsv:
    def test_roundtrip(self):
        rows = [
            (10, RdPoint(0.25, 31.5)),
            (26, RdPoint(0.125, 28.25)),
        ]
        text = sweep_csv(rows)
        assert text.splitlines()[0] == "quality,bpp,psnr_db"
        back = read_sweep_csv(text)
        assert [q for q, _ in back] == [10, 26]
        for (_, sent), (_, got) in zip(rows, back):
            np.testing.assert_allclose(got.rate, sent.rate, atol=1e-8)
            np.testing.assert_allclose(got.quality, sent.quality, atol=1e-6)

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            read_sweep_csv("qp,rate,psnr\n10,0.25,31.5\n")
        with pytest.raises(ValueError):
            read_sweep_csv("quality,bpp,psnr_db\n10,0.25\n")

    def test_default_grid_spans_qp_range(self):
        assert DEFAULT_QP_GRID == (2, 6, 10, 14, 18, 22, 26, 32, 36, 40, 44, 48)


class TestReports:
    def test_bd_report_mentions_labels_and_values(self):
        result = BdResult(
            bd_rate=-12.3456, bd_psnr=0.789, rate_overlap=(-1.0, 1.0),
            quality_overlap=(28.0, 38.0), fit_degree=3, low_order=False,
        )
        text = bd_report(result, "anchor", "proposed")
        assert "proposed against anchor" in text
        assert "-12.3456" in text and "+0.7890" in text
        assert "low-order" not in text
        flagged = BdResult(
            bd_rate=0.0, bd_psnr=0.0, rate_overlap=(0.0, 1.0),
            quality_overlap=(30.0, 31.0), fit_degree=2, low_order=True,
        )
        assert "low-order" in bd_report(flagged)

    def test_gnuplot_script_lists_every_curve(self):
        script = gnuplot_script(["a.csv", "b.csv"], ["ours", "anchor"])
        assert "'a.csv' using 2:3" in script
        assert "title 'anchor'" in script
        assert "set output 'rd_curves.png'" in script
        with pytest.raises(ValueError):
            gnuplot_script(["a.csv"], ["one", "two"])


def sweep_inputs():
    """A 3x3-view field, a random 16-6-8-4-2 model and a fast two-level config."""
    rng = np.random.default_rng(61)
    lf, _, _ = random_truth_field(
        rng, layer_count=2, height=16, width=16, views=(3, 3)
    )
    model_rng = np.random.default_rng(62)
    dims = (16, 6, 8, 4, 2, 4, 8, 6, 16)
    weights = tuple(
        model_rng.normal(0, 0.3, (dims[i + 1], dims[i]))
        for i in range(len(dims) - 1)
    )
    biases = tuple(np.zeros(dims[i + 1]) for i in range(len(dims) - 1))
    model = Autoencoder(weights=weights, biases=biases)
    config = PipelineConfig(
        solver=SolverConfig(max_iterations=15),
        wbi=WbiConfig(components=2, partition=(1, 1)),
        dbn=DbnConfig(layer_sizes=(6, 8, 4, 2), patch=4),
        depths=centered_depths(2),
    )
    return lf, model, config


class TestRdSweep:
    def test_rows_independent_of_worker_count(self):
        lf, model, config = sweep_inputs()
        serial = rd_sweep(lf, model, config, qualities=(10, 26, 40), workers=1)
        threaded = rd_sweep(lf, model, config, qualities=(10, 26, 40), workers=3)
        assert serial == threaded
        rates = [point.rate for _, point in serial]
        assert rates == sorted(rates)

    def test_rows_equal_decoding_the_written_containers(self, monkeypatch):
        lf, model, config = sweep_inputs()
        reference = []
        for qp in (10, 26, 40):
            bits = quant_bits_for_qp(qp)
            encoded = pipeline.encode_light_field(lf, model, config, quant_bits=bits)
            decoded = pipeline.decode_light_field(encoded.container, model)
            quality = psnr_masked(lf.samples, decoded.light_field.samples, decoded.mask)
            rate = metrics.bits_per_pixel_of(encoded.container, lf)
            reference.append((qp, RdPoint(rate=rate, quality=float(quality))))
        reference.sort(key=lambda row: row[1].rate)

        def no_parse(*args, **kwargs):
            raise AssertionError("the sweep parsed a container")

        monkeypatch.setattr(bitstream, "read_container", no_parse)
        for workers in (1, 3):
            rows = rd_sweep(lf, model, config, qualities=(10, 26, 40), workers=workers)
            assert rows == reference

    def test_empty_quality_list_rejected(self):
        rng = np.random.default_rng(63)
        lf, _, _ = random_truth_field(
            rng, layer_count=2, height=8, width=8, views=(3, 3)
        )
        config = PipelineConfig(
            solver=SolverConfig(max_iterations=2),
            wbi=WbiConfig(components=2, partition=(1, 1)),
            dbn=DbnConfig(layer_sizes=(6, 8, 4, 2), patch=4),
            depths=centered_depths(2),
        )
        with pytest.raises(ValueError):
            rd_sweep(lf, None, config, qualities=())

    def test_repeated_depth_rejected_before_any_solve(self, monkeypatch):
        rng = np.random.default_rng(64)
        lf, _, _ = random_truth_field(
            rng, layer_count=2, height=8, width=8, views=(3, 3)
        )
        config = PipelineConfig(
            solver=SolverConfig(max_iterations=2),
            wbi=WbiConfig(components=2, partition=(1, 1)),
            dbn=DbnConfig(layer_sizes=(6, 8, 4, 2), patch=4),
            depths=centered_depths(2),
        )
        solves = []
        monkeypatch.setattr(
            metrics.pipeline, "optimize_layers", lambda *a, **k: solves.append(a)
        )
        with pytest.raises(ValueError, match="repeat a quantizer depth"):
            rd_sweep(lf, None, config, qualities=(26, 28))  # both 8 bits
        assert solves == []
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                rd_sweep(lf, None, config, qualities=(10, 26), workers=workers)
        assert solves == []
