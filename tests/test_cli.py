"""Command-line interface: subcommands, exit codes, determinism."""

import time

import numpy as np
import pytest

from conftest import random_truth_field
from test_pipeline import oversized_layout_container
from lflc import cli, dbn
from lflc.bitstream import truncate_container
from lflc.cli import DATA_EXIT, INTERNAL_EXIT, USAGE_EXIT, main
from lflc.lightfield import save_light_field


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A saved light field, a compatible model file, and a speed config."""
    base = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(90)
    lf, _, _ = random_truth_field(
        rng, layer_count=2, height=16, width=16, views=(3, 3)
    )
    field_dir = base / "field"
    field_dir.mkdir()
    save_light_field(lf, field_dir)

    dims = (16, 6, 8, 4, 2, 4, 8, 6, 16)
    weights = tuple(
        rng.normal(0, 0.3, (dims[i + 1], dims[i])) for i in range(len(dims) - 1)
    )
    biases = tuple(np.zeros(dims[i + 1]) for i in range(len(dims) - 1))
    model_path = base / "model.dbn"
    dbn.save_model(model_path, dbn.Autoencoder(weights=weights, biases=biases))

    config_path = base / "fast.cfg"
    config_path.write_text(
        "solver.max_iterations = 15\n"
        "solver.depths = -1,0\n"
        "wbi.components = 2\n"
        "wbi.partition = 1,1\n"
        "dbn.layer_sizes = 6,8,4,2\n"
        "dbn.patch = 4\n"
    )
    return {
        "base": base,
        "manifest": str(field_dir / "manifest.txt"),
        "model": str(model_path),
        "config": str(config_path),
    }


def encode_args(workdir, out, extra=()):
    return [
        "encode",
        "--manifest", workdir["manifest"],
        "--model", workdir["model"],
        "--config", workdir["config"],
        "--out", str(out),
        *extra,
    ]


class TestEncodeDecode:
    def test_encode_writes_container(self, workdir, tmp_path, capsys):
        out = tmp_path / "field.lflc"
        assert main(encode_args(workdir, out, ["--qp", "26"])) == 0
        text = capsys.readouterr().out
        assert out.exists() and out.stat().st_size > 0
        assert "# resolved configuration" in text
        assert "bytes=" in text and "bpp=" in text

    def test_encode_verify_reports_psnr(self, workdir, tmp_path, capsys):
        out = tmp_path / "field.lflc"
        code = main(encode_args(workdir, out, ["--qp", "26", "--verify"]))
        assert code == 0
        assert "verify psnr=" in capsys.readouterr().out

    def test_encode_verify_decodes_the_written_bytes(self, workdir, tmp_path,
                                                     monkeypatch):
        parses = []
        read_container = cli.pipeline.bitstream.read_container

        def counted(data, *args):
            parses.append(bytes(data))
            return read_container(data, *args)

        monkeypatch.setattr(cli.pipeline.bitstream, "read_container", counted)
        out = tmp_path / "field.lflc"
        assert main(encode_args(workdir, out, ["--qp", "26", "--verify"])) == 0
        assert parses == [out.read_bytes()]

    def test_encode_is_deterministic(self, workdir, tmp_path):
        first = tmp_path / "a.lflc"
        second = tmp_path / "b.lflc"
        assert main(encode_args(workdir, first, ["--qp", "26"])) == 0
        assert main(encode_args(workdir, second, ["--qp", "26"])) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_lossless_needs_no_model(self, workdir, tmp_path):
        out = tmp_path / "raw.lflc"
        args = [
            "encode",
            "--manifest", workdir["manifest"],
            "--config", workdir["config"],
            "--out", str(out),
            "--lossless",
        ]
        assert main(args) == 0
        assert out.exists()

    def test_lossy_without_model_is_data_error(self, workdir, tmp_path):
        args = [
            "encode",
            "--manifest", workdir["manifest"],
            "--config", workdir["config"],
            "--out", str(tmp_path / "x.lflc"),
            "--qp", "26",
        ]
        assert main(args) == DATA_EXIT

    def test_decode_writes_views(self, workdir, tmp_path, capsys):
        out = tmp_path / "field.lflc"
        main(encode_args(workdir, out, ["--qp", "26"]))
        capsys.readouterr()
        view_dir = tmp_path / "views"
        args = [
            "decode",
            "--container", str(out),
            "--model", workdir["model"],
            "--out-dir", str(view_dir),
            "--original", workdir["manifest"],
        ]
        assert main(args) == 0
        text = capsys.readouterr().out
        assert "decoded levels=2/2" in text
        assert "psnr_masked=" in text
        assert text.count("view s=") == 9
        assert len(list(view_dir.glob("*.pgm"))) == 9

    def test_decode_max_level_prefix(self, workdir, tmp_path, capsys):
        out = tmp_path / "field.lflc"
        main(encode_args(workdir, out, ["--qp", "26"]))
        capsys.readouterr()
        args = [
            "decode",
            "--container", str(out),
            "--model", workdir["model"],
            "--out-dir", str(tmp_path / "one"),
            "--max-level", "1",
        ]
        assert main(args) == 0
        assert "decoded levels=1/2" in capsys.readouterr().out

    def test_decode_truncated_container_is_data_error(self, workdir, tmp_path):
        out = tmp_path / "field.lflc"
        main(encode_args(workdir, out, ["--qp", "26"]))
        data = out.read_bytes()
        crippled = tmp_path / "cut.lflc"
        crippled.write_bytes(data[: len(data) - 7])
        args = [
            "decode",
            "--container", str(crippled),
            "--model", workdir["model"],
            "--out-dir", str(tmp_path / "views"),
        ]
        assert main(args) == DATA_EXIT


class TestLayersAndViews:
    def test_optimize_then_render(self, workdir, tmp_path, capsys):
        layer_dir = tmp_path / "layers"
        args = [
            "optimize-layers",
            "--manifest", workdir["manifest"],
            "--config", workdir["config"],
            "--out-dir", str(layer_dir),
        ]
        assert main(args) == 0
        assert "psnr_masked=" in capsys.readouterr().out
        assert list(layer_dir.glob("*.pgm"))

        view_path = tmp_path / "view.pgm"
        args = [
            "render-view",
            "--layers", str(layer_dir),
            "--angular", "3,3",
            "--s", "1", "--t", "1",
            "--out", str(view_path),
        ]
        assert main(args) == 0
        assert view_path.exists()
        assert "coverage=" in capsys.readouterr().out

    def test_render_view_out_of_grid(self, workdir, tmp_path, monkeypatch, capsys):
        layer_dir = tmp_path / "layers"
        main([
            "optimize-layers",
            "--manifest", workdir["manifest"],
            "--config", workdir["config"],
            "--out-dir", str(layer_dir),
        ])
        capsys.readouterr()
        renders = []  # the grid is checked before the S x T field is rendered
        monkeypatch.setattr(cli, "render_additive", lambda *a: renders.append(a))
        args = [
            "render-view",
            "--layers", str(layer_dir),
            "--angular", "3,3",
            "--s", "5", "--t", "0",
            "--out", str(tmp_path / "x.pgm"),
        ]
        assert main(args) == DATA_EXIT
        assert renders == []


class TestTraining:
    @staticmethod
    def train(workdir, model_path, *extra):
        return main([
            "train-dbn",
            "--manifest", workdir["manifest"],
            "--config", workdir["config"],
            "--set", "dbn.epochs=1",
            "--set", "dbn.stride=4",
            "--set", "dbn.variance_threshold=0",
            "--out", str(model_path),
            *extra,
        ])

    def test_train_dbn_writes_loadable_model(self, workdir, tmp_path, capsys):
        model_path = tmp_path / "trained.dbn"
        assert self.train(workdir, model_path, "--from-views") == 0
        assert "trained on" in capsys.readouterr().out
        model = dbn.load_model(model_path)
        assert model.sizes == (16, 6, 8, 4, 2, 4, 8, 6, 16)

    def test_train_dbn_on_basis_images(self, workdir, tmp_path, capsys):
        # the default path trains on the encoder's own basis images
        model_path = tmp_path / "trained.dbn"
        assert self.train(workdir, model_path) == 0
        # one image per WBI component (wbi.components = 2, one channel)
        assert "patches from 2 images" in capsys.readouterr().out
        model = dbn.load_model(model_path)
        assert model.sizes == (16, 6, 8, 4, 2, 4, 8, 6, 16)


class TestSweepAndBd:
    def test_sweep_writes_csv_and_script(self, workdir, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        plot_path = tmp_path / "sweep.gp"
        args = [
            "sweep",
            "--manifest", workdir["manifest"],
            "--model", workdir["model"],
            "--config", workdir["config"],
            "--qualities", "10,26,40",
            "--csv", str(csv_path),
            "--gnuplot", str(plot_path),
        ]
        assert main(args) == 0
        stdout = capsys.readouterr().out
        assert "quality,bpp,psnr_db" in stdout
        saved = csv_path.read_text()
        assert saved.splitlines()[0] == "quality,bpp,psnr_db"
        assert len(saved.splitlines()) == 4
        assert "plot" in plot_path.read_text()

    def test_sweep_workers_write_the_same_csv(self, workdir, tmp_path, capsys):
        texts = []
        for workers in ("1", "2"):
            csv_path = tmp_path / f"workers{workers}.csv"
            args = [
                "sweep",
                "--manifest", workdir["manifest"],
                "--model", workdir["model"],
                "--config", workdir["config"],
                "--qualities", "10,26,40",
                "--csv", str(csv_path),
                "--workers", workers,
            ]
            assert main(args) == 0
            texts.append(csv_path.read_text())
        assert texts[0] == texts[1]
        for workers in ("0", "-3"):
            assert main([*args[:-1], workers]) == DATA_EXIT
            assert "workers must be >= 1" in capsys.readouterr().err
        with pytest.raises(SystemExit) as info:  # only sweep reads it
            main(["--workers", "2", "sweep", *args[1:-2]])
        assert info.value.code == USAGE_EXIT
        capsys.readouterr()

    def test_sweep_with_repeated_depth_exits_2(self, workdir, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        args = [
            "sweep",
            "--manifest", workdir["manifest"],
            "--model", workdir["model"],
            "--config", workdir["config"],
            "--qualities", "26,28",
            "--csv", str(csv_path),
        ]
        assert main(args) == DATA_EXIT
        assert not csv_path.exists()

    def test_gnuplot_requires_csv(self, workdir, tmp_path):
        args = [
            "sweep",
            "--manifest", workdir["manifest"],
            "--model", workdir["model"],
            "--config", workdir["config"],
            "--qualities", "10,26",
            "--gnuplot", str(tmp_path / "x.gp"),
        ]
        assert main(args) == DATA_EXIT

    def test_bd_report_from_csv_pair(self, tmp_path, capsys):
        rates = (0.5, 1.0, 2.0, 4.0)
        anchor = tmp_path / "anchor.csv"
        anchor.write_text(
            "quality,bpp,psnr_db\n"
            + "".join(
                f"{qp},{r:.8f},{10 * np.log10(r) + 30:.6f}\n"
                for qp, r in zip((40, 30, 20, 10), rates)
            )
        )
        test = tmp_path / "test.csv"
        test.write_text(
            "quality,bpp,psnr_db\n"
            + "".join(
                f"{qp},{r:.8f},{10 * np.log10(r) + 33:.6f}\n"
                for qp, r in zip((40, 30, 20, 10), rates)
            )
        )
        args = ["bd", "--anchor", str(anchor), "--test", str(test),
                "--label-a", "base", "--label-b", "ours"]
        assert main(args) == 0
        text = capsys.readouterr().out
        assert "ours against base" in text
        assert "BD-Rate" in text and "BD-PSNR" in text

    def test_bd_rejects_short_curves(self, tmp_path):
        short = tmp_path / "short.csv"
        short.write_text("quality,bpp,psnr_db\n10,0.5,30.0\n20,1.0,33.0\n")
        assert main(["bd", "--anchor", str(short), "--test", str(short)]) == DATA_EXIT


class TestInfo:
    def test_info_lists_sections(self, workdir, tmp_path, capsys):
        out = tmp_path / "field.lflc"
        main(encode_args(workdir, out, ["--qp", "26"]))
        capsys.readouterr()
        assert main(["info", "--container", str(out)]) == 0
        text = capsys.readouterr().out
        assert "section 1:" in text and "section 2:" in text
        assert "quant   : 8 bits" in text

    def test_info_describes_a_section_aligned_prefix(self, workdir, tmp_path, capsys):
        out = tmp_path / "field.lflc"
        main(encode_args(workdir, out, ["--qp", "26"]))
        capsys.readouterr()
        data = out.read_bytes()
        prefix = tmp_path / "level1.lflc"
        prefix.write_bytes(truncate_container(data, 1))
        assert main(["info", "--container", str(prefix)]) == 0
        text = capsys.readouterr().out
        assert "section 1:" in text and "section 2:" not in text
        padded = tmp_path / "padded.lflc"
        padded.write_bytes(data + b"junk")
        assert main(["info", "--container", str(padded)]) == DATA_EXIT
        assert "trailing" in capsys.readouterr().err

    def test_info_reads_no_entropy_stream(self, tmp_path, capsys):
        # the one section's stream would take seconds to decode, and fails
        path = tmp_path / "layout.lflc"
        path.write_bytes(oversized_layout_container())
        tick = time.perf_counter()
        assert main(["info", "--container", str(path)]) == 0
        assert time.perf_counter() - tick < 1.0
        text = capsys.readouterr().out
        assert "185 bytes" in text
        assert "section 1:" in text and "section 2:" not in text

    def test_info_on_garbage_is_data_error(self, tmp_path):
        bad = tmp_path / "junk.lflc"
        bad.write_bytes(b"not a container at all")
        assert main(["info", "--container", str(bad)]) == DATA_EXIT


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == USAGE_EXIT
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as info:
            main(["encode", "--manifest", workdir["manifest"], "--frobnicate"])
        assert info.value.code == USAGE_EXIT
        capsys.readouterr()

    def test_qp_and_bits_conflict_is_usage_error(self, workdir, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(encode_args(workdir, tmp_path / "x.lflc",
                             ["--qp", "26", "--bits", "8"]))
        assert info.value.code == USAGE_EXIT
        capsys.readouterr()

    def test_zero_bits_is_data_error(self, workdir, tmp_path, capsys):
        out = tmp_path / "x.lflc"
        assert main(encode_args(workdir, out, ["--bits", "0"])) == DATA_EXIT
        assert "quantizer bits" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        capsys.readouterr()

    def test_missing_input_file_is_data_error(self, workdir, tmp_path):
        args = [
            "encode",
            "--manifest", str(tmp_path / "absent" / "manifest.txt"),
            "--model", workdir["model"],
            "--out", str(tmp_path / "x.lflc"),
            "--qp", "26",
        ]
        assert main(args) == DATA_EXIT

    def test_unexpected_exception_is_internal_error(self, workdir, tmp_path,
                                                    monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli.pipeline, "encode_light_field", explode)
        code = main(encode_args(workdir, tmp_path / "x.lflc", ["--qp", "26"]))
        assert code == INTERNAL_EXIT
        assert "synthetic failure" in capsys.readouterr().err
