"""Command-line front end wiring the codec stages together.

Subcommands: encode, decode, optimize-layers, render-view, train-dbn,
sweep, bd, info. Reports go to stdout, diagnostics to stderr. Exit codes:
0 success, 1 usage, 2 bad data or configuration, 3 internal failure.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import bitstream, dbn, metrics, pipeline
from .config import (
    PipelineConfig,
    default_config,
    format_config,
    parse_entries,
    quant_bits_for_qp,
    read_config_file,
    resolve_config,
)
from .errors import DataError
from .layers import load_layer_stack, optimize_layers, render_additive, save_layer_stack
from .lightfield import (
    load_light_field,
    psnr,
    psnr_masked,
    read_manifest,
    save_light_field,
)
from .pnm import unit_to_image, write_pnm

USAGE_EXIT = 1
DATA_EXIT = 2
INTERNAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this tool reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _load_field(manifest_path):
    manifest = read_manifest(manifest_path)
    return load_light_field(manifest, Path(manifest_path).parent)


def _config_from(args) -> PipelineConfig:
    maps = []
    if getattr(args, "config", None):
        maps.append(read_config_file(args.config))
    if getattr(args, "set", None):
        maps.append(parse_entries(args.set, source="--set"))
    return resolve_config(*maps) if maps else default_config()


def _echo_config(config: PipelineConfig) -> None:
    print("# resolved configuration")
    print(format_config(config))


def _add_config_flags(parser) -> None:
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one configuration entry (repeatable)",
    )


def _cmd_encode(args) -> int:
    config = _config_from(args)
    lf = _load_field(args.manifest)
    lossless = True if args.lossless else None
    model = None
    needs_model = not (args.lossless or config.lossless)
    if args.model:
        model = dbn.load_model(args.model)
    elif needs_model:
        raise DataError("lossy encoding requires --model (or quantizer.lossless=true)")
    bits = args.bits if args.qp is None else quant_bits_for_qp(args.qp)
    _echo_config(config)
    result = pipeline.encode_light_field(
        lf, model, config, quant_bits=bits, lossless=lossless
    )
    Path(args.out).write_bytes(result.container)
    print("# encode")
    for stage, seconds in result.timings.items():
        print(f"{stage:<10}{seconds:8.3f} s")
    header = result.header
    print(
        f"levels={header.level_count} components={header.component_count} "
        f"layers={header.layer_count} quant_bits={header.quant_bits} "
        f"lossless={str(header.lossless).lower()}"
    )
    print(
        f"bytes={len(result.container)} bpp={result.bits_per_pixel:.6f} -> {args.out}"
    )
    if args.verify:
        decoded = pipeline.decode_light_field(result.container, model)
        quality = psnr_masked(lf, decoded.light_field, decoded.mask)
        print(f"verify psnr={quality:.4f} dB levels={decoded.levels_used}")
    return 0


def _cmd_decode(args) -> int:
    data = Path(args.container).read_bytes()
    model = dbn.load_model(args.model) if args.model else None
    result = pipeline.decode_light_field(data, model, max_level=args.max_level)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_light_field(result.light_field, out_dir, bit_depth=args.bit_depth)
    print(
        f"decoded levels={result.levels_used}/{result.header.level_count} "
        f"views={result.header.angular_dims[0]}x{result.header.angular_dims[1]} -> {out_dir}"
    )
    if args.original:
        original = _load_field(args.original)
        overall = psnr_masked(original, result.light_field, result.mask)
        print(f"psnr_masked={overall:.4f} dB")
        S, T = original.angular_dims
        for t in range(T):
            for s in range(S):
                view_quality = psnr(
                    original.samples[:, t, s], result.light_field.samples[:, t, s]
                )
                print(f"view s={s} t={t} psnr={view_quality:.4f} dB")
    return 0


def _cmd_optimize_layers(args) -> int:
    config = _config_from(args)
    lf = _load_field(args.manifest)
    _echo_config(config)
    tick = time.perf_counter()
    stack, history = optimize_layers(
        lf,
        layer_count=len(config.depths),
        depths=config.depths,
        config=config.solver,
    )
    elapsed = time.perf_counter() - tick
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_layer_stack(stack, out_dir)
    rendered, mask = render_additive(stack, lf.angular_dims)
    quality = psnr_masked(lf.samples, rendered, mask)
    print(
        f"layers={stack.layer_count} iterations={len(history) - 1} "
        f"loss={history[-1]:.6e} psnr_masked={quality:.4f} dB "
        f"time={elapsed:.3f} s -> {out_dir}"
    )
    return 0


def _cmd_render_view(args) -> int:
    stack = load_layer_stack(args.layers)
    try:
        S, T = (int(part) for part in args.angular.split(","))
    except ValueError as exc:
        raise DataError(f"--angular expects S,T integers: {exc}") from exc
    rendered, mask = render_additive(stack, (S, T))
    if not 0 <= args.s < S or not 0 <= args.t < T:
        raise DataError(f"view (s={args.s}, t={args.t}) outside {S}x{T} grid")
    view = np.clip(rendered[:, args.t, args.s], 0.0, 1.0)
    pixels = unit_to_image(view[0] if view.shape[0] == 1 else np.moveaxis(view, 0, -1))
    write_pnm(args.out, pixels)
    covered = float(mask[args.t, args.s].mean())
    print(f"rendered view s={args.s} t={args.t} coverage={covered:.3f} -> {args.out}")
    return 0


def _cmd_train_dbn(args) -> int:
    config = _config_from(args)
    lf = _load_field(args.manifest)
    _echo_config(config)
    tick = time.perf_counter()
    if args.from_views:
        W, H = lf.spatial_dims
        views = lf.samples.transpose(1, 2, 0, 3, 4).reshape(-1, H, W)
        records = np.stack([views.min(axis=(1, 2)), views.max(axis=(1, 2))], axis=-1)
        images = list(pipeline.unit_normalize(views, records))
    else:
        images = pipeline.training_images_from_light_field(lf, config)
    patches = pipeline.collect_training_patches(images, config.dbn)
    model = pipeline.train_autoencoder(patches, config.dbn)
    elapsed = time.perf_counter() - tick
    dbn.save_model(args.out, model)
    error = dbn.reconstruction_mse(model, patches)
    print(
        f"trained on {patches.shape[0]} patches from {len(images)} images "
        f"sizes={'-'.join(str(size) for size in model.sizes)} "
        f"mse={error:.6e} time={elapsed:.3f} s -> {args.out}"
    )
    return 0


def _cmd_sweep(args) -> int:
    config = _config_from(args)
    lf = _load_field(args.manifest)
    model = dbn.load_model(args.model)
    qualities = None
    if args.qualities:
        qualities = tuple(int(part) for part in args.qualities.split(","))
    _echo_config(config)
    rows = metrics.rd_sweep(lf, model, config, qualities=qualities, workers=args.workers)
    csv_text = metrics.sweep_csv(rows)
    print(csv_text, end="")
    if args.csv:
        Path(args.csv).write_text(csv_text, encoding="ascii")
        print(f"# csv -> {args.csv}", file=sys.stderr)
    if args.gnuplot:
        if not args.csv:
            raise DataError("--gnuplot needs --csv so the script has data to plot")
        script = metrics.gnuplot_script([args.csv], [Path(args.manifest).stem])
        Path(args.gnuplot).write_text(script, encoding="ascii")
        print(f"# gnuplot -> {args.gnuplot}", file=sys.stderr)
    return 0


def _cmd_bd(args) -> int:
    curve_a = [point for _, point in metrics.read_sweep_csv(Path(args.anchor).read_text())]
    curve_b = [point for _, point in metrics.read_sweep_csv(Path(args.test).read_text())]
    result = metrics.bd_metrics(curve_a, curve_b)
    print(metrics.bd_report(result, label_a=args.label_a, label_b=args.label_b))
    return 0


def _cmd_info(args) -> int:
    data = Path(args.container).read_bytes()
    decoded = bitstream.read_container(data)
    header = decoded.header
    boundaries = bitstream.section_boundaries(data)
    S, T = header.angular_dims
    W, H = header.spatial_dims
    print(f"container {args.container}: {len(data)} bytes, version {bitstream.VERSION}")
    print(f"  views   : {S}x{T}, {W}x{H} px, {header.channels} channel(s)")
    print(f"  layers  : K={header.layer_count} depths={list(header.depths)} bound={header.layer_bound:.6f}")
    print(f"  wbi     : N={header.component_count} partition={list(header.partition)}")
    print(f"  dbn     : patch={header.patch} sizes={list(header.layer_sizes)}")
    print(f"  quant   : {header.quant_bits} bits lossless={str(header.lossless).lower()}")
    previous = bitstream.packed_header_size(header)
    print(f"  header  : {previous} bytes")
    for index, end in enumerate(boundaries):
        print(f"  section {index + 1}: {end - previous} bytes")
        previous = end
    print(f"  bpp     : {bitstream.bits_per_pixel(len(data), (S, T), (W, H)):.6f}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="lflc", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, default=1, help="parallel workers where supported"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("encode", help="light field to progressive container")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", help="autoencoder model file (required unless lossless)")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--qp", type=int, help="quality parameter in [2, 48]")
    group.add_argument("--bits", type=int, help="quantizer bits in [2, 16]")
    p.add_argument("--lossless", action="store_true", help="store raw basis images")
    p.add_argument("--verify", action="store_true", help="decode and report PSNR")
    p.set_defaults(run=_cmd_encode)

    p = sub.add_parser("decode", help="container to view images")
    p.add_argument("--container", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--model", help="autoencoder model file (lossy containers)")
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--original", help="manifest for a PSNR report")
    p.add_argument("--bit-depth", type=int, default=8, choices=(8, 16))
    p.set_defaults(run=_cmd_decode)

    p = sub.add_parser("optimize-layers", help="fit additive display layers")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p)
    p.set_defaults(run=_cmd_optimize_layers)

    p = sub.add_parser("render-view", help="render one view from saved layers")
    p.add_argument("--layers", required=True, help="directory from optimize-layers")
    p.add_argument("--angular", required=True, metavar="S,T")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_render_view)

    p = sub.add_parser("train-dbn", help="train the patch autoencoder")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--from-views",
        action="store_true",
        help="train on normalized views instead of pipeline basis images",
    )
    _add_config_flags(p)
    p.set_defaults(run=_cmd_train_dbn)

    p = sub.add_parser("sweep", help="rate-distortion sweep to CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--qualities", help="comma-separated QP list")
    p.add_argument("--csv", help="also write the CSV here")
    p.add_argument("--gnuplot", help="write a gnuplot script here (needs --csv)")
    _add_config_flags(p)
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("bd", help="Bjontegaard metrics between two sweep CSVs")
    p.add_argument("--anchor", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--label-a", default="anchor")
    p.add_argument("--label-b", default="test")
    p.set_defaults(run=_cmd_bd)

    p = sub.add_parser("info", help="describe a container")
    p.add_argument("--container", required=True)
    p.set_defaults(run=_cmd_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (DataError, OSError, ValueError) as exc:
        print(f"lflc: error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except Exception:  # pragma: no cover - defensive catch-all
        traceback.print_exc(file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
