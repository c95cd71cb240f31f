"""End-to-end codec pipeline: light field -> layers -> WBI -> DBN -> bytes.

Encoding runs the stages in order: fit additive display layers to the light
field, factor the layer stack into scalable weighted-binary levels, squeeze
each basis image through the autoencoder patch by patch, quantize the latent
codes, and entropy-code everything into the progressive container. Decoding
mirrors the chain from whichever prefix of the container survived: it parses
the sections back into level payloads, then runs one back half
(decode_payloads) that rebuilds the levels and renders the field. An RD
sweep feeds that back half the encoder's own payloads and skips the parse;
a test pins that this equals decoding the written bytes, bit for bit.

The autoencoder is an input here, not a byproduct: models are trained once
per dataset family with train_autoencoder and shipped alongside the
bitstreams, the way an offline-trained codec component normally is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import bitstream, dbn, wbi
from .config import PipelineConfig, default_config
from .errors import DataError
from .layers import LayerStack, optimize_layers, render_additive
from .lightfield import LightField

__all__ = [
    "EncodeResult",
    "DecodeResult",
    "encode_light_field",
    "decode_light_field",
    "decode_payloads",
    "train_autoencoder",
    "training_images_from_light_field",
    "collect_training_patches",
    "model_layout",
    "unit_normalize",
]


@dataclass(frozen=True)
class EncodeResult:
    container: bytes
    header: bitstream.ContainerHeader
    layers: LayerStack
    wbi_code: wbi.WbiCode
    payloads: tuple[bitstream.LevelPayload, ...]  # what write_container packed
    timings: dict[str, float]


@dataclass(frozen=True)
class DecodeResult:
    light_field: LightField
    mask: np.ndarray  # (T, S, H, W) validity of the additive model
    layers: LayerStack
    wbi_code: wbi.WbiCode
    levels_used: int
    header: bitstream.ContainerHeader


def model_layout(model: dbn.Autoencoder) -> tuple[int, tuple[int, ...]]:
    """(patch size, encoder layer sizes F1..F4) implied by a model."""
    input_units = model.input_units
    patch = int(round(input_units**0.5))
    if patch * patch != input_units:
        raise DataError(f"model input width {input_units} is not a square patch")
    sizes = model.sizes[1 : model.encoder_depth + 1]
    return patch, tuple(sizes)


def unit_normalize(images: np.ndarray, records: np.ndarray) -> np.ndarray:
    """Map images (..., H, W) to [0, 1] by their (..., 2) (min, max) records.

    Flat images (max == min) map to zero.
    """
    lo, hi = records[..., 0, None, None], records[..., 1, None, None]
    span = hi - lo
    return np.where(span > 0, (images - lo) / np.where(span > 0, span, 1.0), 0.0)


def _analyze(
    lf: LightField, config: PipelineConfig
) -> tuple[LayerStack, wbi.WbiCode, dict[str, float]]:
    """The encoder front half: layer solve, then the scalable WBI factorization.

    Returns the layers, the WBI code and the two stage times in seconds.
    """
    tick = time.perf_counter()
    stack, _ = optimize_layers(lf, config.depths, config.solver)
    solved = time.perf_counter()
    code = wbi.encode_scalable(stack.images, config.wbi)
    timings = {"layers": solved - tick, "wbi": time.perf_counter() - solved}
    return stack, code, timings


def _level_symbols(
    level: wbi.WbiLevel, model: dbn.Autoencoder, patch: int, quant_bits: int
) -> np.ndarray:
    """Quantized latent symbols for every basis image of one level."""
    H, W = level.basis.shape[2:]
    unit = unit_normalize(level.basis, level.norm_records).reshape(-1, H, W)
    chunks = [
        dbn.encode_patches(model, dbn.tile_patches(image, patch)).ravel()
        for image in unit
    ]
    if not chunks:
        return np.empty(0, dtype=np.uint32)
    return bitstream.quantize(np.concatenate(chunks), quant_bits)


def encode_light_field(
    lf: LightField,
    model: dbn.Autoencoder | None,
    config: PipelineConfig | None = None,
    quant_bits: int | None = None,
    lossless: bool = False,
) -> EncodeResult:
    """Run the full encoder at `quant_bits` (None: bitstream.DEFAULT_QUANT_BITS).

    A lossless container stores the raw basis images and needs no model; its
    header still records the quantizer depth. A field the container cannot
    hold (`bitstream.check_field_size`) raises ValueError before the layer
    solve.
    """
    config = config or default_config()
    bits = bitstream.DEFAULT_QUANT_BITS if quant_bits is None else quant_bits
    bitstream.check_quant_bits(bits)
    bitstream.check_field_size(lf.angular_dims, lf.spatial_dims, lf.channels)
    if model is None and not lossless:
        raise DataError("lossy encoding requires an autoencoder model")

    stack, code, timings = _analyze(lf, config)

    if lossless:
        patch, layer_sizes = config.dbn.patch, config.dbn.layer_sizes
    else:
        patch, layer_sizes = model_layout(model)
    W, H = lf.spatial_dims
    header = bitstream.ContainerHeader(
        angular_dims=lf.angular_dims,
        spatial_dims=(W, H),
        channels=lf.channels,
        depths=stack.depths,
        partition=code.partition,
        patch=patch,
        layer_sizes=layer_sizes,
        quant_bits=bits,
        lossless=lossless,
        norm_records=np.concatenate([lvl.norm_records for lvl in code.levels]),
    )

    tick = time.perf_counter()
    payloads = []
    for level in code.levels:
        if lossless:
            payloads.append(
                bitstream.LevelPayload(codes=level.codes, basis_raw=level.basis)
            )
        else:
            payloads.append(
                bitstream.LevelPayload(
                    codes=level.codes,
                    symbols=_level_symbols(level, model, patch, bits),
                )
            )
    timings["latent"] = time.perf_counter() - tick

    tick = time.perf_counter()
    container = bitstream.write_container(header, payloads)
    timings["container"] = time.perf_counter() - tick

    return EncodeResult(
        container=container,
        header=header,
        layers=stack,
        wbi_code=code,
        payloads=tuple(payloads),
        timings=timings,
    )


def _level_from_payload(
    header: bitstream.ContainerHeader,
    payload: bitstream.LevelPayload,
    level_index: int,
    model: dbn.Autoencoder | None,
) -> wbi.WbiLevel:
    n = header.partition[level_index]
    first = sum(header.partition[:level_index])
    records = header.norm_records[first : first + n]
    W, H = header.spatial_dims
    C = header.channels
    if header.lossless:
        basis = np.asarray(payload.basis_raw, dtype=np.float64)
    else:
        # _parse_section checked the symbol count; depatchify checks the tiling
        latent = bitstream.dequantize(payload.symbols, header.quant_bits)
        unit = np.stack([
            dbn.depatchify(dbn.decode_patches(model, codes), header.patch, (H, W))
            for codes in latent.reshape(n * C, -1, header.layer_sizes[-1])
        ])
        lo, hi = records[..., 0, None, None], records[..., 1, None, None]
        basis = unit.reshape(n, C, H, W) * (hi - lo) + lo
    return wbi.WbiLevel(
        components=tuple(range(first, first + n)),
        codes=payload.codes,
        basis=basis,
        norm_records=records,
    )


def decode_light_field(
    data: bytes,
    model: dbn.Autoencoder | None = None,
    max_level: int | None = None,
) -> DecodeResult:
    """Decode a container (or any section-aligned prefix of one).

    A lossy container's model layout is checked against the header before
    any section is entropy-decoded.
    """
    header = bitstream.read_header(data)
    if not header.lossless:
        if model is None:
            raise DataError("lossy decoding requires the autoencoder model")
        patch, layer_sizes = model_layout(model)
        if patch != header.patch or layer_sizes != header.layer_sizes:
            raise DataError(
                f"model layout (p={patch}, {layer_sizes}) does not match "
                f"container (p={header.patch}, {header.layer_sizes})"
            )
    decoded = bitstream.read_container(data, max_level)
    return decode_payloads(header, decoded.payloads, model)


def decode_payloads(
    header: bitstream.ContainerHeader,
    payloads: tuple[bitstream.LevelPayload, ...],
    model: dbn.Autoencoder | None,
) -> DecodeResult:
    """The decoder's back half: rebuild the first len(payloads) levels and
    render the field.

    The payloads are either parsed from a container or an encoder's own
    (EncodeResult.payloads); the entropy coder is lossless, so both decode
    to the same field bit for bit. A lossy model must match the header's
    layout, which decode_light_field checks before it parses.
    """
    levels = [
        _level_from_payload(header, payload, index, model)
        for index, payload in enumerate(payloads)
    ]
    W, H = header.spatial_dims
    code = wbi.WbiCode(
        stack_size=header.layer_count,
        image_shape=(header.channels, H, W),
        levels=tuple(levels),
    )
    images = wbi.decode_levels(code, len(levels))
    images = np.clip(images, 0.0, header.layer_bound)
    stack = LayerStack(header.depths, images)
    rendered, mask = render_additive(stack, header.angular_dims)
    lf = LightField(samples=np.clip(rendered, 0.0, 1.0, out=rendered))
    return DecodeResult(
        light_field=lf,
        mask=mask,
        layers=stack,
        wbi_code=code,
        levels_used=len(levels),
        header=header,
    )


def training_images_from_light_field(
    lf: LightField, config: PipelineConfig | None = None
) -> list[np.ndarray]:
    """Unit-normalized basis images from running the front half of the encoder.

    This is the same distribution the autoencoder sees at coding time, which
    beats training on raw views.
    """
    config = config or default_config()
    _, code, _ = _analyze(lf, config)
    images = []
    for level in code.levels:
        unit = unit_normalize(level.basis, level.norm_records)
        images.extend(unit.reshape(-1, *unit.shape[2:]))
    return images


def collect_training_patches(images, config: dbn.DbnConfig) -> np.ndarray:
    """Stride-sampled, variance-filtered patch vectors from [0,1] images."""
    chunks = [
        dbn.training_patches(image, config.patch, config.stride, config.variance_threshold)
        for image in images
    ]
    if not sum(len(chunk) for chunk in chunks):
        raise DataError(
            "no training patches survived the variance filter; lower "
            "dbn.variance_threshold or dbn.stride"
        )
    return np.concatenate(chunks, axis=0)


def train_autoencoder(patches: np.ndarray, config: dbn.DbnConfig) -> dbn.Autoencoder:
    """Greedy CD pretraining, unrolling, and backprop fine-tuning."""
    patches = np.asarray(patches, dtype=np.float64)
    if patches.ndim != 2 or patches.shape[0] == 0:
        raise DataError(f"training patches must be (count, p*p), got {patches.shape}")
    if patches.shape[1] != config.patch * config.patch:
        raise DataError(
            f"patch vectors are {patches.shape[1]} wide, config wants "
            f"{config.patch * config.patch}"
        )
    stack = dbn.pretrain_stack(patches, config)
    return dbn.finetune(dbn.unroll(stack), patches, config)
