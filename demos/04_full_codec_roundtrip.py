"""End-to-end codec roundtrip with progressive truncation.

Encodes a synthetic light field to a container, then decodes the same
byte stream several ways: full quality, truncated to the first quality
level, and at a few quantizer settings. Prints a small rate/quality
table. Everything here is deterministic.
"""

import argparse

import numpy as np

from lflc.bitstream import bits_per_pixel, section_boundaries
from lflc.config import PipelineConfig
from lflc.dbn import DbnConfig
from lflc.layers import LayerStack, SolverConfig, render_additive
from lflc.lightfield import LightField, psnr_masked
from lflc.pipeline import (
    collect_training_patches,
    decode_light_field,
    encode_light_field,
    train_autoencoder,
    training_images_from_light_field,
)
from lflc.wbi import WbiConfig


def centered_depths(layer_count):
    return tuple(range(-(layer_count // 2), layer_count - layer_count // 2))


def make_field(seed, layer_count, size, views):
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    images = np.zeros((layer_count, 1, size, size))
    for k in range(layer_count):
        acc = np.zeros((size, size))
        for _ in range(4):
            fy, fx = rng.uniform(0.5, 2.5, 2)
            py, px = rng.uniform(0.0, 2.0 * np.pi, 2)
            acc += rng.uniform(0.3, 1.0) * np.cos(
                2.0 * np.pi * fy * yy / size + py
            ) * np.cos(2.0 * np.pi * fx * xx / size + px)
        acc -= acc.min()
        acc /= acc.max()
        images[k, 0] = acc / layer_count
    stack = LayerStack(centered_depths(layer_count), images)
    rendered, _ = render_additive(stack, (views, views))
    return LightField(samples=np.clip(rendered, 0.0, 1.0))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=32)
    ap.add_argument("--seed", type=int, default=21)
    args = ap.parse_args()

    field = make_field(args.seed, 2, args.size, 3)
    config = PipelineConfig(
        depths=centered_depths(2),
        solver=SolverConfig(max_iterations=200),
        wbi=WbiConfig(components=4, partition=(1, 3)),
        dbn=DbnConfig(
            layer_sizes=(12, 20, 8, 4), patch=4, stride=2,
            variance_threshold=0.0, epochs=30, learning_rate=0.1,
            momentum=0.9, batch_size=64, seed=5,
        ),
    )

    print("training patch autoencoder on the field's own layer factorization")
    images = training_images_from_light_field(field, config)
    patches = collect_training_patches(images, config.dbn)
    model = train_autoencoder(patches, config.dbn)

    result = encode_light_field(field, model, config, quant_bits=10)
    total = len(result.container)
    bpp = bits_per_pixel(total, field.angular_dims, field.spatial_dims)
    print(f"container: {total} bytes ({bpp:.3f} bpp), "
          f"sections at {section_boundaries(result.container)}")

    print("\n  stream            bytes   PSNR (dB)")
    full = decode_light_field(result.container, model)
    quality = psnr_masked(field.samples, full.light_field.samples, full.mask)
    print(f"  full              {total:6d}   {quality:8.2f}")

    cut = section_boundaries(result.container)[-2]
    partial = decode_light_field(result.container[:cut], model)
    quality = psnr_masked(field.samples, partial.light_field.samples, partial.mask)
    print(f"  level 1 of 2      {cut:6d}   {quality:8.2f}   (truncated prefix)")

    for bits in (2, 4, 8):
        res = encode_light_field(field, model, config, quant_bits=bits)
        dec = decode_light_field(res.container, model)
        quality = psnr_masked(field.samples, dec.light_field.samples, dec.mask)
        print(f"  Q={bits:2d}             {len(res.container):6d}   {quality:8.2f}")

    # same config, same model: containers are byte-identical across runs
    again = encode_light_field(field, model, config, quant_bits=10)
    assert again.container == result.container
    print("\nre-encode is byte-identical: ok")


if __name__ == "__main__":
    main()
