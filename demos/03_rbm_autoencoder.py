"""Pretrain a stack of RBMs and fine-tune the unrolled autoencoder.

Trains on synthetic image patches, comparing reconstruction error at
three stages: randomly initialized, after greedy layerwise contrastive
divergence pretraining, and after backprop fine-tuning. For a tiny RBM
the exact log-likelihood is also evaluated by brute force to show CD
actually climbs it.
"""

import argparse

import numpy as np

from lflc.dbn import (
    DbnConfig,
    RbmParams,
    cd_update,
    finetune,
    init_rbm,
    pretrain_stack,
    reconstruction_mse,
    unroll,
)
from lflc.wbi import bit_vectors


def sample_patches(rng, count, width):
    # oriented ridges with noise, loosely image-like
    yy, xx = np.meshgrid(np.arange(width), np.arange(width), indexing="ij")
    rows = np.empty((count, width * width))
    for i in range(count):
        angle = rng.uniform(0.0, np.pi)
        freq = rng.uniform(0.5, 1.5)
        shift = rng.uniform(0.0, 2.0 * np.pi)
        ridge = np.cos(
            2.0 * np.pi * freq * (np.cos(angle) * yy + np.sin(angle) * xx) / width
            + shift
        )
        rows[i] = (0.5 + 0.4 * ridge).ravel()
    rows += 0.02 * rng.standard_normal(rows.shape)
    return np.clip(rows, 0.0, 1.0)


def exact_mean_log_likelihood(params, data):
    # enumerate every (v, h) state pair, each in integer order with the first
    # unit most significant, and normalize the Boltzmann weights exp(-E(v, h))
    vs, hs = bit_vectors(params.visible_units), bit_vectors(params.hidden_units)
    energies = (-(vs @ params.w.T @ hs.T) - (vs @ params.b)[:, None]
                - (hs @ params.c)[None, :])
    weights = np.exp(-energies)
    marginal = (weights / weights.sum()).sum(axis=1)
    idx = data.astype(int) @ (1 << np.arange(data.shape[1] - 1, -1, -1))
    return float(np.mean(np.log(marginal[idx])))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--patches", type=int, default=800)
    ap.add_argument("--patch", type=int, default=4)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)

    # part 1: CD on a tiny RBM, tracked against the exact likelihood
    bits = rng.integers(0, 2, size=(64, 6)).astype(float)
    bits[:, 3:] = bits[:, :3]  # learnable structure: second half copies first
    params = init_rbm(6, 4, rng)
    velocity = (0.0, 0.0, 0.0)
    uniform = -6.0 * np.log(2.0)
    ideal = -3.0 * np.log(2.0)
    print("tiny RBM, exact mean log-likelihood under CD-1"
          f" (uniform {uniform:.3f}, ideal {ideal:.3f}):")
    print(f"  epoch    0: {exact_mean_log_likelihood(params, bits):.4f}")
    for epoch in range(1, 1201):
        # momentum 0.5 and learning rate 0.1 against the CD-1 gradient
        grads = cd_update(params, bits, rng)
        velocity = [0.5 * v - 0.1 * g for v, g in zip(velocity, grads)]
        params = RbmParams(*(p + v for p, v in zip(
            (params.w, params.b, params.c), velocity)))
        if epoch % 300 == 0:
            print(f"  epoch {epoch:4d}: {exact_mean_log_likelihood(params, bits):.4f}")

    # part 2: full pretrain + unroll + fine-tune on continuous patches
    data = sample_patches(rng, args.patches, args.patch)
    config = DbnConfig(
        layer_sizes=(12, 20, 8, 4),
        patch=args.patch,
        epochs=40,
        learning_rate=0.1,
        momentum=0.5,
        batch_size=32,
        seed=args.seed,
    )
    cold = unroll(pretrain_stack(data, DbnConfig(
        layer_sizes=config.layer_sizes, patch=config.patch, epochs=0,
        seed=config.seed,
    )))
    warm = unroll(pretrain_stack(data, config))

    # identical fine-tune schedule from both starting points
    schedule = DbnConfig(
        layer_sizes=config.layer_sizes, patch=config.patch, epochs=800,
        learning_rate=0.1, momentum=0.9, batch_size=64, seed=config.seed,
    )
    tuned_cold = finetune(cold, data, schedule)
    tuned_warm = finetune(warm, data, schedule)

    print(f"\nautoencoder {args.patch * args.patch}-"
          + "-".join(str(s) for s in config.layer_sizes) + " reconstruction MSE:")
    print(f"  random init               : {reconstruction_mse(cold, data):.5f}")
    print(f"  after pretrain            : {reconstruction_mse(warm, data):.5f}")
    print(f"  fine-tuned from random    : {reconstruction_mse(tuned_cold, data):.5f}")
    print(f"  fine-tuned from pretrain  : {reconstruction_mse(tuned_warm, data):.5f}")


if __name__ == "__main__":
    main()
