"""Benchmark inputs: seeded light fields, codec configs and training recipes.

Every field follows the recipe of the acceptance fixture: each layer image is
a sum of three random separable cosines, rescaled to [0, 1/K] and held
constant on aligned 2x2 blocks, and the views are rendered from that stack
with the additive model. The field seed drives the cosines, so the same seed
always gives the same field; seed 2024 reproduces the acceptance fixture.
"""

from __future__ import annotations

import os

import numpy as np

from lflc import dbn, wbi
from lflc.config import PipelineConfig
from lflc.layers import LayerStack, SolverConfig, render_additive
from lflc.lightfield import LightField

HERE = os.path.dirname(os.path.abspath(__file__))
MODEL_PATH = os.path.join(HERE, "fixture_model.dbn")
PATCHES_PATH = os.path.join(HERE, "fixture_patches.npy")

FIXTURE_SEED = 2024  # field seed of the pinned acceptance fixture
MODEL_SEED = 11
FIXTURE_SIZES = (4, 8, 6, 4)


def cosine_layer_field(
    seed: int,
    size: int = 64,
    depths=(-2, 0, 2),
    channels: int = 1,
    views: tuple[int, int] = (5, 5),
) -> tuple[LightField, np.ndarray]:
    """(field, mask) rendered from block-constant cosine layers."""
    rng = np.random.default_rng(seed)
    half = size // 2
    K = len(depths)
    yy, xx = np.meshgrid(np.arange(half), np.arange(half), indexing="ij")
    images = np.zeros((K, channels, size, size))
    for k in range(K):
        for c in range(channels):
            acc = np.zeros((half, half))
            for _ in range(3):
                fy, fx = rng.uniform(0.5, 2.0, 2)
                phase = rng.uniform(0.0, 2.0 * np.pi, 2)
                acc += rng.uniform(0.3, 1.0) * np.cos(
                    2.0 * np.pi * fy * yy / half + phase[0]
                ) * np.cos(2.0 * np.pi * fx * xx / half + phase[1])
            acc -= acc.min()
            acc /= acc.max()
            images[k, c] = np.kron(acc / K, np.ones((2, 2)))
    rendered, mask = render_additive(LayerStack(tuple(depths), images), views)
    return LightField(samples=np.clip(rendered, 0.0, 1.0)), mask


def dbn_config(epochs: int, learning_rate: float, momentum: float,
               batch_size: int, seed: int = MODEL_SEED) -> dbn.DbnConfig:
    return dbn.DbnConfig(
        layer_sizes=FIXTURE_SIZES, patch=2, stride=2, variance_threshold=0.0,
        epochs=epochs, learning_rate=learning_rate, momentum=momentum,
        batch_size=batch_size, seed=seed,
    )


def codec_config(depths, iterations: int, partition) -> PipelineConfig:
    return PipelineConfig(
        depths=tuple(depths),
        solver=SolverConfig(max_iterations=iterations, tolerance=0.0),
        wbi=wbi.WbiConfig(components=sum(partition), partition=tuple(partition)),
        dbn=dbn_config(20, 0.1, 0.5, 64),
    )


def fixture_config() -> PipelineConfig:
    """The acceptance fixture's configuration (criterion 8)."""
    return codec_config((-2, 0, 2), 500, (1, 5))


def train_model(patches: np.ndarray, config: dbn.DbnConfig,
                finetune_epochs: int) -> dbn.Autoencoder:
    """Criterion 8's recipe: pretrain, unroll, then a coarse and an annealing
    fine-tune pass of `finetune_epochs` each."""
    model = dbn.unroll(dbn.pretrain_stack(patches, config))
    for rate in (0.1, 0.05):
        stage = dbn_config(finetune_epochs, rate, 0.9, 256, config.seed)
        model = dbn.finetune(model, patches, stage)
    return model
