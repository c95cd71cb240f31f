"""Regenerate the benchmark's stored fixture model and training patches.

Runs criterion 8's recipe on the acceptance fixture: the encoder front half
turns the field into unit-normalised basis images, their 2x2 patches train
the autoencoder (20 pretrain epochs, then two 1500-epoch fine-tune passes),
and the result is written with dbn.save_model. The patches are stored too,
so the benchmark's training step starts from the same data without a layer
solve. Takes about a minute on one core.

    python3 bench/make_fixture_model.py
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from lflc import dbn  # noqa: E402
from lflc.pipeline import (  # noqa: E402
    collect_training_patches,
    training_images_from_light_field,
)

import fixtures  # noqa: E402


def main() -> None:
    field, _ = fixtures.cosine_layer_field(fixtures.FIXTURE_SEED)
    config = fixtures.fixture_config()
    images = training_images_from_light_field(field, config)
    patches = collect_training_patches(images, config.dbn)
    model = fixtures.train_model(patches, config.dbn, finetune_epochs=1500)
    dbn.save_model(fixtures.MODEL_PATH, model)
    np.save(fixtures.PATCHES_PATH, patches)
    print(f"wrote {fixtures.MODEL_PATH} and {patches.shape[0]} patches to "
          f"{fixtures.PATCHES_PATH}")


if __name__ == "__main__":
    main()
