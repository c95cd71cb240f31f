"""Shared fixtures: synthetic light fields and acceptance-line reporting."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from lflc.layers import LayerStack, render_additive
from lflc.lightfield import LightField

# Property tests draw the same examples on every run (seeded from each test),
# and no example database replays failures from an earlier run.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance():
    """Record one pass/fail line per criterion, then enforce it."""

    def record(criterion: int, passed: bool, detail: str):
        line = f"criterion {criterion:2d}: {'PASS' if passed else 'FAIL'}  {detail}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert passed, line

    return record


def centered_depths(layer_count: int) -> tuple[int, ...]:
    return tuple(range(-(layer_count // 2), layer_count - layer_count // 2))


def random_truth_field(
    rng,
    layer_count: int = 3,
    channels: int = 1,
    height: int = 32,
    width: int = 32,
    views: tuple[int, int] = (5, 5),
    depths=None,
):
    """A light field rendered from a random ground-truth layer stack.

    Targets built this way are exactly representable by the additive model,
    which makes solver-quality assertions meaningful.
    """
    depths = tuple(depths) if depths is not None else centered_depths(layer_count)
    images = rng.uniform(0.0, 1.0 / layer_count, size=(layer_count, channels, height, width))
    truth = LayerStack(depths, images)
    samples, mask = render_additive(truth, views)
    return LightField(samples=np.clip(samples, 0.0, 1.0)), mask, truth


def sha256_of_files(directory) -> str:
    """SHA-256 over the files of `directory` in name order: name, NUL, bytes."""
    digest = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()
