"""Every demo runs to completion on small arguments and prints its report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "01_layers_from_light_field.py": ["--size", "16", "--iterations", "50"],
    "02_scalable_binary_factorization.py": [],
    "03_rbm_autoencoder.py": ["--patches", "64"],
    "04_full_codec_roundtrip.py": ["--size", "16"],
}


def test_every_demo_is_listed():
    assert sorted(DEMOS) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), *DEMOS[demo]],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
