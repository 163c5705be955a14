"""Smoke runs of the command-line scripts in scripts/: each runs in a fresh
interpreter with PYTHONPATH=src, exits 0 and prints its summary lines."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv, lines",
    [
        (
            ["scripts/wall_census.py", "--samples", "60", "--pairs", "20"],
            ["lattice U + <-2>, wall norms [-2]", "positive classes drawn   60",
             "interior pairs tested    20"],
        ),
    ],
    ids=["wall_census"],
)
def test_script_runs(argv, lines):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    printed = done.stdout.splitlines()
    for line in lines:
        assert line in printed
