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
        (
            # its two interior classes, (-7,-3,-1) and (5,8,2), lie in
            # opposite positive-cone components until one is negated
            ["scripts/wall_census.py", "--samples", "2", "--pairs", "1", "--seed", "12"],
            ["positive classes drawn   2", "interior pairs tested    1"],
        ),
        (
            # its 14 interior draws are the two classes (3,3,+-1), repeated;
            # pairs are drawn from the distinct classes only
            ["scripts/wall_census.py", "--k", "2", "--coord-bound", "3", "--samples", "200",
             "--pairs", "20"],
            ["interior pairs tested    20", "    5 separating walls: 20 pairs"],
        ),
    ],
    ids=["wall_census", "wall_census_opposite_components", "wall_census_distinct_pairs"],
)
def test_script_runs(argv, lines):
    # the timeout turns a search that never ends into a failure
    done = run_script(argv)
    assert done.returncode == 0, done.stderr
    printed = done.stdout.splitlines()
    for line in lines:
        assert line in printed


@pytest.mark.parametrize("argv", [["--samples", "0"], ["--pairs", "-1"]])
def test_wall_census_rejects_bad_counts(argv):
    done = run_script(["scripts/wall_census.py", *argv])
    assert done.returncode == 2
    assert "error: --" in done.stderr


def run_script(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
