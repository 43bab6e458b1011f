"""Each script under demos/ runs to completion in a fresh interpreter."""

import math
import os
import pathlib
import subprocess
import sys

import pytest

import landaulab

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(pathlib.Path(landaulab.__file__).resolve().parents[1])


def test_demos_found():
    assert len(DEMOS) >= 6


def _shows_the_pointwise_cloud(out):
    # the pointwise stencil's bottom eigenvalue lies in the spurious cloud
    # near -1 (-0.9589); the averaged scheme's is a box-corner state (-0.5011)
    pointwise, averaged = [float(line.split("[")[1].split()[0])
                           for line in out.splitlines() if "lowest eigenvalues:" in line]
    assert pointwise < -0.9
    assert averaged > -0.6


def _shows_the_kernel_plateau(out):
    # the level-0 kernel diagonal is 2/pi at the origin for every basis size,
    # and each level's extremal ratio is near sqrt(2/pi) (-2.7% at level 2)
    origins = [float(line.split("value(0) = ")[1].split()[0])
               for line in out.splitlines() if "value(0) = " in line]
    ratios = [float(line.split("ratio = ")[1].split()[0])
              for line in out.splitlines() if "ratio = " in line]
    assert len(origins) == 5 and len(ratios) == 3
    assert all(abs(v - 2.0 / math.pi) <= 1e-4 for v in origins)
    assert all(abs(r / math.sqrt(2.0 / math.pi) - 1.0) <= 0.05 for r in ratios)


def _passes_both_bounds_on_every_level(out):
    # three potentials at levels 0-4: both bounds pass for each, every
    # extremal L^6 ratio lies in (0.4, 0.75) (0.46-0.72 on this grid), and no
    # ascent stops unconverged or uncertified
    lines = out.splitlines()
    verdicts = [line for line in lines if "->" in line]
    rows = [line.split() for line in lines if line.split() and line.split()[0].isdigit()]
    assert len(verdicts) == 6 and all(v.endswith("-> PASS") for v in verdicts)
    assert len(rows) == 15
    assert all(0.4 < float(row[4]) < 0.75 for row in rows)
    assert not any("warning:" in line for line in lines)


# what a demo's standard output must show, beyond a clean exit
STDOUT_CHECKS = {"02_kernel_plateau.py": _shows_the_kernel_plateau,
                 "03_theorem_sweeps.py": _passes_both_bounds_on_every_level,
                 "06_discretization_pathology.py": _shows_the_pointwise_cloud}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    STDOUT_CHECKS.get(demo.name, lambda out: None)(proc.stdout)
