"""Each script under demos/ runs to completion in a fresh interpreter."""

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


# what a demo's standard output must show, beyond a clean exit
STDOUT_CHECKS = {"06_discretization_pathology.py": _shows_the_pointwise_cloud}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    STDOUT_CHECKS.get(demo.name, lambda out: None)(proc.stdout)
