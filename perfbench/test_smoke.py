"""The benchmark's own tests: every workload's checks on its small grid, timed
and traced, so that the benchmark cannot rot unnoticed.

    python3 -m pytest perfbench -q        (about a minute on 2 cores)
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke(workload, trace):
    proc = run_bench("--workload", workload, "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    info, result = json.loads(info_line)["info"], json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["problems"]
    # the only operation allowed to fail is the known one (checks.py docstring)
    assert all(f.startswith("orthonormal read-back") for f in info["failed_ops"])
    assert result["failed"] == len(info["failed_ops"]) < result["attempted"]
    want = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == list(want)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["unit"], name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [m["name"] for m in doc["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS)


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "spectrum", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
