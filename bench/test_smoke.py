"""Smoke test of the benchmark: one round (one job of each kind) per workload.

Run from the root of the repository:

    python -m pytest -q bench/test_smoke.py

Checks that every run is correct, that every metric BENCHMARK.json declares
is printed with its unit, and that the benchmark refuses to run without the
package source next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--rounds", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_round_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert isinstance(printed["value"], (int, float)), m["name"]


def test_no_timed_job_fails_and_the_known_defect_is_reported():
    proc = _run(ROOT, "cli-short", 1)
    *_, facts, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["failed"] == 0
    # the deep contingency call runs once, outside the timed jobs, and still
    # fails until the counting kernel is made iterative
    defect = json.loads(facts)["machine"]["known_defect_failed"]
    assert result["metrics"]["cli.known_defect_failed"]["value"] == int(defect)
    assert defect == ("known defect still present" in proc.stderr)


def test_every_per_layer_metric_has_a_prediction():
    assert sorted(PREDICTIONS) == sorted(m["name"] for m in SPEC["per_layer"])
    names = {m["name"] for m in SPEC["end_to_end"]} | {m["name"] for m in SPEC["per_layer"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for layer_metric, pred in PREDICTIONS.items():
        assert set(pred["moves"]) <= names, layer_metric
        assert set(pred["on"]) <= workloads, layer_metric


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "library", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
