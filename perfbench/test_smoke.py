"""Tests of the benchmark itself, on tiny shapes (``--smoke``).

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-desk", "train-wide", "eval-gallery")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0.2",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, section):
    declared = {m["name"]: m["unit"] for m in _declared()[section]}
    result = _result(_run("--workload", "all", "--smoke", "--trace", str(trace)))
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    metrics = result["metrics"]
    expected = {f"{w}.{name}" for w in WORKLOADS for name in declared}
    assert set(metrics) == expected
    for key, metric in metrics.items():
        assert metric["unit"] == declared[key.split(".", 1)[1]]
        assert isinstance(metric["value"], (int, float))
    if trace:
        # training-only fusion and the tape never run on the inference path
        assert metrics["eval-gallery.fusion.calls"]["value"] == 0
        assert metrics["eval-gallery.tensor.tape_nodes"]["value"] == 0
        assert metrics["train-desk.tensor.tape_nodes"]["value"] > 0
        assert metrics["train-wide.fusion.calls"]["value"] > 0
    else:
        for w in WORKLOADS:
            assert metrics[f"{w}.setup_s"]["value"] > 0
            assert metrics[f"{w}.ok_frac"]["value"] == 1.0


def test_declared_workloads_exist():
    declared = [w["name"] for w in _declared()["workloads"]]
    assert declared and set(declared) <= set(WORKLOADS)


def test_single_workload_prints_exactly_the_declared_metrics():
    declared = [m["name"] for m in _declared()["end_to_end"]]
    proc = _run("--workload", "eval-gallery", "--smoke", "--trace", "0")
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert sorted(result["metrics"]) == sorted(declared)
    assert "env: " in proc.stdout and '"blas_threads": 1' in proc.stdout


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "train-desk", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_repeat_checks_count_failed_operations():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    bench = workloads.Bench(workloads.SMOKE_WORKLOADS["train-desk"], 0, "unused")
    first = workloads.Round(setup_s=0.1, digest="a", recall={"r_sum": 1.0},
                            energy=(1, 2, 3.0), step_count=4, attempted=6)
    bench._check_repeats(first)
    same = workloads.Round(setup_s=0.1, digest="a", recall={"r_sum": 1.0},
                           energy=(1, 2, 3.0), step_count=4, attempted=6)
    bench._check_repeats(same)
    assert same.failed == 0
    drift = workloads.Round(setup_s=0.1, digest="b", recall={"r_sum": 2.0},
                            energy=(1, 2, 3.5), step_count=4, attempted=6)
    bench._check_repeats(drift)
    assert drift.failed == 4 + 1 + 1
    assert len(drift.problems) == 3

    gallery = workloads.Bench(workloads.SMOKE_WORKLOADS["eval-gallery"], 0,
                              "unused")
    leaked = workloads.Round(setup_s=0.1, fusion_calls=1, attempted=2)
    gallery._check_repeats(leaked)
    assert leaked.failed == 1
