"""Smoke test of the benchmark itself, at minimal input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs untraced on a seed other than the one used while the
benchmark was written; one workload also runs traced. Every metric must
be printed with its unit, and no recognition may fail or disagree with
the reference answers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SEED = 5


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _report(proc) -> tuple[dict, dict]:
    """(last-line JSON, {metric: (value, unit)} from the report lines)."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 4 and parts[0] in run.WORKLOADS:
            printed[parts[1]] = (float(parts[2]), parts[3])
    return json.loads(lines[-1]), printed


def _check(result: dict, printed: dict, wanted: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(wanted)
    for name, unit in wanted.items():
        assert result["metrics"][name]["unit"] == unit
        assert printed[name] == (pytest.approx(result["metrics"][name]["value"],
                                               rel=1e-5), unit)
    assert printed["failed_share"][0] == 0
    assert printed["mismatch_share"][0] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_prints_every_end_to_end_metric(workload):
    result, printed = _report(_run(workload, 0))
    _check(result, printed, run.END_TO_END)
    for name in ("tpr", "fpr"):
        assert printed[name][1] == "share"


def test_traced_prints_every_per_layer_metric():
    result, printed = _report(_run("logistics-stream", 1))
    _check(result, printed, run.PER_LAYER)
    assert result["metrics"]["recognizer.recognize.self_s"]["value"] > 0
    assert result["metrics"]["executions.executions"]["value"] > 0


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("logistics-stream", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
