"""Smoke test of the benchmark harness on tiny inputs.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--tiny", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def report(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def printed(proc):
    """{name: unit} from the ``name value unit`` lines before the JSON line."""
    out = {}
    for line in proc.stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3:
            out[parts[0]] = parts[2]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    proc = bench("--workload", workload, "--seed", "3", "--trace", "0")
    rep = report(proc)
    assert set(rep) == {"correct", "attempted", "failed", "metrics"}
    assert rep["correct"] and rep["failed"] == 0 and rep["attempted"] >= 100
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in rep["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in rep["metrics"].values())
    assert printed(proc) == {**expected, "failed_share": "ratio"}
    assert "unscaled wall clock:" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (
        report(bench("--workload", workload, "--seed", "3", "--trace", "1"))
        for _ in range(2)
    )
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_wrong_expected_answer_fails_the_run():
    proc = bench("--workload", "search-mix", "--seed", "3", "--corrupt-check", "0")
    assert proc.returncode == 1
    assert "FAIL " in proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_missing_program_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "3", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
