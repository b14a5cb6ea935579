"""Smoke test of the benchmark harness at reduced size (a few seconds a workload).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTERS = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]


def bench(workload: str, trace: int, root: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def result_of(done: subprocess.CompletedProcess, specs: list[dict]) -> dict:
    # Exit code 1 means an output check failed; the reduced quad_repeat run is
    # too short for criterion 3 to converge, so only the shape is checked here.
    assert done.returncode in (0, 1), done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0) == (done.returncode == 0)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in specs}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric_and_counts_repeat(workload):
    result_of(bench(workload, 0), BENCH["end_to_end"])
    first = result_of(bench(workload, 1), BENCH["per_layer"])
    second = result_of(bench(workload, 1), BENCH["per_layer"])
    counts = [{k: r["metrics"][k]["value"] for k in COUNTERS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert first["metrics"]["engine.rounds"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = bench("hard_lowerbound", 0, root=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
