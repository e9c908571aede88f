"""Smoke test of the benchmark at toy size (32^2 solver run, one decay
experiment on three times, two verify claims).

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(workload, trace, kind):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_perturbed_trajectory_row_is_a_failure(tmp_path):
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workload

    workload.run_api("simulate", workload.make_inputs("simulate", "tiny", 0), tmp_path)
    ref = workload.load_reference("simulate", "tiny")

    def failures():
        got = workload.extract("simulate", tmp_path)
        return [name for name, ok, _ in workload.check("simulate", got, ref) if not ok]

    assert failures() == []
    csv = tmp_path / "trajectory.csv"
    lines = csv.read_text().splitlines()
    row = lines[2].split(",")
    col = lines[0].split(",").index("energy")
    row[col] = repr(float(row[col]) * (1.0 + 1e-4))
    lines[2] = ",".join(row)
    csv.write_text("\n".join(lines) + "\n")
    assert failures() == ["simulate.trajectory.energy"]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "simulate", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
