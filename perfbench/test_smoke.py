"""Smoke test of the benchmark harness at tiny sizes.

Every workload, traced and untraced, must print a result line that carries
exactly the metric names and units BENCHMARK.json declares. Without the
program's sources the harness must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from spans import Tracer  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_reports_declared_metrics(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children_and_uninstall_restores():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = Tracer("storyforge", clock=lambda: next(ticks))
    inner = tracer.wrap("layer.inner", lambda: None)
    outer = tracer.wrap("layer.outer", lambda: inner())
    outer()
    prof = tracer.profile()
    assert prof.ms("layer.outer") == 10e3 and prof.self_ms("layer.outer") == 8e3
    assert prof.count("layer.inner") == 1 and prof.self_ms("layer.inner") == 2e3

    import storyforge.decoder as dec
    import storyforge.model as model
    original = dec.attend
    tracer.install("decoder", dec, "attend")
    try:
        assert model.attend is dec.attend is not original
    finally:
        tracer.uninstall()
    assert model.attend is dec.attend is original
