"""Same-seed benchmark outputs against the recorded references.

The harness smoke tests run `--smoke` sizes, which have no recorded
reference. This runs every workload of BENCHMARK.json once, at seed 0 and
its real sizes, and `generate` at two more seeds, and requires each run's
check against `perfbench/reference.json` to report a match.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def assert_matches_reference(workload, seed):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"] is True
    assert detail["detail"]["reference"] == "match"


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_seed_0_matches_recorded_reference(workload):
    assert_matches_reference(workload, 0)


@pytest.mark.parametrize("seed", [1, 2])
def test_generate_matches_recorded_reference_at_more_seeds(seed):
    # more albums decoded greedily: a change in summation order that flips
    # one greedy id fails here
    assert_matches_reference("generate", seed)
