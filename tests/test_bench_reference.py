"""Same-seed benchmark outputs against the recorded references.

The harness smoke tests run `--smoke` sizes, which have no recorded
reference. This runs every workload of BENCHMARK.json once, at seed 0 and
its real sizes, and requires its check against `perfbench/reference.json`
to report a match.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_seed_0_matches_recorded_reference(workload):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", "0", "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"] is True
    assert detail["detail"]["reference"] == "match"
