"""storyforge benchmark: one seeded workload in one process.

    python3 perfbench/run.py --workload train-overfit --seed 1 --seconds 30 --trace 0

Runs from the root of a source tree and imports the program from its `src/`.
The last line of standard output is one JSON object:
    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
With `--trace 0` the metrics are the end-to-end ones, measured untraced;
with `--trace 1` they are the per-layer ones, from spans around the
program's layer functions. The line before it carries the details: the
workload's own metric names, the machine and settings, and any failed
check. Exit code 0 when every check passed, 1 when one failed, 2 when the
program could not be imported or the benchmark could not run.
"""

from __future__ import annotations

import os

# BLAS pinned to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_program():
    """Imports storyforge from this tree's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import storyforge
    except ImportError as e:
        raise SystemExit(f"run.py: cannot import storyforge from {SRC}: {e}")
    if not Path(storyforge.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"run.py: storyforge imported from {storyforge.__file__}, "
                         f"not from {SRC}")


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_identity():
    """The git commit when the tree is a checkout, and a digest of the
    program's sources either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "storyforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=20)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return commit, digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit, src_digest = source_identity()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "git_commit": commit,
        "src_sha256": src_digest,
    }


def run(args) -> int:
    import_program()
    import layers
    from spans import Tracer
    from speed import Speedometer
    from workloads import END_TO_END, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    work = WORKLOADS[args.workload](args.workload, args.seed, args.smoke)
    tracer = None
    if args.trace:
        tracer = work.tracer = Tracer("storyforge")
        layers.install(tracer)
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, setup_raw_s = [], []
        for _ in range(work.setups):
            before = work.meter.sample(8)
            t0 = time.perf_counter()
            work.setup(tmp)
            setup_raw_s.append(time.perf_counter() - t0)
            setup_s.append(setup_raw_s[-1] * Speedometer.scale(before, work.meter.sample(8)))
        # Whole sessions only: another starts while the run would end
        # nearer to --seconds with it than without it.
        t0 = time.perf_counter()
        elapsed = 0.0
        while not work.sessions or elapsed * (1 + 0.5 / len(work.sessions)) < args.seconds:
            work.session()
            elapsed = time.perf_counter() - t0
        measured_s = elapsed
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    work.finish()   # the checks run untraced

    attempted = sum(s["ops"] for s in work.sessions)
    failed = sum(s["ops"] for s in work.sessions if not s["ok"])
    correct = failed == 0 and not work.failures
    e2e, detail = work.results() if any(s["ok"] for s in work.sessions) else ({}, {})
    e2e["setup_s"] = statistics.median(setup_s)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail.update(setup_s=e2e["setup_s"], setup_s_unscaled=statistics.median(setup_raw_s),
                  peak_rss_mb=e2e["peak_rss_mb"], ops_failed_share=failed / attempted,
                  measured_s=measured_s, speed_factor=work.speed_factor())
    if tracer is not None:
        values = layers.layer_metrics(tracer, work.setups, work.speed_factor())
        units = layers.PER_LAYER
        detail["spans"] = len(tracer.spans)
        detail["end_to_end_traced"] = e2e
    else:
        values, units = e2e, END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "phases": work.describe(), "detail": detail,
                      "failures": work.failures, "env": environment(args.seed)}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for testing the harness itself")
    args = ap.parse_args(argv)
    try:
        return run(args)
    except SystemExit as e:
        print(e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
