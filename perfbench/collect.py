"""Runs the benchmark over several seeds and summarises the spread.

    python3 perfbench/collect.py --seeds 1-10 --trace both \
        --out perfbench/results/BENCH_1.json

Each run is its own process, one at a time. For every end-to-end metric it
reports the median over seeds and the spread, the distance between the
first and third quartile as a share of the median, next to the metric's
bound from BENCHMARK.json. With traced runs as well it reports the tracing
overhead: the traced minus the untraced median time per op.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed, "trace": trace, "wall_s": wall,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "detail": info["detail"], "failures": info["failures"],
            "env": info["env"]}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1", "both"], default="0")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"settings": {"seeds": args.seeds, "seconds": args.seconds}, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        entry = report["workloads"][workload] = {}
        for trace in traces:
            runs = []
            for seed in parse_seeds(args.seeds):
                runs.append(run_once(workload, seed, args.seconds, trace))
                r = runs[-1]
                print(f"{workload} trace={trace} seed={seed} correct={r['correct']} "
                      f"attempted={r['attempted']} wall={r['wall_s']:.1f}s", flush=True)
                ok &= r["correct"]
            report.setdefault("env", runs[0]["env"])
            for r in runs:
                del r["env"]
            key = "traced" if trace else "untraced"
            summary = {name: spread([r["metrics"][name] for r in runs])
                       for name in runs[0]["metrics"]}
            entry[key] = {"summary": summary, "runs": runs}
            if not trace:
                for name, s in summary.items():
                    s["bound"] = bounds[name]
                    flag = "" if s["spread"] is not None and s["spread"] < bounds[name] / 3 \
                        else "  <-- above a third of the bound"
                    print(f"  {name:24s} median {s['median']:12.4f}  spread "
                          f"{s['spread']:.4f}  bound {bounds[name]}{flag}")
        if len(traces) == 2:
            untraced = entry["untraced"]["runs"]
            traced = entry["traced"]["runs"]
            entry["tracing_overhead"] = {}
            for phase in ("phase1", "phase2"):
                name = f"{phase}_op_ms_p50"
                u = statistics.median(r["metrics"][name] for r in untraced)
                t = statistics.median(r["detail"]["end_to_end_traced"][name] for r in traced)
                entry["tracing_overhead"][name] = {"untraced_ms": u, "traced_ms": t,
                                                   "overhead_ms": t - u,
                                                   "overhead_share": (t - u) / u}
                print(f"  tracing overhead {name}: {t - u:+.3f} ms ({(t - u) / u:+.1%})")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
