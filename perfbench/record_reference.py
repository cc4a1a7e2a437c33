"""Records the outputs each workload must reproduce for a seed.

    python3 perfbench/record_reference.py --seeds 0-63

For every workload and seed it runs one session and stores what the run
checks against in reference.json: the final stage-1 per-word NLL and
stage-2 reconstruction loss of training, and a digest of every greedy
token id of generation. A run with a recorded seed fails when these
change (losses beyond a relative 1e-9, which a new summation order stays
within). Record again only when a change to the program is meant to
change these outputs, or when a workload's inputs change, and say why in
the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from collect import parse_seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0-63")
    args = ap.parse_args(argv)
    run.import_program()
    from workloads import REFERENCE_FILE, WORKLOADS

    tmp = run.ROOT / ".perfbench_tmp" / "reference"
    tmp.mkdir(parents=True, exist_ok=True)
    table = {}
    try:
        for name, make in WORKLOADS.items():
            seeds = {}
            for seed in parse_seeds(args.seeds):
                work = make(name, seed, False)
                work.setup(tmp)
                work.session()
                if not work.sessions[0]["ok"]:
                    raise SystemExit(f"{name} seed {seed}: {work.failures}")
                seeds[str(seed)] = work.reference_values()
            table[name] = {"config": work.config_key(), "seeds": seeds}
            print(f"{name}: recorded {len(seeds)} seeds", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
