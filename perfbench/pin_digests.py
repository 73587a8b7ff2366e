#!/usr/bin/env python3
"""Re-pins perfbench/digests.json: the outcome digest of every workload over
the first 100 served slots, for seeds 0..10.

    python3 perfbench/pin_digests.py

Run it only when a change is meant to alter slot outcomes; run.py fails
every slot of a run whose digest differs from its pin.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEEDS = range(0, 11)


def main():
    run.build()
    bench = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))
    digests = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        digests[workload] = {}
        for seed in SEEDS:
            out = subprocess.run(
                [run.BINARY, "--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--trace", "0"],
                stdout=subprocess.PIPE, universal_newlines=True, check=True,
                timeout=run.RUN_TIMEOUT_S).stdout
            line = next(l for l in out.splitlines() if l.startswith("digest:"))
            digests[workload][str(seed)] = line.split()[1]
            print(workload, seed, digests[workload][str(seed)], flush=True)
    path = os.path.join(run.HERE, "digests.json")
    with open(path, "w") as f:
        json.dump({"window_slots": 100, "digests": digests}, f, indent=2,
                  sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
