#!/usr/bin/env python3
"""Closed-loop serving benchmark: build from source, run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload mixed_100k --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which builds the psens library from the
repository's sources) into .bench_build/, runs the perfbench_serve binary,
and checks that its metric names are exactly the ones BENCHMARK.json lists
for the mode (end_to_end for --trace 0, per_layer for --trace 1). The last
line of stdout is the JSON result. Pinned outcome digests come from
perfbench/digests.json. Exits non-zero without a result when the sources,
the build or the run fail.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench_serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    for needed in ("CMakeLists.txt", "src/engine/serving_engine.h"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("psens sources not found (no %s)" % needed)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_serve",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: %s" % " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    pins = load_json(os.path.join(HERE, "digests.json"))
    pinned = pins["digests"].get(args.workload, {}).get(str(args.seed))
    if pinned:
        cmd += ["--pinned-digest", pinned]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    if done.returncode != 0:
        fail("perfbench_serve exited with %d" % done.returncode)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != units:
        fail("metrics %s differ from BENCHMARK.json's %s"
             % (sorted(got.items()), sorted(units.items())))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
