#!/usr/bin/env bash
# Runs the full (non --quick) fig02-fig18 benchmark suite and bundles the
# machine-readable outputs into one BENCH_nightly.json. Used by the
# scheduled nightly workflow (.github/workflows/nightly.yml) so the
# PR-path bench gate can stay on the fast --quick settings; also runnable
# locally: scripts/run_nightly_bench.sh [build-dir] [out.json] [log-dir].
#
# Every binary's stdout is captured under the log directory. A failing
# binary fails the script (after the remaining binaries have run), so one
# broken figure doesn't hide the others' results.

set -u

BUILD_DIR=${1:-build}
OUT=${2:-BENCH_nightly.json}
LOG_DIR=${3:-bench_nightly_logs}
mkdir -p "$LOG_DIR"

status=0
run() {
  local name=$1
  shift
  echo "=== $name $* ==="
  if ! "$BUILD_DIR/$name" "$@" >"$LOG_DIR/$name.log" 2>&1; then
    echo "FAIL: $name (see $LOG_DIR/$name.log)"
    status=1
  fi
}

# Paper-figure reproductions: full 50-slot settings, console tables only.
run fig02_point_rwm
run fig03_point_rnc
run fig04_uniform_budget
run fig05_query_scaling
run fig06_privacy_energy
run fig07_aggregate
run fig08_location_monitoring
run fig09_region_monitoring
run fig10_query_mix

# Scale/streaming/approximation/replay sweeps: full populations, JSON
# captured. fig14 keeps its recorded traces under the log directory so
# the nightly workflow can upload them as artifacts — a nightly-fresh
# corpus of real serving traces for offline replay and debugging.
# --huge extends fig11 with a 10M-sensor point (nightly-only: the
# brute-force reference at that scale is far too heavy for the PR-path
# --quick gate).
run fig11_scale_sweep --huge --json "$LOG_DIR/fig11_nightly.json"
run fig12_streaming --json "$LOG_DIR/fig12_nightly.json"
run fig13_approx_quality --json "$LOG_DIR/fig13_nightly.json"
mkdir -p "$LOG_DIR/traces"
run fig14_replay --json "$LOG_DIR/fig14_nightly.json" \
  --trace-dir "$LOG_DIR/traces"
# Column-kernel microbench: full populations (10k/100k/1M), one row per
# query type, each with its outcome digest (the gate diffs the digests
# against the committed baseline).
run fig16_kernel_microbench --json "$LOG_DIR/fig16_nightly.json"
# Adaptive SLO scheduling: base -> spike -> recover loops at the full
# population, static-vs-adaptive hit rates plus the fatal
# replay-identity column. Exits non-zero by itself if any adaptive run
# fails to degrade, recover, or replay bit-identically.
run fig18_adaptive_slo --json "$LOG_DIR/fig18_nightly.json"

python3 - "$OUT" "$LOG_DIR" <<'PY'
import json, os, sys, time

out_path, log_dir = sys.argv[1], sys.argv[2]

def load(name):
    path = os.path.join(log_dir, name)
    try:
        with open(path) as f:
            return json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return None

fig11 = load("fig11_nightly.json") or {}
fig12 = load("fig12_nightly.json") or {}
fig13 = load("fig13_nightly.json") or {}
fig14 = load("fig14_nightly.json") or {}
fig16 = load("fig16_nightly.json") or {}
fig18 = load("fig18_nightly.json") or {}

doc = {
    "suite": "nightly-full",
    "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "cal_ms": fig11.get("cal_ms", 0.0),
    "fig11": fig11.get("results", []),
    "fig12": fig12.get("results", []),
    "fig13": fig13.get("results", []),
    "fig14": fig14.get("results", []),
    "fig16": fig16.get("results", []),
    "fig18": fig18.get("results", []),
    "logs": sorted(f for f in os.listdir(log_dir) if f.endswith(".log")),
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
print(f"wrote {out_path}")
PY

exit $status
