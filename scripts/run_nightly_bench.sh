#!/usr/bin/env bash
# Runs the full (non --quick) fig02-fig16 benchmark suite and the alpha
# ablation, writing each binary's stdout and the fig11-fig16 --json
# outputs under the log directory. Used by the scheduled nightly workflow
# (.github/workflows/nightly.yml), whose gate step merges the JSON files
# into BENCH_nightly.json, so the PR-path bench gate can stay on the fast
# --quick settings; also runnable locally:
# scripts/run_nightly_bench.sh [build-dir] [log-dir].
#
# A failing binary fails the script (after the remaining binaries have
# run), so one broken figure doesn't hide the others' results.

set -u

BUILD_DIR=${1:-build}
LOG_DIR=${2:-bench_nightly_logs}
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
# Ablation of alpha, the budget-pacing fraction of Algorithms 2/3:
# console table only.
run bench_alpha_sweep

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

exit $status
