#!/usr/bin/env python3
"""Benchmark-regression gate for CI (docs/BENCHMARKS.md, "Regression gate").

Merges the machine-readable outputs of the quick benchmark runs into one
BENCH_pr.json artifact, checks them against the three tables below and
diffs them against the committed baseline (bench/BENCH_baseline.json).
Inputs name themselves: a figure's --json output carries "bench" (its
binary's name), a google-benchmark report carries "benchmarks". Each
figure keeps the `cal_ms` calibration its own process measured, so its
wall times are normalized by that; bench_schedulers reports carry none
and borrow fig11's.

The gate fails (exit 1), naming the row, when:
  - a given figure has no rows;
  - an IDENTITY row does not hold its flag (bit-identity, zero tolerance);
  - a FLOORS row misses its bound, or its selector matches no row (rows
    needing more hardware threads than the run had are skipped, warned);
  - against the baseline row with the same BASELINE key, a work metric
    grows more than TOLERANCE or a digest field changes. Normalized time
    above TOLERANCE only warns: shared runners jitter more than that.

Usage:
  check_bench_regression.py RESULT.json... --baseline bench/BENCH_baseline.json
      [--out BENCH_pr.json] [--nightly] [--update]

A check run needs fig11 among the results. --update rewrites the given
figures' baseline sections (and only those) instead of checking.
"""

import argparse
import json
import operator
import statistics
import sys

TOLERANCE = 0.2


def median_pair_speedup(row):
    """Median (live, replay) rate ratio; one pair alone swings too much."""
    pairs = row.get("pair_speedups", [])
    return statistics.median(pairs) if len(pairs) >= 3 else None


# figure, row selector, boolean field every matching row must hold.
IDENTITY = [
    ("fig11", {}, "identical"),  # indexed run == brute force
    ("fig12", {}, "identical"),  # incremental engine == per-slot rebuild
    ("fig14", {}, "identical"),  # replay == its live run, every pair
    ("fig18", {"mode": "adaptive"}, "replay_identical"),
]

SIEVE = {"engine": "sieve", "sensors": 100_000, "churn": 0.01}
MEDIUM = {"mode": "adaptive", "slo_label": "medium"}

# figure, row selector, metric, comparison, PR bound, nightly bound,
# hardware threads the row needs. A callable selector value picks from
# the figure's values of that field; a string bound names a field of the
# same row. docs/BENCHMARKS.md gives each floor's rationale.
FLOORS = [
    ("fig11", {"sensors": max}, "speedup", ">=", 10, 8, 0),
    ("fig12", {"workload": "churn", "sensors": 100_000},
     "turnover_speedup", ">=", 4, 3, 0),
    ("fig13", SIEVE, "utility_ratio", ">=", 0.8, 0.70, 0),
    ("fig13", SIEVE, "speedup_vs_exact", ">=", 20, 10, 0),
    ("fig14", {"engine": "lazy", "sensors": 100_000},
     median_pair_speedup, ">=", 0.9, 0.5, 0),
    ("fig18", MEDIUM, "hit_rate", ">=", 0.95, 0.90, 2),
    ("fig18", {"mode": "static", "slo_label": "medium"},
     "spike_hit_rate", "<=", 0.5, 0.5, 2),
    ("fig18", MEDIUM, "recovered", "==", True, True, 2),
    ("fig18", {"mode": "adaptive", "slo_label": "loose"},
     "lazy_slots", "==", "slots", "slots", 2),
]

# figure: row key, work metrics (fatal above TOLERANCE), digest fields
# (fatal on any change), time metric (warns above TOLERANCE). The key
# carries the workload shape, so full-size nightly rows never diff
# against the committed --quick rows.
BASELINE = {
    "fig11": (("name", "sensors"), ("pruned_pairs",), (), "pruned_ms"),
    "fig12": (("workload", "sensors", "slots", "queries"), (), (),
              "incremental_turnover_ms"),
    "fig13": (("engine", "sensors", "churn", "slots", "queries", "epsilon"),
              ("valuation_calls",), (), "median_ms"),
    "fig14": (("engine", "sensors", "slots", "queries"),
              ("valuation_calls",), (), "replay_wall_ms"),
    "fig16": (("query", "sensors", "queries"), (), ("digest",),
              "soa_median_ms"),
    "fig18": (("mode", "slo_label", "sensors", "slots"), (), (), None),
    "bench_schedulers": (("name",), (), (), "real_time_ms"),
}

OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


def load(path):
    with open(path) as f:
        return json.load(f)


def describe(fig, fields):
    return " ".join([fig] + [f"{k}={v}" for k, v in fields.items()])


def row_name(fig, row):
    return describe(fig, {k: row.get(k) for k in BASELINE[fig][0]})


def scheduler_rows(doc):
    """{name, real_time_ms} rows from a google-benchmark JSON report."""
    scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
    return [{"name": b["name"],
             "real_time_ms": b["real_time"] * scale[b.get("time_unit", "ns")]}
            for b in doc["benchmarks"]
            if b.get("run_type") != "aggregate"
            and b.get("time_unit", "ns") in scale]


def read_results(paths, error):
    """figure -> {cal_ms, results}, each input identified by its content."""
    figs = {}
    for path in paths:
        try:
            doc = load(path)
        except (OSError, ValueError) as e:
            error(f"{path}: {e}")
        if not isinstance(doc, dict):
            fig = None
        elif "benchmarks" in doc:
            fig = "bench_schedulers"
        else:
            fig = str(doc.get("bench", "")).split("_")[0]
        if fig not in BASELINE:
            error(f"{path}: not a fig11-fig18 --json output or a "
                  "google-benchmark report")
        if fig in figs:
            error(f"{path}: a second {fig} input")
        rows = scheduler_rows(doc) if fig == "bench_schedulers" \
            else doc.get("results", [])
        figs[fig] = {"cal_ms": doc.get("cal_ms", 0.0), "results": rows}
    if "bench_schedulers" in figs:
        figs["bench_schedulers"]["cal_ms"] = \
            figs.get("fig11", {}).get("cal_ms", 0.0)
    return figs


def matching(rows, selector):
    want = {k: v([r.get(k) for r in rows]) if callable(v) else v
            for k, v in selector.items()}
    return [r for r in rows if all(r.get(k) == v for k, v in want.items())]


def check_floor(fig, rows, selector, metric, op, bound, threads,
                failures, warnings):
    matched = matching(rows, selector)
    name = getattr(metric, "__name__", metric)
    if not matched:
        failures.append(f"{describe(fig, selector)}: no such row to gate "
                        f"{name}")
    for r in matched:
        where = row_name(fig, r)
        if r.get("hardware_threads", 0) < threads:
            warnings.append(f"{where}: {name} SKIPPED, needs >= {threads} "
                            f"hardware threads, run had "
                            f"{r.get('hardware_threads', 0)}")
            continue
        value = metric(r) if callable(metric) else r.get(metric)
        limit = r.get(bound) if isinstance(bound, str) else bound
        if value is None:
            failures.append(f"{where}: no {name}")
        elif not OPS[op](value, limit):
            failures.append(f"{where}: {name} {value}, needs {op} {limit}")
        else:
            print(f"ok: {where}: {name} {value} {op} {limit}")


def diff_baseline(fig, section, base_section, failures, warnings):
    key, work, digests, time_metric = BASELINE[fig]
    base_rows = {tuple(b.get(k) for k in key): b
                 for b in base_section.get("results", [])}
    cal, base_cal = section["cal_ms"], base_section.get("cal_ms", 0.0)
    limit = 1.0 + TOLERANCE
    for r in section["results"]:
        where = row_name(fig, r)
        b = base_rows.get(tuple(r.get(k) for k in key))
        if b is None:
            warnings.append(f"{where}: not in baseline")
            continue
        for m in work:
            if b.get(m, 0) > 0 and r[m] > b[m] * limit:
                failures.append(f"{where}: {m} {r[m]} > {limit:.2f}x "
                                f"baseline {b[m]}")
        for d in digests:
            if b.get(d) and r.get(d) != b[d]:
                failures.append(f"{where}: {d} {r.get(d)} != baseline {b[d]}"
                                " (re-bless with --update if intended)")
        if time_metric and cal > 0 and base_cal > 0 \
                and b.get(time_metric, 0) > 0:
            norm, base_norm = r[time_metric] / cal, b[time_metric] / base_cal
            if norm > base_norm * limit:
                warnings.append(f"{where}: normalized {time_metric} "
                                f"{norm:.4f} > {limit:.2f}x baseline "
                                f"{base_norm:.4f}")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Check benchmark results against the gate tables and "
                    "the committed baseline (docs/BENCHMARKS.md).")
    ap.add_argument("results", nargs="+",
                    help="fig11-fig18 --json outputs and bench_schedulers "
                         "--benchmark_out reports, in any order")
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--out", default="BENCH_pr.json")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the given figures' baseline sections "
                         "from this run instead of checking")
    ap.add_argument("--nightly", action="store_true",
                    help="apply the nightly floors (full-size runs)")
    args = ap.parse_args(argv)

    figs = read_results(args.results, ap.error)
    if not args.update and "fig11" not in figs:
        ap.error("a check run needs the fig11 results")
    with open(args.out, "w") as f:
        json.dump(figs, f, indent=2)
    print(f"wrote {args.out}")

    try:
        base = load(args.baseline)
    except FileNotFoundError:
        base = None
    if args.update:
        with open(args.baseline, "w") as f:
            json.dump({**(base or {}), **figs}, f, indent=2)
        print(f"baseline updated: {args.baseline}")
        return 0

    failures, warnings = [], []
    for fig, section in figs.items():
        if not section["results"]:
            failures.append(f"{fig} produced no rows")
    for fig, selector, field in IDENTITY:
        for r in matching(figs.get(fig, {}).get("results", []), selector):
            if not r.get(field, False):
                failures.append(f"{row_name(fig, r)}: {field} is false")
    for fig, selector, metric, op, pr, nightly, threads in FLOORS:
        if figs.get(fig, {}).get("results"):
            check_floor(fig, figs[fig]["results"], selector, metric, op,
                        nightly if args.nightly else pr, threads,
                        failures, warnings)
    if base is None:
        warnings.append(f"no baseline at {args.baseline}; work, digest and "
                        "time diffs skipped (--update creates it)")
    else:
        for fig, section in figs.items():
            diff_baseline(fig, section, base.get(fig, {}), failures,
                          warnings)

    for w in warnings:
        print(f"warning: {w}")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if failures:
        return 1
    print("benchmark-regression gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
