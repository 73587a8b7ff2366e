#!/usr/bin/env python3
"""Benchmark-regression gate for CI (docs/BENCHMARKS.md, "Regression gate").

Merges the machine-readable outputs of the quick benchmark runs into one
BENCH_pr.json artifact and diffs it against the committed baseline
(bench/BENCH_baseline.json). The gates, in the order they run; the gate
fails (exit 1) on:

  1. any fig11 result where the indexed run was not bit-identical to the
     brute-force run (`identical: false`) — correctness, zero tolerance;
  2. fig11 speedup at the largest population below --min-speedup
     (default 10x) — the asymptotic win must not rot;
  3. when --fig12 is given: any fig12 slot where the incremental engine's
     schedule diverged from the per-slot rebuild reference
     (`identical: false`) — zero tolerance — and a median slot-turnover
     speedup below --min-fig12-speedup (default 4x; see the flag's help
     for why the floor sits below the typically observed 5-7x) on the
     gate scenario (the "churn" workload at 100k sensors, 1% churn);
  4. when --fig14 is given: the record/replay gate — any engine row whose
     trace replay was not bit-identical to its live closed-loop run
     (`identical: false`, checked on every (live, replay) pair) fails,
     zero tolerance, on every host; and the lazy row at the gate
     population (100k sensors) must carry at least 3 alternating (live,
     replay) pairs whose median rate ratio (replayed slots/sec over live
     closed-loop slots/sec) reaches --min-fig14-speedup (default 0.9 —
     the replayer must hold the live slot rate; the floor sits just under
     1.0 because each ratio compares two wall-clock passes of the same
     work, which jitter a few percent on shared runners);
  5. when --fig18 is given: the adaptive-SLO gate — any adaptive row
     whose recorded version-2 trace did not replay bit-identically
     (`replay_identical: false`) fails, zero tolerance, on every host:
     the replayer pins the recorded engine choices, so divergence is a
     determinism bug, never timing noise. The deadline checks are
     hardware-gated at >= 2 hardware threads (a 1-core container's
     wall-clock jitter makes hit/miss classification meaningless): the
     medium-SLO adaptive run must hit at least --min-fig18-hit-rate
     (default 0.95) of its deadlines while the medium-SLO *static* run
     misses at least half its spike-phase deadlines (otherwise the
     workload no longer stresses the SLO and the adaptive hit rate is
     vacuous), the medium-SLO adaptive run must recover (the
     post-spike phase back on the lazy ceiling), and the loose-SLO
     adaptive run must stay undegraded (all slots on lazy — the policy
     must not give away quality it has budget for);
  6. when --fig13 is given: the approximation gate — the sieve row at
     the gate population (100k sensors) must hold a utility ratio of at
     least --min-sieve-utility (default 0.8) while keeping a median
     slot-selection speedup of at least --min-sieve-speedup (default
     20x) over the exact engine — quality without the speedup would mean
     the refinement pass (core/sieve_streaming.cc) re-greedies the whole
     population, speedup without the quality would mean it stopped
     refining; utility ratios are deterministic for a fixed seed, so a
     drop is a real quality regression, not noise;
  7. when --fig16 is given: the kernel microbench must have produced rows
     (their digests are checked in 8);
  8. the baseline diffs, figure by figure (fig11, fig12, fig13, fig14,
     fig16, bench_schedulers). Deterministic *work* is fatal above
     --tolerance (default 20%): fig11 `pruned_pairs` (candidate pairs the
     indexed path scans) and fig13/fig14 `valuation_calls` are
     machine-independent and bit-reproducible. A fig16 outcome digest (an
     FNV-1a hash of the selection's raw bit patterns, deterministic for a
     fixed seed on every host) must equal the committed baseline digest —
     a changed digest means a kernel changed an answer, which requires an
     explicit --update to bless. *Time* regressions above --tolerance are
     checked after normalizing every wall time by the run's `cal_ms`
     calibration (a fixed FP loop timed in the same process), which makes
     the committed baseline comparable across hosts of different speeds;
     they are fatal only with --strict-time and otherwise warn, because
     shared CI runners jitter more than 20% while the work and digest
     checks stay exact.

Usage:
  check_bench_regression.py --fig11 fig11.json [--fig12 fig12.json]
      [--fig13 fig13.json] [--fig14 fig14.json] [--fig16 fig16.json]
      [--fig18 fig18.json]
      [--schedulers sched.json]
      --baseline bench/BENCH_baseline.json --out BENCH_pr.json
      [--min-speedup 10] [--min-fig12-speedup 4]
      [--min-sieve-utility 0.8] [--min-sieve-speedup 20]
      [--min-fig14-speedup 0.9] [--min-fig18-hit-rate 0.95]
      [--tolerance 0.2] [--strict-time] [--update]

--update rewrites the baseline from the current run instead of checking.
"""

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def google_benchmark_times(doc):
    """name -> real_time in ms from a google-benchmark JSON report."""
    out = {}
    for b in (doc or {}).get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}.get(unit)
        if scale is None:
            continue
        out[b["name"]] = b["real_time"] * scale
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--fig11", required=True, help="fig11_scale_sweep --json output")
    ap.add_argument("--fig12", help="fig12_streaming --json output")
    ap.add_argument("--fig13", help="fig13_approx_quality --json output")
    ap.add_argument("--fig14", help="fig14_replay --json output")
    ap.add_argument("--fig16", help="fig16_kernel_microbench --json output")
    ap.add_argument("--fig18", help="fig18_adaptive_slo --json output")
    ap.add_argument("--schedulers", help="bench_schedulers --benchmark_out JSON")
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--out", default="BENCH_pr.json")
    ap.add_argument("--min-speedup", type=float, default=10.0)
    # 4x, not the 5-7x typically observed: the incremental/rebuild
    # turnover *ratio* swings with the host's allocator and page-cache
    # behaviour (the rebuild side varies ~2x between otherwise identical
    # runs of the same binary), so the floor is set at what any capable
    # host clears rather than at a lucky measurement.
    ap.add_argument("--min-fig12-speedup", type=float, default=4.0)
    # The sieve refinement pass re-greedies only the buckets' member
    # union (population-independent), so it buys back most of the
    # one-pass threshold loss without surrendering the asymptotic win:
    # ~0.9 utility at ~40x is what the gate scenario measures, floored
    # with headroom at 0.8 / 20x.
    ap.add_argument("--min-sieve-utility", type=float, default=0.8)
    ap.add_argument("--min-sieve-speedup", type=float, default=20.0)
    # Just under 1.0: the gate asserts the replayer holds the live
    # closed-loop slot rate, but each pair's live and replay rates are two
    # separate wall-clock measurements of the same selection work and
    # jitter a few percent against each other on shared runners; the
    # median over the pairs damps one noisy pair.
    ap.add_argument("--min-fig14-speedup", type=float, default=0.9)
    # 0.95 over a 48+-slot run allows the policy's optimistic trial slot
    # (the first sieve entry during the spike) to overrun while every
    # modeled slot must hit.
    ap.add_argument("--min-fig18-hit-rate", type=float, default=0.95)
    ap.add_argument("--tolerance", type=float, default=0.20)
    ap.add_argument("--strict-time", action="store_true",
                    help="make normalized-time regressions fatal, not warnings")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from this run")
    args = ap.parse_args()

    fig11 = load(args.fig11)
    fig12 = load(args.fig12) if args.fig12 else None
    fig13 = load(args.fig13) if args.fig13 else None
    fig14 = load(args.fig14) if args.fig14 else None
    fig16 = load(args.fig16) if args.fig16 else None
    fig18 = load(args.fig18) if args.fig18 else None
    schedulers = load(args.schedulers) if args.schedulers else None

    pr = {
        "cal_ms": fig11.get("cal_ms", 0.0),
        "fig11": fig11.get("results", []),
        "fig12": (fig12 or {}).get("results", []),
        "fig13": (fig13 or {}).get("results", []),
        "fig14": (fig14 or {}).get("results", []),
        "fig16": (fig16 or {}).get("results", []),
        "fig18": (fig18 or {}).get("results", []),
        "scheduler_times_ms": google_benchmark_times(schedulers),
    }
    with open(args.out, "w") as f:
        json.dump(pr, f, indent=2)
    print(f"wrote {args.out}")

    if args.update:
        # Preserve baseline sections the current invocation did not
        # re-measure: a fig11-only refresh must not silently wipe the
        # fig12 (or scheduler) rows and degrade their gates to "not in
        # baseline" warnings.
        updated = dict(pr)
        try:
            old = load(args.baseline)
        except FileNotFoundError:
            old = {}
        if fig12 is None and old.get("fig12"):
            updated["fig12"] = old["fig12"]
        if fig13 is None and old.get("fig13"):
            updated["fig13"] = old["fig13"]
        if fig14 is None and old.get("fig14"):
            updated["fig14"] = old["fig14"]
        if fig16 is None and old.get("fig16"):
            updated["fig16"] = old["fig16"]
        if fig18 is None and old.get("fig18"):
            updated["fig18"] = old["fig18"]
        if schedulers is None and old.get("scheduler_times_ms"):
            updated["scheduler_times_ms"] = old["scheduler_times_ms"]
        with open(args.baseline, "w") as f:
            json.dump(updated, f, indent=2)
        print(f"baseline updated: {args.baseline}")
        return 0

    failures = []
    warnings = []

    # 1. bit-identical selections, always fatal.
    for r in pr["fig11"]:
        if not r.get("identical", False):
            failures.append(f"fig11 {r['name']} n={r['sensors']}: indexed run "
                            "diverged from brute force")

    # 2. speedup at the largest population.
    if pr["fig11"]:
        largest = max(r["sensors"] for r in pr["fig11"])
        for r in pr["fig11"]:
            if r["sensors"] != largest:
                continue
            if r["speedup"] < args.min_speedup:
                failures.append(
                    f"fig11 {r['name']} n={r['sensors']}: speedup "
                    f"{r['speedup']:.1f}x < required {args.min_speedup:.1f}x")
            else:
                print(f"ok: fig11 {r['name']} n={r['sensors']} speedup "
                      f"{r['speedup']:.1f}x (>= {args.min_speedup:.1f}x)")
    else:
        failures.append("fig11 produced no results")

    # 3. fig12 streaming-engine gate (only when the run provided it).
    if fig12 is not None:
        gate_rows = 0
        for r in pr["fig12"]:
            if not r.get("identical", False):
                failures.append(
                    f"fig12 {r.get('workload', '?')} n={r['sensors']}: "
                    "incremental engine diverged from the per-slot rebuild "
                    "reference")
            if r.get("workload") == "churn" and r["sensors"] == 100_000:
                gate_rows += 1
                if r["turnover_speedup"] < args.min_fig12_speedup:
                    failures.append(
                        f"fig12 churn n={r['sensors']}: turnover speedup "
                        f"{r['turnover_speedup']:.1f}x < required "
                        f"{args.min_fig12_speedup:.1f}x")
                else:
                    print(f"ok: fig12 churn n={r['sensors']} turnover speedup "
                          f"{r['turnover_speedup']:.1f}x "
                          f"(>= {args.min_fig12_speedup:.1f}x)")
        if gate_rows == 0:
            failures.append("fig12 produced no gate row (churn @ 100k sensors)")

    # 4. fig14 record/replay gate (only when the run provided it).
    if fig14 is not None:
        fig14_gate_rows = 0
        for r in pr["fig14"]:
            if not r.get("identical", False):
                failures.append(
                    f"fig14 {r.get('engine', '?')} n={r['sensors']}: trace "
                    "replay diverged from the live closed-loop run")
            if r["sensors"] != 100_000 or r.get("engine") != "lazy":
                continue
            fig14_gate_rows += 1
            pairs = r.get("pair_speedups", [])
            if len(pairs) < 3:
                failures.append(
                    f"fig14 lazy n={r['sensors']}: {len(pairs)} (live, "
                    "replay) pairs < required 3")
                continue
            median = statistics.median(pairs)
            if median < args.min_fig14_speedup:
                failures.append(
                    f"fig14 lazy n={r['sensors']}: replay sustained only "
                    f"{median:.2f}x the live closed-loop slot rate (median "
                    f"of {len(pairs)} pairs) < required "
                    f"{args.min_fig14_speedup:.2f}x")
            else:
                print(f"ok: fig14 lazy n={r['sensors']} replay rate "
                      f"{median:.2f}x live, median of {len(pairs)} pairs "
                      f"(>= {args.min_fig14_speedup:.2f}x)")
        if fig14_gate_rows == 0:
            failures.append(
                "fig14 produced no gate row (lazy @ 100k sensors)")

    # 5. fig18 adaptive-SLO gate (only when the run provided it).
    if fig18 is not None:
        if not pr["fig18"]:
            failures.append("fig18 produced no results")

        def fig18_row(mode, label):
            for r in pr["fig18"]:
                if r.get("mode") == mode and r.get("slo_label") == label:
                    return r
            return None

        # Replay bit-identity of every recorded adaptive trace: fatal on
        # every host. The replayer pins the recorded engine choices, so a
        # divergence is a determinism bug, never timing noise.
        for r in pr["fig18"]:
            if (r.get("mode") == "adaptive"
                    and not r.get("replay_identical", False)):
                failures.append(
                    f"fig18 adaptive slo={r.get('slo_label', '?')}: recorded "
                    "trace did not replay bit-identically")

        med_ad = fig18_row("adaptive", "medium")
        med_st = fig18_row("static", "medium")
        loose_ad = fig18_row("adaptive", "loose")
        if med_ad is None or med_st is None or loose_ad is None:
            failures.append(
                "fig18 missing gate rows (medium static/adaptive and loose "
                "adaptive)")
        else:
            hardware = med_ad.get("hardware_threads", 0)
            if hardware < 2:
                warnings.append(
                    "fig18 deadline checks SKIPPED — host has "
                    f"{hardware} hardware thread(s), wall-clock hit/miss "
                    "classification needs >= 2 (replay bit-identity still "
                    "enforced)")
            else:
                if med_st["spike_hit_rate"] > 0.5:
                    failures.append(
                        "fig18 static medium SLO: spike hit rate "
                        f"{med_st['spike_hit_rate']:.2f} > 0.5 — the spike "
                        "no longer stresses the SLO, so the adaptive hit "
                        "rate proves nothing")
                else:
                    print(f"ok: fig18 static medium SLO misses the spike "
                          f"(spike hit rate {med_st['spike_hit_rate']:.2f})")
                if med_ad["hit_rate"] < args.min_fig18_hit_rate:
                    failures.append(
                        f"fig18 adaptive medium SLO: hit rate "
                        f"{med_ad['hit_rate']:.3f} < required "
                        f"{args.min_fig18_hit_rate:.2f}")
                else:
                    print(f"ok: fig18 adaptive medium SLO hit rate "
                          f"{med_ad['hit_rate']:.3f} "
                          f"(>= {args.min_fig18_hit_rate:.2f})")
                if not med_ad.get("recovered", False):
                    failures.append(
                        "fig18 adaptive medium SLO: recover phase did not "
                        "return to the lazy ceiling after the spike")
                else:
                    print("ok: fig18 adaptive medium SLO recovered to the "
                          "lazy ceiling after the spike")
                if loose_ad.get("lazy_slots", 0) != loose_ad.get("slots", -1):
                    failures.append(
                        f"fig18 adaptive loose SLO: degraded "
                        f"({loose_ad.get('lazy_slots', 0)}/"
                        f"{loose_ad.get('slots', 0)} slots on lazy) with "
                        "budget to spare — the policy gives away quality")
                else:
                    print("ok: fig18 adaptive loose SLO stayed undegraded "
                          f"({loose_ad['lazy_slots']}/{loose_ad['slots']} "
                          "slots on lazy)")

    # 6. fig13 approximation gate (only when the run provided it). The
    # utility ratio is deterministic for a fixed seed — below-bar quality
    # is a real regression in the scheduler, not measurement noise.
    if fig13 is not None:
        sieve_gate_rows = 0
        for r in pr["fig13"]:
            # Gate only the canonical scenario (100k sensors, 1% churn);
            # full runs add churn-rate sweep rows that are informational.
            if r["sensors"] != 100_000 or r.get("churn", 0.01) != 0.01:
                continue
            if r.get("engine") == "sieve":
                # The refinement pass (core/sieve_streaming.cc) closed the
                # one-pass quality gap; both sides of the trade gate:
                # utility without the speedup would mean the refinement
                # re-greedies the population, speedup without the utility
                # would mean it stopped refining.
                sieve_gate_rows += 1
                if r["utility_ratio"] < args.min_sieve_utility:
                    failures.append(
                        f"fig13 sieve n={r['sensors']}: utility ratio "
                        f"{r['utility_ratio']:.4f} < required "
                        f"{args.min_sieve_utility:.2f}")
                else:
                    print(f"ok: fig13 sieve n={r['sensors']} utility ratio "
                          f"{r['utility_ratio']:.4f} "
                          f"(>= {args.min_sieve_utility:.2f})")
                if r["speedup_vs_exact"] < args.min_sieve_speedup:
                    failures.append(
                        f"fig13 sieve n={r['sensors']}: speedup "
                        f"{r['speedup_vs_exact']:.1f}x vs exact < required "
                        f"{args.min_sieve_speedup:.1f}x")
                else:
                    print(f"ok: fig13 sieve n={r['sensors']} speedup "
                          f"{r['speedup_vs_exact']:.1f}x vs exact "
                          f"(>= {args.min_sieve_speedup:.1f}x)")
        if sieve_gate_rows == 0:
            failures.append(
                "fig13 produced no sieve gate row (sieve @ 100k sensors)")

    # 7. fig16 kernel microbench (only when the run provided it): its
    # digests are diffed against the committed baseline in 8.
    if fig16 is not None and not pr["fig16"]:
        failures.append("fig16 produced no results")

    try:
        base = load(args.baseline)
    except FileNotFoundError:
        warnings.append(f"no baseline at {args.baseline}; deterministic and "
                        "time diffs skipped (run with --update to create it)")
        base = None

    # 8. baseline diffs, figure by figure: deterministic work and digests
    # are fatal, normalized times only with --strict-time.
    if base is not None:
        limit = 1.0 + args.tolerance
        base_fig11 = {(r["name"], r["sensors"]): r for r in base.get("fig11", [])}
        for r in pr["fig11"]:
            b = base_fig11.get((r["name"], r["sensors"]))
            if b is None:
                warnings.append(f"fig11 {r['name']} n={r['sensors']}: "
                                "not in baseline (new benchmark?)")
                continue
            # Deterministic work metric — fatal.
            if b["pruned_pairs"] > 0 and r["pruned_pairs"] > b["pruned_pairs"] * limit:
                failures.append(
                    f"fig11 {r['name']} n={r['sensors']}: pruned_pairs "
                    f"{r['pruned_pairs']} > {limit:.2f}x baseline {b['pruned_pairs']}")
            # Normalized wall clock.
            if pr["cal_ms"] > 0 and base.get("cal_ms", 0) > 0 and b["pruned_ms"] > 0:
                norm_pr = r["pruned_ms"] / pr["cal_ms"]
                norm_base = b["pruned_ms"] / base["cal_ms"]
                if norm_base > 0 and norm_pr > norm_base * limit:
                    msg = (f"fig11 {r['name']} n={r['sensors']}: normalized "
                           f"pruned time {norm_pr:.3f} > {limit:.2f}x baseline "
                           f"{norm_base:.3f}")
                    (failures if args.strict_time else warnings).append(msg)

        # Like fig13 below, the key carries the workload shape: a nightly
        # full run (256 queries/slot) must not be time-diffed against the
        # committed --quick rows (128 queries/slot).
        def fig12_key(r):
            return (r.get("workload"), r["sensors"], r.get("slots", 0),
                    r.get("queries", 0))

        base_fig12 = {fig12_key(r): r for r in base.get("fig12", [])}
        for r in pr["fig12"]:
            b = base_fig12.get(fig12_key(r))
            if b is None:
                warnings.append(f"fig12 {r.get('workload', '?')} "
                                f"n={r['sensors']}: not in baseline")
                continue
            if (pr["cal_ms"] > 0 and base.get("cal_ms", 0) > 0
                    and b["incremental_turnover_ms"] > 0):
                norm_pr = r["incremental_turnover_ms"] / pr["cal_ms"]
                norm_base = b["incremental_turnover_ms"] / base["cal_ms"]
                if norm_base > 0 and norm_pr > norm_base * limit:
                    msg = (f"fig12 {r.get('workload', '?')} n={r['sensors']}: "
                           f"normalized incremental turnover {norm_pr:.4f} > "
                           f"{limit:.2f}x baseline {norm_base:.4f}")
                    (failures if args.strict_time else warnings).append(msg)

        # Keyed by the full workload shape: valuation_calls are summed over
        # slots, so a nightly full run (50 slots, 256 queries) must not be
        # diffed against the committed --quick rows (10 slots, 128
        # queries) at the same population — it falls through to the
        # "not in baseline" warning instead.
        def fig13_key(r):
            return (r.get("engine"), r["sensors"], r.get("churn", 0.01),
                    r.get("slots", 0), r.get("queries", 0),
                    r.get("epsilon", 0.1))

        base_fig13 = {fig13_key(r): r for r in base.get("fig13", [])}
        for r in pr["fig13"]:
            b = base_fig13.get(fig13_key(r))
            if b is None:
                warnings.append(f"fig13 {r.get('engine', '?')} "
                                f"n={r['sensors']}: not in baseline")
                continue
            # Deterministic work metric — fatal, like fig11 pruned_pairs.
            if (b.get("valuation_calls", 0) > 0
                    and r["valuation_calls"] > b["valuation_calls"] * limit):
                failures.append(
                    f"fig13 {r['engine']} n={r['sensors']}: valuation_calls "
                    f"{r['valuation_calls']} > {limit:.2f}x baseline "
                    f"{b['valuation_calls']}")
            if pr["cal_ms"] > 0 and base.get("cal_ms", 0) > 0 \
                    and b.get("median_ms", 0) > 0:
                norm_pr = r["median_ms"] / pr["cal_ms"]
                norm_base = b["median_ms"] / base["cal_ms"]
                if norm_base > 0 and norm_pr > norm_base * limit:
                    msg = (f"fig13 {r['engine']} n={r['sensors']}: normalized "
                           f"median time {norm_pr:.4f} > {limit:.2f}x "
                           f"baseline {norm_base:.4f}")
                    (failures if args.strict_time else warnings).append(msg)

        # fig14: valuation_calls are deterministic per workload shape;
        # replay wall time diffs normalized like every other time metric.
        def fig14_key(r):
            return (r.get("engine"), r["sensors"], r.get("slots", 0),
                    r.get("queries", 0))

        base_fig14 = {fig14_key(r): r for r in base.get("fig14", [])}
        for r in pr["fig14"]:
            b = base_fig14.get(fig14_key(r))
            if b is None:
                warnings.append(f"fig14 {r.get('engine', '?')} "
                                f"n={r['sensors']}: not in baseline")
                continue
            if (b.get("valuation_calls", 0) > 0
                    and r["valuation_calls"] > b["valuation_calls"] * limit):
                failures.append(
                    f"fig14 {r['engine']} n={r['sensors']}: valuation_calls "
                    f"{r['valuation_calls']} > {limit:.2f}x baseline "
                    f"{b['valuation_calls']}")
            if pr["cal_ms"] > 0 and base.get("cal_ms", 0) > 0 \
                    and b.get("replay_wall_ms", 0) > 0:
                norm_pr = r["replay_wall_ms"] / pr["cal_ms"]
                norm_base = b["replay_wall_ms"] / base["cal_ms"]
                if norm_base > 0 and norm_pr > norm_base * limit:
                    msg = (f"fig14 {r['engine']} n={r['sensors']}: normalized "
                           f"replay time {norm_pr:.4f} > {limit:.2f}x "
                           f"baseline {norm_base:.4f}")
                    (failures if args.strict_time else warnings).append(msg)

        # fig16: the outcome digest is an FNV-1a hash over the selection's
        # raw bit patterns, deterministic for a fixed seed on every host —
        # a changed digest means a kernel changed an answer, which is
        # fatal until blessed with --update. Kernel time diffs normalized
        # like every other time metric.
        def fig16_key(r):
            return (r.get("query"), r["sensors"], r.get("queries", 0))

        base_fig16 = {fig16_key(r): r for r in base.get("fig16", [])}
        for r in pr["fig16"]:
            b = base_fig16.get(fig16_key(r))
            if b is None:
                warnings.append(f"fig16 {r.get('query', '?')} "
                                f"n={r['sensors']}: not in baseline")
                continue
            if b.get("digest") and r.get("digest") != b["digest"]:
                failures.append(
                    f"fig16 {r['query']} n={r['sensors']}: outcome digest "
                    f"{r.get('digest')} != baseline {b['digest']} — a kernel "
                    "changed an answer (re-bless with --update if intended)")
            if pr["cal_ms"] > 0 and base.get("cal_ms", 0) > 0 \
                    and b.get("soa_median_ms", 0) > 0:
                norm_pr = r["soa_median_ms"] / pr["cal_ms"]
                norm_base = b["soa_median_ms"] / base["cal_ms"]
                if norm_base > 0 and norm_pr > norm_base * limit:
                    msg = (f"fig16 {r['query']} n={r['sensors']}: normalized "
                           f"kernel time {norm_pr:.4f} > {limit:.2f}x "
                           f"baseline {norm_base:.4f}")
                    (failures if args.strict_time else warnings).append(msg)

        base_times = base.get("scheduler_times_ms", {})
        for name, t in pr["scheduler_times_ms"].items():
            bt = base_times.get(name)
            if bt is None or bt <= 0 or pr["cal_ms"] <= 0 or base.get("cal_ms", 0) <= 0:
                continue
            norm_pr = t / pr["cal_ms"]
            norm_base = bt / base["cal_ms"]
            if norm_pr > norm_base * limit:
                msg = (f"bench_schedulers {name}: normalized time {norm_pr:.3f} "
                       f"> {limit:.2f}x baseline {norm_base:.3f}")
                (failures if args.strict_time else warnings).append(msg)

    for w in warnings:
        print(f"warning: {w}")
    if failures:
        for f_ in failures:
            print(f"FAIL: {f_}", file=sys.stderr)
        return 1
    print("benchmark-regression gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
