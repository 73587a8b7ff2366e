#!/usr/bin/env python3
"""Tests for the benchmark-regression gate (check_bench_regression.py).

Synthetic figure outputs, no build: python3 scripts/check_bench_regression_test.py
"""

import contextlib
import copy
import io
import json
import os
import re
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as gate  # noqa: E402


def fig(bench, rows, cal_ms=50.0):
    return {"bench": bench, "cal_ms": cal_ms, "results": rows}


def slo_row(mode, label, **fields):
    return {"mode": mode, "slo_label": label, "sensors": 40000, "slots": 48,
            "hardware_threads": 4, "hit_rate": 1.0, "spike_hit_rate": 1.0,
            "lazy_slots": 48, "recovered": True, "replay_identical": True,
            **fields}


SHAPE13 = {"sensors": 100000, "churn": 0.01, "slots": 10, "queries": 128,
           "epsilon": 0.1}

# Passing inputs: every gate row has a row to read, and each figure has
# a row that no floor selects.
GOOD = {
    "fig11": fig("fig11_scale_sweep", [
        {"name": "point_baseline", "sensors": 10000, "speedup": 2.0,
         "identical": True, "pruned_pairs": 1000, "pruned_ms": 1.0},
        {"name": "point_baseline", "sensors": 100000, "speedup": 20.0,
         "identical": True, "pruned_pairs": 5000, "pruned_ms": 4.0}]),
    "fig12": fig("fig12_streaming", [
        {"workload": "churn", "sensors": 100000, "slots": 50,
         "queries": 128, "turnover_speedup": 5.0, "identical": True,
         "incremental_turnover_ms": 1.0},
        {"workload": "mixed", "sensors": 100000, "slots": 50,
         "queries": 128, "turnover_speedup": 1.0, "identical": True,
         "incremental_turnover_ms": 2.0}]),
    "fig13": fig("fig13_approx_quality", [
        {"engine": "lazy", **SHAPE13, "utility_ratio": 1.0,
         "speedup_vs_exact": 8.0, "valuation_calls": 9000,
         "median_ms": 10.0},
        {"engine": "sieve", **SHAPE13, "utility_ratio": 0.85,
         "speedup_vs_exact": 25.0, "valuation_calls": 1000,
         "median_ms": 3.0}]),
    "fig14": fig("fig14_replay", [
        {"engine": "lazy", "sensors": 100000, "slots": 10, "queries": 64,
         "identical": True, "pair_speedups": [1.0, 0.95, 1.05],
         "valuation_calls": 5000, "replay_wall_ms": 100.0},
        {"engine": "sieve", "sensors": 100000, "slots": 10, "queries": 64,
         "identical": True, "pair_speedups": [0.1, 0.1, 0.1],
         "valuation_calls": 1000, "replay_wall_ms": 50.0}]),
    "fig16": fig("fig16_kernel_microbench", [
        {"query": "point", "sensors": 10000, "queries": 48,
         "digest": "53c7cd85fd25511c", "soa_median_ms": 0.2}]),
    "fig18": fig("fig18_adaptive_slo", [
        slo_row("static", "medium", spike_hit_rate=0.0),
        slo_row("adaptive", "medium", hit_rate=0.97, lazy_slots=32),
        slo_row("adaptive", "loose")]),
    "bench_schedulers": {"benchmarks": [
        {"name": "BM_PointBaseline/50", "run_type": "iteration",
         "real_time": 1000.0, "time_unit": "ns"}]},
}

# Each identity row: (figure, index of a GOOD row it gates, flag).
IDENTITY_ROWS = [("fig11", 0, "identical"), ("fig12", 1, "identical"),
                 ("fig14", 1, "identical"), ("fig18", 2, "replay_identical")]

# Each floor row (figure, metric): its PR bound, its nightly bound, and a
# value past both.
FLOOR_BOUNDS = {
    ("fig11", "speedup"): (10, 8, 7.0),
    ("fig12", "turnover_speedup"): (4, 3, 2.5),
    ("fig13", "utility_ratio"): (0.8, 0.70, 0.6),
    ("fig13", "speedup_vs_exact"): (20, 10, 8.0),
    ("fig14", "median_pair_speedup"): (0.9, 0.5, 0.4),
    ("fig18", "hit_rate"): (0.95, 0.90, 0.85),
    ("fig18", "spike_hit_rate"): (0.5, 0.5, 0.6),
    ("fig18", "recovered"): (True, True, False),
    ("fig18", "lazy_slots"): ("slots", "slots", 47),
}

# Each baseline check (figure, field): a work count, or a digest string.
BASELINE_FIELDS = [("fig11", "pruned_pairs"), ("fig13", "valuation_calls"),
                   ("fig14", "valuation_calls"), ("fig16", "digest")]


def set_field(docs, figure, selector, metric, value):
    """Sets metric on every row the selector matches; returns one of them."""
    hit = gate.matching(docs[figure]["results"], selector)
    for r in hit:
        if metric == "median_pair_speedup":
            r["pair_speedups"] = [value] * 3
        else:
            r[metric] = value
    return hit[0]


class GateTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.dir = tmp.name
        self.baseline = os.path.join(self.dir, "baseline.json")
        self.assertEqual(self.run_gate(GOOD, "--update")[0], 0)

    def run_gate(self, docs, *flags):
        paths = []
        for name, doc in docs.items():
            paths.append(os.path.join(self.dir, f"{name}_in.json"))
            with open(paths[-1], "w") as f:
                json.dump(doc, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            try:
                code = gate.main([*paths, "--baseline", self.baseline,
                                  "--out", os.path.join(self.dir, "pr.json"),
                                  *flags])
            except SystemExit as e:
                code = e.code
        return code, out.getvalue()

    def assert_fails(self, docs, needle, *flags):
        code, out = self.run_gate(docs, *flags)
        self.assertEqual(code, 1, out)
        self.assertIn(needle, "\n".join(
            line for line in out.splitlines() if line.startswith("FAIL")))

    def test_good_inputs_pass_both_bound_sets(self):
        for flags in ((), ("--nightly",)):
            code, out = self.run_gate(GOOD, *flags)
            self.assertEqual(code, 0, out)
            self.assertIn("PASS", out)
            self.assertNotIn("warning", out)

    def test_identity_rows(self):
        for figure, index, field in IDENTITY_ROWS:
            with self.subTest(figure=figure, field=field):
                docs = copy.deepcopy(GOOD)
                row = docs[figure]["results"][index]
                row[field] = False
                self.assert_fails(docs, gate.row_name(figure, row) +
                                  f": {field} is false")
        docs = copy.deepcopy(GOOD)
        docs["fig18"]["results"][0]["replay_identical"] = False  # static
        self.assertEqual(self.run_gate(docs)[0], 0)

    def test_floor_rows_at_both_bounds(self):
        names = [(f, getattr(m, "__name__", m)) for f, _, m, *_ in gate.FLOORS]
        self.assertEqual(sorted(names), sorted(FLOOR_BOUNDS))
        for figure, selector, metric, _, pr, nightly, _ in gate.FLOORS:
            name = getattr(metric, "__name__", metric)
            with self.subTest(figure=figure, metric=name):
                self.assertEqual((pr, nightly),
                                 FLOOR_BOUNDS[(figure, name)][:2])
                docs = copy.deepcopy(GOOD)
                row = set_field(docs, figure, selector, name,
                                FLOOR_BOUNDS[(figure, name)][2])
                needle = f"{gate.row_name(figure, row)}: {name}"
                self.assert_fails(docs, needle)
                self.assert_fails(docs, needle, "--nightly")
                if isinstance(pr, (bool, str)):
                    continue
                for flags, bound in (((), pr), (("--nightly",), nightly)):
                    set_field(docs, figure, selector, name, bound)
                    self.assertEqual(self.run_gate(docs, *flags)[0], 0)
                if pr != nightly:
                    set_field(docs, figure, selector, name, (pr + nightly) / 2)
                    self.assert_fails(docs, needle)
                    self.assertEqual(self.run_gate(docs, "--nightly")[0], 0)

    def test_floor_selector_matching_no_row_fails(self):
        for figure, selector, metric, *_ in gate.FLOORS:
            if any(callable(v) for v in selector.values()):
                continue  # fig11's largest population always matches
            with self.subTest(figure=figure, selector=selector):
                docs = copy.deepcopy(GOOD)
                rows = docs[figure]["results"]
                hit = gate.matching(rows, selector)
                rows[:] = [r for r in rows if r not in hit]
                self.assert_fails(docs, gate.describe(figure, selector) +
                                  ": no such row")

    def test_fig14_needs_three_pairs(self):
        docs = copy.deepcopy(GOOD)
        docs["fig14"]["results"][0]["pair_speedups"] = [1.0, 1.1]
        self.assert_fails(docs, "engine=lazy sensors=100000 slots=10 "
                                "queries=64: no median_pair_speedup")

    def test_given_figure_without_rows_fails(self):
        for figure in GOOD:
            with self.subTest(figure=figure):
                docs = copy.deepcopy(GOOD)
                docs[figure]["results" if figure != "bench_schedulers"
                             else "benchmarks"] = []
                self.assert_fails(docs, f"{figure} produced no rows")

    def test_one_thread_fig18_skips_deadline_rows(self):
        docs = copy.deepcopy(GOOD)
        for r in docs["fig18"]["results"]:
            r.update(hardware_threads=1, hit_rate=0.0, spike_hit_rate=1.0,
                     recovered=False, lazy_slots=0)
        code, out = self.run_gate(docs)
        self.assertEqual(code, 0, out)
        self.assertEqual(out.count("SKIPPED"), 4)
        docs["fig18"]["results"][2]["replay_identical"] = False
        self.assert_fails(docs, "slo_label=loose sensors=40000 slots=48: "
                                "replay_identical is false")

    def test_baseline_work_and_digest_rows(self):
        for figure, field in BASELINE_FIELDS:
            with self.subTest(figure=figure, field=field):
                docs = copy.deepcopy(GOOD)
                row = docs[figure]["results"][-1]
                if isinstance(row[field], str):
                    row[field] = "0" * 16
                else:
                    row[field] = int(row[field] * 1.19)
                    self.assertEqual(self.run_gate(docs)[0], 0)
                    row[field] = int(GOOD[figure]["results"][-1][field]
                                     * 1.21)
                self.assert_fails(docs, gate.row_name(figure, row) +
                                  f": {field}")

    def test_times_normalize_by_each_figures_own_calibration(self):
        docs = copy.deepcopy(GOOD)
        docs["fig16"]["cal_ms"] = 100.0  # a host half as fast
        docs["fig16"]["results"][0]["soa_median_ms"] = 0.4
        docs["fig11"]["cal_ms"] = 25.0  # a host twice as fast
        for r in docs["fig11"]["results"]:
            r["pruned_ms"] /= 2
        docs["bench_schedulers"]["benchmarks"][0]["real_time"] = 500.0
        code, out = self.run_gate(docs)
        self.assertEqual((code, "warning" in out), (0, False), out)
        # fig16 measured on the slower host under the faster calibration;
        # bench_schedulers, timed without one, borrows fig11's.
        docs["fig16"]["cal_ms"] = 50.0
        docs["bench_schedulers"]["benchmarks"][0]["real_time"] = 1000.0
        code, out = self.run_gate(docs)
        self.assertEqual(code, 0, out)
        for row in ("fig16 query=point sensors=10000 queries=48",
                    "bench_schedulers name=BM_PointBaseline/50"):
            self.assertIn(f"warning: {row}: normalized", out)

    def test_partial_update_keeps_other_sections(self):
        with open(self.baseline) as f:
            before = json.load(f)
        fig13 = fig("fig13_approx_quality",
                    [dict(GOOD["fig13"]["results"][1], median_ms=1.0)],
                    cal_ms=40.0)
        self.assertEqual(self.run_gate({"fig13": fig13}, "--update")[0], 0)
        with open(self.baseline) as f:
            after = json.load(f)
        self.assertEqual(after["fig13"],
                         {"cal_ms": 40.0, "results": fig13["results"]})
        self.assertEqual({k: v for k, v in after.items() if k != "fig13"},
                         {k: v for k, v in before.items() if k != "fig13"})
        self.assertEqual(list(after), list(before))

    def test_unrecognised_input_is_refused(self):
        for doc in ({"results": []}, {"bench": "fig02_point_rwm"}, [1, 2]):
            with self.subTest(doc=doc):
                code, out = self.run_gate({**GOOD, "other": doc})
                self.assertEqual(code, 2, out)
                self.assertIn("other_in.json: not a fig11-fig18", out)
        code, out = self.run_gate({**GOOD, "fig11_again": GOOD["fig11"]})
        self.assertEqual(code, 2)
        self.assertIn("a second fig11 input", out)

    def test_check_run_needs_fig11(self):
        docs = {k: v for k, v in GOOD.items() if k != "fig11"}
        self.assertEqual(self.run_gate(docs)[0], 2)
        self.assertEqual(self.run_gate(docs, "--update")[0], 0)

    def test_help_lists_four_options(self):
        code, out = self.run_gate({}, "--help")
        self.assertEqual(code, 0)
        self.assertEqual(set(re.findall(r"^  (\S+)", out, re.M)),
                         {"results", "-h,", "--baseline", "--out",
                          "--update", "--nightly"})


if __name__ == "__main__":
    unittest.main()
