// Fig. 14 (beyond the paper): trace record/replay fidelity and replay
// throughput.
//
// A serving run of the acquisition engine is fully determined by its
// inputs — the initial registry, each slot's SensorDelta, each slot's
// query batch, and the per-slot approximate-scheduler seed. The trace
// layer (src/trace/) records exactly that input stream; this bench
// closes the loop on the claim: per engine it
//
//   1. runs the live closed-loop fig12-style churn scenario
//      (sim/workload.h MakeChurnScenario — the same constructor as the
//      fig12/fig13 gate rows) with recording on,
//   2. replays the recorded trace through a fresh engine with the
//      monitor set attached (latency histogram, valuation counters,
//      index-repair timing), and
//   3. checks every slot's schedule, payments, and valuation-call count
//      replayed *bit-identically* — for both serving engines, lazy and
//      sieve — and reports the replayer's sustained slot rate next to
//      the live closed loop's.
//
// Steps 1-3 run as kPairs alternating (live, replay) pairs per engine in
// this one process. Each pair's replay must match its own live run, and
// the row's replay_speedup is the median of the per-pair rate ratios: a
// single live pass against a single replay pass is two separate
// wall-clock measurements, and on a shared host their ratio swung by
// more than the gate's margin on runs that never touched replay.
//
// `--json PATH` emits the record consumed by
// scripts/check_bench_regression.py, which fails on any `identical:
// false` row and gates the lazy row's replay_speedup at 100k sensors
// (>= --min-fig14-speedup; the replayer must sustain at least the live
// closed-loop slot rate, within timer noise). `--trace-dir DIR` keeps
// the recorded traces (the nightly job uploads them as artifacts);
// without it traces live in a temp directory and are deleted.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/workload.h"
#include "trace/closed_loop.h"
#include "trace/monitor.h"
#include "trace/trace_replayer.h"

namespace psens {
namespace {

struct ReplayRow {
  std::string engine;
  int sensors = 0;
  int slots = 0;
  int queries_per_slot = 0;
  int aggregates_per_slot = 0;
  double churn_fraction = 0.0;
  bool identical = false;
  double live_wall_ms = 0.0;
  double live_slots_per_sec = 0.0;
  double replay_wall_ms = 0.0;
  double replay_slots_per_sec = 0.0;
  double replay_speedup = 0.0;  // median of pair_speedups
  /// Replay rate over live rate, one per (live, replay) pair.
  std::vector<double> pair_speedups;
  double total_payment = 0.0;
  int64_t valuation_calls = 0;
  std::string monitors_json;
};

struct GreedyEngineCase {
  const char* name;
  GreedyEngine engine;
};

constexpr GreedyEngineCase kEngines[] = {
    {"lazy", GreedyEngine::kLazy},
    {"sieve", GreedyEngine::kSieve},
};

/// (live, replay) pairs per engine; the gate reads their median ratio.
constexpr int kPairs = 5;

double SlotsPerSec(size_t slots, double wall_ms) {
  return wall_ms > 0.0 ? 1000.0 * static_cast<double>(slots) / wall_ms : 0.0;
}

std::vector<ReplayRow> RunOne(int n, int slots, double churn_fraction,
                              const bench::BenchArgs& args,
                              const std::string& trace_dir) {
  const ChurnScenarioSetup setup = MakeChurnScenario(
      n, churn_fraction, args.seed, /*with_mobility=*/false);

  ChurnQueryConfig queries;
  queries.queries_per_slot = args.quick ? 64 : 128;
  queries.aggregates_per_slot = args.quick ? 8 : 16;

  std::vector<ReplayRow> rows;
  for (const GreedyEngineCase& c : kEngines) {
    char path[512];
    std::snprintf(path, sizeof(path), "%s/fig14_%s_%d.trace",
                  trace_dir.c_str(), c.name, n);

    ClosedLoopConfig lcfg;
    lcfg.slots = slots;
    lcfg.queries = queries;
    lcfg.serving.scheduler = c.engine;
    lcfg.serving.trace_path = path;
    lcfg.serving.approx.epsilon = args.epsilon;
    lcfg.serving.approx.seed = args.seed;
    const ServingConfig replay_serving =
        ServingConfig().WithScheduler(c.engine);

    ReplayRow row;
    row.engine = c.name;
    row.sensors = n;
    row.slots = slots;
    row.queries_per_slot = queries.queries_per_slot;
    row.aggregates_per_slot = queries.aggregates_per_slot;
    row.churn_fraction = churn_fraction;
    row.identical = true;
    std::vector<double> live_ms;
    std::vector<double> replay_ms;
    for (int pair = 0; pair < kPairs; ++pair) {
      const ClosedLoopResult live = RunChurnClosedLoop(setup, lcfg);

      LatencyHistogramMonitor latency;
      ValuationCounterMonitor calls;
      IndexRepairMonitor repair;
      MonitorSet monitors;
      monitors.Attach(&latency);
      monitors.Attach(&calls);
      monitors.Attach(&repair);
      const ReplayResult replayed = TraceReplayer(replay_serving).Replay(
          path, setup.scenario.sensors, &monitors);
      if (!replayed.ok) {
        std::fprintf(stderr, "fig14 %s n=%d pair %d: replay failed: %s\n",
                     c.name, n, pair, replayed.error.c_str());
      }

      bool identical =
          replayed.ok && replayed.outcomes.size() == live.outcomes.size();
      for (size_t i = 0; identical && i < live.outcomes.size(); ++i) {
        if (!SameOutcome(live.outcomes[i], replayed.outcomes[i])) {
          identical = false;
          std::fprintf(stderr,
                       "fig14 %s n=%d pair %d: slot %d replay diverged from "
                       "live\n",
                       c.name, n, pair, live.outcomes[i].time);
        }
      }
      row.identical = row.identical && identical;
      // Both rates cover slots 1..slots: the live clock starts after
      // slot 0 and the replayer's after its first record, the cold build.
      const double live_rate =
          SlotsPerSec(static_cast<size_t>(slots), live.wall_ms);
      live_ms.push_back(live.wall_ms);
      replay_ms.push_back(replayed.wall_ms);
      row.pair_speedups.push_back(
          live_rate > 0.0 ? replayed.slots_per_sec / live_rate : 0.0);
      if (pair == 0) {
        row.total_payment = live.total_payment;
        row.valuation_calls = live.valuation_calls;
        monitors.AppendJson(&row.monitors_json);
      }
    }
    const size_t served = static_cast<size_t>(slots);  // cold build excluded
    row.live_wall_ms = bench::MedianMs(live_ms);
    row.live_slots_per_sec = SlotsPerSec(served, row.live_wall_ms);
    row.replay_wall_ms = bench::MedianMs(replay_ms);
    row.replay_slots_per_sec = SlotsPerSec(served, row.replay_wall_ms);
    row.replay_speedup = bench::MedianMs(row.pair_speedups);
    rows.push_back(row);
  }
  return rows;
}

void WriteJson(const std::string& path, double cal_ms,
               const std::vector<ReplayRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig14_replay\",\n");
  std::fprintf(f, "  \"cal_ms\": %.6f,\n  \"results\": [\n", cal_ms);
  for (size_t i = 0; i < rows.size(); ++i) {
    const ReplayRow& r = rows[i];
    std::string pairs;
    for (double ratio : r.pair_speedups) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.3f", pairs.empty() ? "" : ", ",
                    ratio);
      pairs += buf;
    }
    std::fprintf(
        f,
        "    {\"engine\": \"%s\", \"sensors\": %d, \"slots\": %d, "
        "\"queries\": %d, \"aggregates\": %d, \"churn\": %.4f, "
        "\"identical\": %s, \"live_wall_ms\": %.4f, "
        "\"live_slots_per_sec\": %.3f, \"replay_wall_ms\": %.4f, "
        "\"replay_slots_per_sec\": %.3f, \"replay_speedup\": %.3f, "
        "\"pair_speedups\": [%s], "
        "\"total_payment\": %.6f, \"valuation_calls\": %" PRId64 ", "
        "\"monitors\": %s}%s\n",
        r.engine.c_str(), r.sensors, r.slots, r.queries_per_slot,
        r.aggregates_per_slot, r.churn_fraction,
        r.identical ? "true" : "false", r.live_wall_ms, r.live_slots_per_sec,
        r.replay_wall_ms, r.replay_slots_per_sec, r.replay_speedup,
        pairs.c_str(), r.total_payment, r.valuation_calls,
        r.monitors_json.c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace psens

int main(int argc, char** argv) {
  using namespace psens;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  // fig14-specific flag (BenchArgs ignores what it does not know):
  //   --trace-dir DIR      keep recorded traces under DIR
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-dir") == 0 && i + 1 < argc) {
      trace_dir = argv[++i];
    }
  }
  const bool keep_traces = !trace_dir.empty();
  if (!keep_traces) {
    const char* tmp = std::getenv("TMPDIR");
    trace_dir = tmp != nullptr ? tmp : "/tmp";
  }

  const int slots = std::max(args.slots, 3);
  const double churn_fraction = 0.01;
  std::vector<int> populations = args.quick
                                     ? std::vector<int>{100'000}
                                     : std::vector<int>{10'000, 100'000};
  if (args.max_sensors > 0) {
    std::vector<int> capped;
    for (int n : populations) {
      if (n <= args.max_sensors) capped.push_back(n);
    }
    if (capped.empty()) capped.push_back(args.max_sensors);
    populations = capped;
  }

  bench::PrintHeader("fig14: trace record/replay fidelity and throughput");
  std::printf("%-11s %9s %6s %10s %12s %14s %9s %9s\n", "engine", "sensors",
              "slots", "identical", "live_sl/s", "replay_sl/s", "speedup",
              "val_calls");

  const double cal_ms = bench::CalibrationMs();
  std::vector<ReplayRow> rows;
  for (int n : populations) {
    for (const ReplayRow& r :
         RunOne(n, slots, churn_fraction, args, trace_dir)) {
      std::printf("%-11s %9d %6d %10s %12.2f %14.2f %8.2fx %9" PRId64 "\n",
                  r.engine.c_str(), r.sensors, r.slots,
                  r.identical ? "yes" : "NO", r.live_slots_per_sec,
                  r.replay_slots_per_sec, r.replay_speedup, r.valuation_calls);
      rows.push_back(r);
      if (!keep_traces) {
        char path[512];
        std::snprintf(path, sizeof(path), "%s/fig14_%s_%d.trace",
                      trace_dir.c_str(), r.engine.c_str(), r.sensors);
        std::remove(path);
      }
    }
  }

  std::printf("\ncalibration: %.2f ms (fixed FP loop; regression-gate time "
              "normalizer)\n", cal_ms);
  if (keep_traces) {
    std::printf("traces kept under %s\n", trace_dir.c_str());
  }
  if (!args.json_path.empty()) WriteJson(args.json_path, cal_ms, rows);

  bool all_identical = true;
  for (const ReplayRow& r : rows) all_identical = all_identical && r.identical;
  return all_identical ? 0 : 1;
}
