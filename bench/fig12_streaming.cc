// Fig. 12 (beyond the paper): slot turnover of the streaming acquisition
// engine under sensor churn.
//
// The paper's aggregator is a long-running service: sensors announce
// prices each slot, queries arrive continuously. fig11 showed that the
// spatial index makes one slot's *scheduling* cheap; this sweep measures
// the other half of the loop — getting from slot t to slot t+1. The
// rebuild-from-scratch discipline (what the batch harness did before the
// engine layer) pays O(n) per slot to reconstruct the SlotContext and the
// spatial index from the full registry even when only 1% of the
// population changed. The incremental engine (src/engine/) repairs both
// from the delta, paying O(churn).
//
// Per population size, the incremental engine and the rebuild reference
// consume the *same* deterministic churn delta and query streams. The
// reference is what the batch loops did: a second registry receives the
// same ApplyDelta stream (an engine that is never asked for a slot), and
// each slot's context is rebuilt from it with BuildSlotContext. Two
// serving passes (one per side, full query load) establish bit-equality —
// every slot's schedule is recorded in the first pass and compared field
// by field in the second; any divergence (a selection, a payment, a
// quality) fails the run — and sustained slots/sec. A separate pair of
// turnover-only passes, interleaved in 10-slot blocks, measures the gated
// slot-turnover latency (ApplyDelta + BeginSlot, or ApplyDelta +
// BuildSlotContext); see docs/BENCHMARKS.md for the methodology
// rationale.
//
// `--json PATH` emits the record consumed by
// scripts/check_bench_regression.py, which gates on bit-equality and on a
// >=4x turnover speedup at 100k sensors / 1% churn (docs/BENCHMARKS.md).

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/point_scheduling.h"
#include "core/slot.h"
#include "engine/acquisition_engine.h"
#include "sim/workload.h"
#include "trace/closed_loop.h"

namespace psens {
namespace {

/// The per-slot rebuild reference: a registry that receives the same
/// ApplyDelta stream as the engine under test (an AcquisitionEngine whose
/// BeginSlot is never called, so it only applies deltas), and a slot
/// context rebuilt from that registry in full every slot.
class RebuildSide {
 public:
  RebuildSide(const std::vector<Sensor>& sensors, const ServingConfig& config)
      : config_(config),
        registry_(sensors, ServingConfig(config).WithIndexPolicy(
                               SlotIndexPolicy::kNone)) {}

  void ApplyDelta(const SensorDelta& delta) { registry_.ApplyDelta(delta); }

  const SlotContext& BeginSlot(int time) {
    ctx_ = BuildSlotContext(registry_.sensors(), config_.working_region, time,
                            config_.dmax, config_.index_policy);
    return ctx_;
  }

 private:
  ServingConfig config_;
  AcquisitionEngine registry_;
  SlotContext ctx_;
};

struct StreamResult {
  std::string workload;
  int sensors = 0;
  int slots = 0;
  int queries_per_slot = 0;
  double churn_fraction = 0.0;
  double rebuild_turnover_ms = 0.0;      // median per slot
  double incremental_turnover_ms = 0.0;  // median per slot
  double turnover_speedup = 0.0;         // median rebuild / median incremental
  double slots_per_sec_rebuild = 0.0;
  double slots_per_sec_incremental = 0.0;
  bool identical = false;
  std::string index_kind;
};

StreamResult RunOne(const char* workload, int n, int slots,
                    double churn_fraction, bool with_mobility,
                    const bench::BenchArgs& args) {
  StreamResult r;
  r.workload = workload;
  r.sensors = n;
  r.slots = slots;
  r.churn_fraction = churn_fraction;
  // The gate workload is the ISSUE's literal scenario — 1% membership
  // churn per slot over the shared city-scale geometry
  // (MakeChurnScenario, also fig13's). The "mixed" row layers
  // relocation and price-jitter streams on top for a fuller
  // announce-stream shape (not gated).
  const ChurnScenarioSetup setup =
      MakeChurnScenario(n, churn_fraction, args.seed, with_mobility);
  const std::vector<Sensor>& sensors = setup.scenario.sensors;

  r.queries_per_slot = args.quick ? 128 : 256;
  // Point queries only: each pass schedules them with local search.
  ChurnQueryConfig query_config;
  query_config.queries_per_slot = r.queries_per_slot;
  query_config.aggregates_per_slot = 0;

  // One pass of the serving loop in the given mode over the deterministic
  // delta/query streams. `reference` holds pass 1's per-slot schedules;
  // pass 2 verifies against them.
  struct PassTotals {
    std::vector<double> turnover_samples_ms;  // one per steady-state slot
    double turnover_ms = 0.0;
    double sched_ms = 0.0;

    /// Median per-slot turnover: the reported latency — robust against
    /// one-off spikes (allocator growth, cell spills, CI-runner
    /// preemption) that a mean would smear into every run.
    double MedianTurnoverMs() const { return bench::MedianMs(turnover_samples_ms); }
  };
  ServingConfig ecfg;
  ecfg.working_region = setup.field;
  ecfg.dmax = setup.dmax;
  ecfg.index_policy = args.index_policy;
  // `side` is the engine or the RebuildSide; both take ApplyDelta then
  // BeginSlot.
  const auto run_pass = [&](auto& side,
                            std::vector<PointScheduleResult>* reference,
                            bool* identical) {
    // A pass-local workload: both passes consume identical delta/query
    // streams.
    ChurnWorkload workload(&setup, query_config);
    PointSchedulingOptions options;
    options.scheduler = PointScheduler::kLocalSearch;
    // Slot 0 is the O(n) cold build on either side; steady-state slots
    // are what the sweep times.
    side.BeginSlot(0);
    PassTotals totals;
    for (int t = 1; t <= slots; ++t) {
      const SensorDelta delta = workload.NextDelta();
      const SlotContext* slot = nullptr;
      const double turnover = bench::TimeMs([&] {
        side.ApplyDelta(delta);
        slot = &side.BeginSlot(t);
      });
      totals.turnover_samples_ms.push_back(turnover);
      totals.turnover_ms += turnover;
      const std::vector<PointQuery> queries = workload.NextQueries(t).points;
      options.seed = args.seed + static_cast<uint64_t>(t);
      PointScheduleResult result;
      totals.sched_ms += bench::TimeMs(
          [&] { result = SchedulePointQueries(queries, *slot, options); });
      if (identical == nullptr) {
        reference->push_back(std::move(result));
      } else if (!bench::SameSchedule(result, (*reference)[static_cast<size_t>(t - 1)])) {
        *identical = false;
      }
    }
    return totals;
  };

  // Turnover-only passes: the same two sides + delta streams, no queries.
  // The gated latency is measured here so it reflects the cost of the
  // slot transition itself, not how much of the engine's working set the
  // previous slot's scheduling happened to evict — that pollution is
  // charged (to both sides alike) to the serving passes' slots/sec.
  // The two sides advance in alternating 10-slot blocks so both sample
  // the same machine conditions (frequency scaling, noisy neighbours on
  // shared runners) — two long back-to-back passes would let a few
  // seconds of drift skew the gated ratio.
  const auto run_turnover_passes = [&](PassTotals* inc_totals,
                                       PassTotals* reb_totals) {
    struct Lane {
      ChurnWorkload workload;
      int next_slot = 1;
      PassTotals* totals;
    };
    Lane lanes[2] = {
        {ChurnWorkload(&setup, query_config), 1, inc_totals},
        {ChurnWorkload(&setup, query_config), 1, reb_totals},
    };
    AcquisitionEngine engine(sensors, ecfg);
    RebuildSide rebuild(sensors, ecfg);
    engine.BeginSlot(0);
    rebuild.BeginSlot(0);
    const auto advance_block = [&](auto& side, Lane& lane) {
      constexpr int kBlock = 10;
      for (int b = 0; b < kBlock && lane.next_slot <= slots; ++b) {
        const int t = lane.next_slot++;
        const SensorDelta delta = lane.workload.NextDelta();
        const double turnover = bench::TimeMs([&] {
          side.ApplyDelta(delta);
          side.BeginSlot(t);
        });
        lane.totals->turnover_samples_ms.push_back(turnover);
        lane.totals->turnover_ms += turnover;
      }
    };
    while (lanes[0].next_slot <= slots || lanes[1].next_slot <= slots) {
      advance_block(engine, lanes[0]);
      advance_block(rebuild, lanes[1]);
    }
  };

  std::vector<PointScheduleResult> reference;
  reference.reserve(static_cast<size_t>(slots));
  r.identical = true;
  PassTotals inc;
  {
    AcquisitionEngine engine(sensors, ecfg);
    inc = run_pass(engine, &reference, nullptr);
    r.index_kind = engine.IndexBackendName();
  }
  PassTotals reb;
  {
    RebuildSide rebuild(sensors, ecfg);
    reb = run_pass(rebuild, &reference, &r.identical);
  }
  PassTotals inc_turnover;
  PassTotals reb_turnover;
  run_turnover_passes(&inc_turnover, &reb_turnover);

  // The gated speedup is the ratio of the two medians: 50 interleaved,
  // query-free samples per mode make each median stable to a few
  // percent, where a min-vs-min ratio would swing on one lucky slot.
  r.rebuild_turnover_ms = reb_turnover.MedianTurnoverMs();
  r.incremental_turnover_ms = inc_turnover.MedianTurnoverMs();
  r.turnover_speedup =
      r.incremental_turnover_ms > 0.0
          ? r.rebuild_turnover_ms / r.incremental_turnover_ms
          : 0.0;
  r.slots_per_sec_rebuild = 1000.0 * slots / (reb.turnover_ms + reb.sched_ms);
  r.slots_per_sec_incremental =
      1000.0 * slots / (inc.turnover_ms + inc.sched_ms);
  return r;
}

void WriteJson(const std::string& path, double cal_ms,
               const std::vector<StreamResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig12_streaming\",\n");
  std::fprintf(f, "  \"cal_ms\": %.6f,\n  \"results\": [\n", cal_ms);
  for (size_t i = 0; i < results.size(); ++i) {
    const StreamResult& r = results[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"sensors\": %d, \"slots\": %d, "
                 "\"queries\": %d, "
                 "\"churn\": %.4f, \"rebuild_turnover_ms\": %.4f, "
                 "\"incremental_turnover_ms\": %.4f, "
                 "\"turnover_speedup\": %.3f, "
                 "\"slots_per_sec_rebuild\": %.2f, "
                 "\"slots_per_sec_incremental\": %.2f, "
                 "\"identical\": %s, \"index\": \"%s\"}%s\n",
                 r.workload.c_str(), r.sensors, r.slots, r.queries_per_slot,
                 r.churn_fraction,
                 r.rebuild_turnover_ms, r.incremental_turnover_ms,
                 r.turnover_speedup, r.slots_per_sec_rebuild,
                 r.slots_per_sec_incremental, r.identical ? "true" : "false",
                 r.index_kind.c_str(), i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace psens

int main(int argc, char** argv) {
  using namespace psens;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  // Steady-state slots per pass (--slots; --quick's 10 is enough for a
  // stable median, the CI gate passes --quick --slots 50 so the gated
  // min-turnover sees a long interference-free window).
  const int slots = std::max(args.slots, 3);
  const double churn_fraction = 0.01;  // 1% of the population per slot

  std::vector<int> populations =
      args.quick ? std::vector<int>{100'000}
                 : std::vector<int>{100'000, 300'000, 1'000'000};
  if (args.max_sensors > 0) {
    std::vector<int> capped;
    for (int n : populations) {
      if (n <= args.max_sensors) capped.push_back(n);
    }
    if (capped.empty()) capped.push_back(args.max_sensors);
    populations = capped;
  }

  bench::PrintHeader(
      "fig12: streaming slot turnover, incremental engine vs rebuild");
  std::printf("%-7s %9s %6s %6s %13s %13s %8s %11s %11s %s\n", "workload",
              "sensors", "slots", "churn", "rebuild_ms", "increment_ms",
              "speedup", "slots/s(reb)", "slots/s(inc)", "identical");

  const double cal_ms = bench::CalibrationMs();
  std::vector<StreamResult> results;
  bool all_identical = true;
  const auto report = [&](StreamResult r) {
    all_identical = all_identical && r.identical;
    std::printf(
        "%-7s %9d %6d %5.1f%% %13.3f %13.3f %7.1fx %11.1f %11.1f %s [%s]\n",
        r.workload.c_str(), r.sensors, r.slots, 100.0 * r.churn_fraction,
        r.rebuild_turnover_ms, r.incremental_turnover_ms, r.turnover_speedup,
        r.slots_per_sec_rebuild, r.slots_per_sec_incremental,
        r.identical ? "yes" : "NO", r.index_kind.c_str());
    results.push_back(std::move(r));
  };
  for (int n : populations) {
    report(RunOne("churn", n, slots, churn_fraction, /*with_mobility=*/false,
                  args));
  }
  // One mixed-stream row (relocations + price jitter on top of the churn)
  // at the smallest population for workload colour; not part of the gate.
  report(RunOne("mixed", populations.front(), slots, churn_fraction,
                /*with_mobility=*/true, args));

  std::printf("\ncalibration: %.2f ms (fixed FP loop; regression-gate time "
              "normalizer)\n", cal_ms);
  if (!args.json_path.empty()) {
    WriteJson(args.json_path, cal_ms, results);
  }
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: an equivalence pass diverged (incremental vs "
                 "rebuild)\n");
    return 1;
  }
  std::printf("all incremental slots bit-identical to per-slot rebuild\n");
  return 0;
}
