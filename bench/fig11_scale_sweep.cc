// Fig. 11 (beyond the paper): scheduling throughput at city scale.
//
// The paper's evaluation stops at a few hundred sensors because every
// scheme values every sensor against every query. This sweep generates
// clustered populations of 10k-1M sensors (sim/workload.h's
// ClusteredPopulationConfig), runs the point-query slot schedulers once
// with the spatial index (SlotIndexPolicy::kGrid) and once as the paper's
// unpruned schedulers, verifies the two produce *bit-identical*
// assignments and payments, and reports the wall-clock speedup. The
// brute-force side's slot carries an AllRowsIndex, which answers every
// probe with every row, so it values every sensor against every query:
// O(|Q| * |S|) valuations per slot. The point schedulers skip
// non-positive values, so a superset of the true rows is exact. The
// indexed path valuates only the sensors inside each query's dmax disk,
// so the speedup grows with the population (the asymptotic win candidate
// pruning buys).
//
// `--json PATH` emits the machine-readable record consumed by
// scripts/check_bench_regression.py (the CI benchmark-regression gate);
// the process exits nonzero if any indexed run diverges from its
// brute-force twin, so the gate doubles as an equivalence check.

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/point_scheduling.h"
#include "core/slot.h"
#include "index/spatial_index.h"
#include "sim/workload.h"

namespace psens {
namespace {

struct SweepResult {
  std::string name;
  int sensors = 0;
  int queries = 0;
  double brute_ms = 0.0;
  double pruned_ms = 0.0;       // scheduling only, on the indexed slot
  double index_build_ms = 0.0;  // one-time, amortized over the slot
  double speedup = 0.0;         // brute / (pruned + index build)
  int64_t brute_pairs = 0;      // (query location, sensor) pairs scanned
  int64_t pruned_pairs = 0;
  bool identical = false;
  std::string index_kind;
};

/// The unpruned schedulers' "index": every probe answers every row, so
/// the schedulers value each query against the whole population.
class AllRowsIndex : public SpatialIndex {
 public:
  explicit AllRowsIndex(size_t n) : rows_(n) {
    std::iota(rows_.begin(), rows_.end(), 0);
  }
  void RangeQuery(const Point&, double, std::vector<int>* out) const override {
    *out = rows_;
  }
  void RectQuery(const Rect&, std::vector<int>* out) const override {
    *out = rows_;
  }
  const char* Name() const override { return "all-rows"; }

 private:
  std::vector<int> rows_;
};

SlotContext MakeSlot(const ScaleScenario& scenario, double dmax,
                     SlotIndexPolicy policy) {
  return BuildSlotContext(scenario.sensors, scenario.field, /*time=*/0, dmax,
                          policy);
}

/// Candidate pairs actually scanned by the indexed path (deterministic —
/// the regression gate tracks this as a machine-independent work metric).
int64_t CountCandidatePairs(const SlotContext& slot,
                            const std::vector<PointQuery>& queries) {
  int64_t total = 0;
  std::vector<int> candidates;
  for (const PointQuery& q : queries) {
    SlotRowsInRange(slot, q.location, slot.dmax, &candidates);
    total += static_cast<int64_t>(candidates.size());
  }
  return total;
}

SweepResult RunOne(const char* name, PointScheduler scheduler,
                   const ScaleScenario& scenario,
                   const std::vector<PointQuery>& queries, double dmax,
                   int reps, uint64_t seed, SlotIndexPolicy index_policy) {
  SweepResult r;
  r.name = name;
  r.sensors = static_cast<int>(scenario.sensors.size());
  r.queries = static_cast<int>(queries.size());

  SlotContext brute_slot = MakeSlot(scenario, dmax, SlotIndexPolicy::kNone);
  brute_slot.index = std::make_shared<AllRowsIndex>(brute_slot.sensors.size());
  // Build the indexed slot cold: start unindexed, flip the policy, and
  // time the one real AttachSlotIndex (BuildSlotContext with kGrid would
  // already have built it once, wasting a build and warming the caches
  // the timed build is charged for).
  SlotContext pruned_slot = MakeSlot(scenario, dmax, SlotIndexPolicy::kNone);
  pruned_slot.index_policy = index_policy;
  r.index_build_ms = bench::TimeMs([&] { AttachSlotIndex(pruned_slot); });
  r.index_kind = pruned_slot.index != nullptr ? pruned_slot.index->Name() : "none";

  PointSchedulingOptions options;
  options.scheduler = scheduler;
  options.seed = seed;

  PointScheduleResult brute_result;
  PointScheduleResult pruned_result;
  r.brute_ms = 1e300;
  r.pruned_ms = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    const double bm = bench::TimeMs(
        [&] { brute_result = SchedulePointQueries(queries, brute_slot, options); });
    const double pm = bench::TimeMs([&] {
      pruned_result = SchedulePointQueries(queries, pruned_slot, options);
    });
    if (bm < r.brute_ms) r.brute_ms = bm;
    if (pm < r.pruned_ms) r.pruned_ms = pm;
  }
  r.identical = bench::SameSchedule(brute_result, pruned_result);
  r.speedup = r.brute_ms / (r.pruned_ms + r.index_build_ms);
  r.brute_pairs = static_cast<int64_t>(r.sensors) * r.queries;
  r.pruned_pairs = CountCandidatePairs(pruned_slot, queries);
  return r;
}

void WriteJson(const std::string& path, double cal_ms,
               const std::vector<SweepResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig11_scale_sweep\",\n");
  std::fprintf(f, "  \"cal_ms\": %.6f,\n  \"results\": [\n", cal_ms);
  for (size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"sensors\": %d, \"queries\": %d, "
                 "\"brute_ms\": %.3f, \"pruned_ms\": %.3f, "
                 "\"index_build_ms\": %.3f, \"speedup\": %.3f, "
                 "\"brute_pairs\": %" PRId64 ", \"pruned_pairs\": %" PRId64 ", "
                 "\"identical\": %s, \"index\": \"%s\"}%s\n",
                 r.name.c_str(), r.sensors, r.queries, r.brute_ms, r.pruned_ms,
                 r.index_build_ms, r.speedup, r.brute_pairs, r.pruned_pairs,
                 r.identical ? "true" : "false", r.index_kind.c_str(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace psens

int main(int argc, char** argv) {
  using namespace psens;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const double dmax = 5.0;
  // Heavy-traffic slot: the per-slot index build amortizes over the whole
  // query load, exactly as in the production pipeline.
  const int num_queries = 512;
  // Min-of-3 timing: the CI gate's >=10x check keys off these numbers,
  // and a single preempted ~10ms measurement on a shared runner would
  // otherwise fail an innocent PR.
  const int reps = 3;

  std::vector<int> populations =
      args.quick ? std::vector<int>{10'000, 100'000}
                 : std::vector<int>{10'000, 100'000, 300'000, 1'000'000};
  // The nightly 10M point: full mode only (a --quick 10M brute-force
  // reference would blow the PR-path budget for no extra signal).
  if (args.huge && !args.quick) populations.push_back(10'000'000);
  if (args.max_sensors > 0) {
    std::vector<int> capped;
    for (int n : populations) {
      if (n <= args.max_sensors) capped.push_back(n);
    }
    if (capped.empty()) capped.push_back(args.max_sensors);
    populations = capped;
  }

  bench::PrintHeader("fig11: point-workload scaling, spatial index vs brute force");
  std::printf("%-18s %9s %8s %10s %10s %9s %8s %10s %s\n", "workload", "sensors",
              "queries", "brute_ms", "pruned_ms", "index_ms", "speedup",
              "pair_ratio", "identical");

  const double cal_ms = bench::CalibrationMs();
  std::vector<SweepResult> results;
  bool all_identical = true;
  for (int n : populations) {
    // Constant ~0.25 sensors/unit^2 density (city-scale spread): the
    // field grows with the population, so per-query candidate counts stay
    // roughly flat (~100 per dmax disk, more in cluster cores) while the
    // brute-force scan grows linearly — the asymptotic gap under test.
    const double side = 2.0 * std::sqrt(static_cast<double>(n));
    ClusteredPopulationConfig config;
    config.count = n;
    config.num_clusters = 32;
    config.cluster_sigma = side / 12.0;
    config.density_skew = 1.0;
    config.background_fraction = 0.1;
    Rng rng(args.seed);
    const ScaleScenario scenario =
        GenerateClusteredSensors(config, Rect{0, 0, side, side}, rng);
    const std::vector<PointQuery> queries = GenerateClusteredPointQueries(
        num_queries, scenario, config, BudgetScheme{15.0, false, 0.0},
        /*theta_min=*/0.2, /*id_base=*/0, rng);

    const struct {
      const char* name;
      PointScheduler scheduler;
    } workloads[] = {
        {"point_local_search", PointScheduler::kLocalSearch},
        {"point_baseline", PointScheduler::kBaseline},
    };
    for (const auto& w : workloads) {
      SweepResult r = RunOne(w.name, w.scheduler, scenario, queries, dmax, reps,
                             args.seed, args.index_policy);
      all_identical = all_identical && r.identical;
      std::printf("%-18s %9d %8d %10.2f %10.2f %9.2f %7.1fx %9.1fx %s\n",
                  r.name.c_str(), r.sensors, r.queries, r.brute_ms, r.pruned_ms,
                  r.index_build_ms, r.speedup,
                  static_cast<double>(r.brute_pairs) /
                      static_cast<double>(std::max<int64_t>(r.pruned_pairs, 1)),
                  r.identical ? "yes" : "NO");
      results.push_back(std::move(r));
    }
  }

  std::printf("\ncalibration: %.2f ms (fixed FP loop; regression-gate time "
              "normalizer)\n", cal_ms);
  if (!args.json_path.empty()) WriteJson(args.json_path, cal_ms, results);
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: indexed scheduling diverged from brute force\n");
    return 1;
  }
  std::printf("all indexed runs bit-identical to brute force\n");
  return 0;
}
