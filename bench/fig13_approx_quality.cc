// Fig. 13 (beyond the paper): quality/cost frontier of the approximate
// acquisition scheduler under churn.
//
// Every exact engine — eager Algorithm 1, CELF, spatial pruning, batched
// valuation — preserves bit-identical selections, so per-slot cost still
// scales with exact greedy's probe count. Sieve streaming
// (core/sieve_streaming.h) trades a bounded utility loss for per-slot
// cost that no longer does: it absorbs churn deltas into threshold
// buckets without re-streaming the population. In the replication-report
// spirit, the loss is *measured*, not assumed: per population the sweep
// serves the same deterministic churn + query streams with three
// engines —
//
//   exact       EagerGreedySensorSelection, the paper's literal
//               Algorithm 1 (the reference "exact" of the reported
//               speedups; a reference function, not a serving engine)
//   lazy        LazyGreedySensorSelection, exact CELF (the serving
//               default)
//   sieve       SieveStreamingScheduler fed each slot's SensorDelta
//
// — on identical slot contexts, and reports each engine's median
// slot-selection latency, speedup over exact (and over lazy), realized
// utility ratio vs exact, and valuation-call totals.
//
// `--json PATH` emits the record consumed by
// scripts/check_bench_regression.py, which gates the sieve row at the
// 100k population (docs/BENCHMARKS.md, "fig13 approximation gate").

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/multi_query.h"
#include "core/sieve_streaming.h"
#include "engine/acquisition_engine.h"
#include "sim/workload.h"

namespace psens {
namespace {

struct EngineRow {
  std::string engine;
  int sensors = 0;
  int slots = 0;
  int queries_per_slot = 0;
  int aggregates_per_slot = 0;
  double churn_fraction = 0.0;
  double epsilon = 0.0;
  double median_ms = 0.0;
  double exact_median_ms = 0.0;
  double lazy_median_ms = 0.0;
  double speedup_vs_exact = 0.0;
  double speedup_vs_lazy = 0.0;
  double utility = 0.0;       // summed over slots
  double utility_ratio = 0.0; // vs exact
  int64_t valuation_calls = 0;
  int64_t exact_valuation_calls = 0;
};

std::vector<EngineRow> RunOne(int n, int slots, double churn_fraction,
                              const bench::BenchArgs& args) {
  // Same city-scale geometry and churn shape as fig12's gate row, by
  // construction: both figures call MakeChurnScenario (sim/workload.h).
  const ChurnScenarioSetup setup = MakeChurnScenario(
      n, churn_fraction, args.seed, /*with_mobility=*/false);
  const double side = setup.side;
  const double dmax = setup.dmax;
  const Rect& field = setup.field;
  const ClusteredPopulationConfig& config = setup.config;
  const ScaleScenario& scenario = setup.scenario;
  const ChurnConfig& churn = setup.churn;
  const Rng& rng = setup.rng_after_generation;

  const int queries_per_slot = args.quick ? 128 : 256;
  const int aggregates_per_slot = args.quick ? 16 : 24;
  const double agg_half = 25.0;  // 50x50 overlapping monitoring regions
  const double agg_range = 10.0;

  ServingConfig ecfg;
  ecfg.working_region = field;
  ecfg.dmax = dmax;
  ecfg.index_policy = args.index_policy;
  ecfg.approx.epsilon = args.epsilon;
  ecfg.approx.seed = args.seed;
  AcquisitionEngine engine(scenario.sensors, ecfg);
  ChurnStream stream(churn, scenario.sensors, field);
  stream.SetClusteredPlacement(&scenario, &config);
  Rng fork_base = rng;
  Rng churn_rng = fork_base.Fork(7);
  Rng query_rng = fork_base.Fork(8);

  engine.BeginSlot(0);  // cold build, not measured

  struct EngineState {
    const char* name;
    std::vector<double> ms;
    double utility = 0.0;
    int64_t calls = 0;
  };
  EngineState exact{"exact", {}, 0.0, 0};
  EngineState lazy{"lazy", {}, 0.0, 0};
  EngineState sieve{"sieve", {}, 0.0, 0};
  SieveStreamingScheduler sieve_scheduler(ecfg.approx);

  for (int t = 1; t <= slots; ++t) {
    const SensorDelta delta = stream.Next(churn_rng);
    engine.ApplyDelta(delta);
    const SlotContext& slot = engine.BeginSlot(t);

    // Query binding (coverage masks, candidate probes) is query-arrival
    // work, identical for every engine, and excluded from the timed
    // selection. All engines reuse the same bound objects via
    // ResetSelection, so utilities are directly comparable.
    const std::vector<PointQuery> points = GenerateClusteredPointQueries(
        queries_per_slot, scenario, config, BudgetScheme{15.0, false, 0.0},
        /*theta_min=*/0.2, /*id_base=*/t * queries_per_slot, query_rng);
    std::vector<std::unique_ptr<AggregateQuery>> aggregates;
    std::vector<std::unique_ptr<PointMultiQuery>> point_queries;
    std::vector<MultiQuery*> all;
    for (int i = 0; i < aggregates_per_slot; ++i) {
      const Point c = DrawScenarioLocation(scenario, config, query_rng);
      AggregateQuery::Params params;
      params.id = t * 1000 + i;
      params.region =
          Rect{std::max(0.0, c.x - agg_half), std::max(0.0, c.y - agg_half),
               std::min(side, c.x + agg_half), std::min(side, c.y + agg_half)};
      params.budget = params.region.Width() * params.region.Height() /
                      (1.5 * agg_range) * 2.0;
      params.sensing_range = agg_range;
      params.cell_size = 5.0;
      aggregates.push_back(std::make_unique<AggregateQuery>(params, slot));
      all.push_back(aggregates.back().get());
    }
    for (const PointQuery& spec : points) {
      point_queries.push_back(std::make_unique<PointMultiQuery>(spec, &slot));
      all.push_back(point_queries.back().get());
    }

    const auto run_engine = [&](EngineState& state, auto select) {
      for (MultiQuery* q : all) q->ResetSelection();
      SelectionResult result;
      state.ms.push_back(
          bench::TimeMs([&] { result = select(all, slot, nullptr); }));
      state.utility += result.Utility();
      state.calls += result.valuation_calls;
    };
    run_engine(exact, EagerGreedySensorSelection);
    run_engine(lazy, LazyGreedySensorSelection);
    {
      // The sieve absorbs the slot's churn delta into its carried bucket
      // state; its timed cost is the whole absorb + commit step.
      for (MultiQuery* q : all) q->ResetSelection();
      SelectionResult result;
      sieve.ms.push_back(bench::TimeMs(
          [&] { result = sieve_scheduler.SelectDelta(all, slot, delta); }));
      sieve.utility += result.Utility();
      sieve.calls += result.valuation_calls;
    }
  }

  const double exact_median = bench::MedianMs(exact.ms);
  const double lazy_median = bench::MedianMs(lazy.ms);
  std::vector<EngineRow> rows;
  for (const EngineState* state : {&exact, &lazy, &sieve}) {
    EngineRow row;
    row.engine = state->name;
    row.sensors = n;
    row.slots = slots;
    row.queries_per_slot = queries_per_slot;
    row.aggregates_per_slot = aggregates_per_slot;
    row.churn_fraction = churn_fraction;
    row.epsilon = args.epsilon;
    row.median_ms = bench::MedianMs(state->ms);
    row.exact_median_ms = exact_median;
    row.lazy_median_ms = lazy_median;
    row.speedup_vs_exact =
        row.median_ms > 0.0 ? exact_median / row.median_ms : 0.0;
    row.speedup_vs_lazy =
        row.median_ms > 0.0 ? lazy_median / row.median_ms : 0.0;
    row.utility = state->utility;
    row.utility_ratio =
        exact.utility != 0.0 ? state->utility / exact.utility : 0.0;
    row.valuation_calls = state->calls;
    row.exact_valuation_calls = exact.calls;
    rows.push_back(row);
  }
  return rows;
}

void WriteJson(const std::string& path, double cal_ms,
               const std::vector<EngineRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig13_approx_quality\",\n");
  std::fprintf(f, "  \"cal_ms\": %.6f,\n  \"results\": [\n", cal_ms);
  for (size_t i = 0; i < rows.size(); ++i) {
    const EngineRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"engine\": \"%s\", \"sensors\": %d, \"slots\": %d, "
        "\"queries\": %d, \"aggregates\": %d, \"churn\": %.4f, "
        "\"epsilon\": %.4f, \"median_ms\": %.4f, "
        "\"exact_median_ms\": %.4f, \"lazy_median_ms\": %.4f, "
        "\"speedup_vs_exact\": %.3f, \"speedup_vs_lazy\": %.3f, "
        "\"utility_ratio\": %.5f, \"valuation_calls\": %" PRId64 ", "
        "\"exact_valuation_calls\": %" PRId64 "}%s\n",
        r.engine.c_str(), r.sensors, r.slots, r.queries_per_slot,
        r.aggregates_per_slot, r.churn_fraction, r.epsilon, r.median_ms,
        r.exact_median_ms, r.lazy_median_ms, r.speedup_vs_exact,
        r.speedup_vs_lazy, r.utility_ratio, r.valuation_calls,
        r.exact_valuation_calls, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace psens

int main(int argc, char** argv) {
  using namespace psens;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  const int slots = std::max(args.slots, 3);
  const double churn_fraction = 0.01;

  std::vector<int> populations =
      args.quick ? std::vector<int>{100'000}
                 : std::vector<int>{10'000, 100'000, 300'000, 1'000'000};
  if (args.max_sensors > 0) {
    std::vector<int> capped;
    for (int n : populations) {
      if (n <= args.max_sensors) capped.push_back(n);
    }
    if (capped.empty()) capped.push_back(args.max_sensors);
    populations = capped;
  }

  bench::PrintHeader(
      "fig13: approximate scheduler, quality/cost vs exact Algorithm 1");
  std::printf("%-11s %9s %6s %6s %5s %11s %9s %9s %9s %14s\n", "engine",
              "sensors", "slots", "churn", "eps", "median_ms", "vs_exact",
              "vs_lazy", "utility", "val_calls");

  const double cal_ms = bench::CalibrationMs();
  std::vector<EngineRow> rows;
  const auto report = [&](int n, double churn) {
    for (const EngineRow& r : RunOne(n, slots, churn, args)) {
      std::printf("%-11s %9d %6d %5.1f%% %5.2f %11.3f %8.1fx %8.1fx %9.4f "
                  "%14" PRId64 "\n",
                  r.engine.c_str(), r.sensors, r.slots,
                  100.0 * r.churn_fraction, r.epsilon, r.median_ms,
                  r.speedup_vs_exact, r.speedup_vs_lazy, r.utility_ratio,
                  r.valuation_calls);
      rows.push_back(r);
    }
  };
  for (int n : populations) report(n, churn_fraction);
  if (!args.quick) {
    // Churn-rate dimension at the gate population: how the sieve's
    // delta-absorption cost (and everyone's quality) scales when the
    // population turns over 5x slower or 5x faster than the gate row.
    int gate_n = populations.back();
    for (int n : populations) {
      if (n == 100'000) gate_n = n;
    }
    for (double churn : {0.002, 0.05}) report(gate_n, churn);
  }

  std::printf("\ncalibration: %.2f ms (fixed FP loop; regression-gate time "
              "normalizer)\n", cal_ms);
  if (!args.json_path.empty()) WriteJson(args.json_path, cal_ms, rows);
  return 0;
}
