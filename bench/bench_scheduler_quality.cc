// Ablation (DESIGN.md): solution quality of the point-query schedulers
// relative to the exact optimum on RNC-style slots — how much utility the
// 1/3-approximation local search actually leaves on the table (the paper
// observes "solutions close to the optimal ones"), and what the randomized
// restart variant buys.

#include <cstdio>

#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/aggregate_query.h"
#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/point_scheduling.h"
#include "mobility/synthetic_nokia.h"
#include "sim/experiments.h"
#include "sim/workload.h"

namespace {

using psens::bench::BenchArgs;

void Run(const BenchArgs& args) {
  psens::SyntheticNokiaConfig nokia;
  nokia.num_slots = args.slots;
  nokia.seed = args.seed;
  const psens::Trace trace = psens::GenerateSyntheticNokia(nokia);
  const psens::Rect working = psens::NokiaWorkingRegion(nokia);

  psens::Rng rng(args.seed);
  psens::Rng sensor_rng = rng.Fork(1);
  psens::Rng query_rng = rng.Fork(2);
  psens::SensorPopulationConfig population;
  population.count = trace.NumSensors();
  population.lifetime = args.slots;
  std::vector<psens::Sensor> sensors = psens::GenerateSensors(population, sensor_rng);

  psens::RunningStat ls_ratio, rls_ratio, baseline_ratio;
  int proven = 0, total = 0;
  for (int t = 0; t < args.slots; ++t) {
    psens::ApplyTraceSlot(trace, t, &sensors);
    const psens::SlotContext slot =
        psens::BuildSlotContext(sensors, working, t, 10.0);
    const auto queries = psens::GeneratePointQueries(
        300, working, psens::BudgetScheme{15.0, false, 0.0}, 0.2, 0, query_rng);

    psens::PointSchedulingOptions options;
    options.scheduler = psens::PointScheduler::kOptimal;
    const auto optimal = psens::SchedulePointQueries(queries, slot, options);
    options.scheduler = psens::PointScheduler::kLocalSearch;
    const auto ls = psens::SchedulePointQueries(queries, slot, options);
    options.scheduler = psens::PointScheduler::kRandomizedLocalSearch;
    options.restarts = 5;
    const auto rls = psens::SchedulePointQueries(queries, slot, options);
    options.scheduler = psens::PointScheduler::kBaseline;
    const auto baseline = psens::SchedulePointQueries(queries, slot, options);

    ++total;
    if (optimal.proven_optimal) ++proven;
    if (optimal.Utility() > 1e-9) {
      ls_ratio.Add(ls.Utility() / optimal.Utility());
      rls_ratio.Add(rls.Utility() / optimal.Utility());
      baseline_ratio.Add(baseline.Utility() / optimal.Utility());
    }
  }

  psens::bench::PrintHeader("Ablation: scheduler quality relative to exact optimum");
  psens::Table table({"scheduler", "mean_ratio", "min_ratio"});
  table.AddRow({std::string("LocalSearch"),
                psens::FormatDouble(ls_ratio.Mean(), 4),
                psens::FormatDouble(ls_ratio.Min(), 4)});
  table.AddRow({std::string("RandomizedLS(5)"),
                psens::FormatDouble(rls_ratio.Mean(), 4),
                psens::FormatDouble(rls_ratio.Min(), 4)});
  table.AddRow({std::string("Baseline"),
                psens::FormatDouble(baseline_ratio.Mean(), 4),
                psens::FormatDouble(baseline_ratio.Min(), 4)});
  table.Print();
  std::printf("optimality proven on %d/%d slots (within the node budget)\n",
              proven, total);
}

/// Second ablation: the CELF lazy-greedy engine vs the literal eager
/// rescan of Algorithm 1 on aggregate-query slots — identical selection
/// rule, how many valuation calls does laziness save and does the realized
/// utility move at all (it can only differ where Eq. 5's mean-quality
/// factor breaks submodularity)?
void RunGreedyEngineAblation(const BenchArgs& args) {
  psens::SyntheticNokiaConfig nokia;
  nokia.num_slots = args.slots;
  nokia.seed = args.seed;
  const psens::Trace trace = psens::GenerateSyntheticNokia(nokia);
  const psens::Rect working = psens::NokiaWorkingRegion(nokia);

  psens::Rng rng(args.seed + 17);
  psens::Rng sensor_rng = rng.Fork(1);
  psens::Rng query_rng = rng.Fork(2);
  psens::SensorPopulationConfig population;
  population.count = trace.NumSensors();
  population.lifetime = args.slots;
  std::vector<psens::Sensor> sensors = psens::GenerateSensors(population, sensor_rng);

  int64_t eager_calls = 0, lazy_calls = 0;
  double eager_utility = 0.0, lazy_utility = 0.0;
  int identical_slots = 0;
  for (int t = 0; t < args.slots; ++t) {
    psens::ApplyTraceSlot(trace, t, &sensors);
    const psens::SlotContext slot =
        psens::BuildSlotContext(sensors, working, t, 10.0);
    const auto params = psens::GenerateAggregateQueries(30, working, 10.0, 15.0,
                                                        t * 100, query_rng);
    // Fresh query objects per engine: selection state is stored on them.
    const auto run = [&](auto select) {
      std::vector<std::unique_ptr<psens::AggregateQuery>> queries;
      for (const auto& p : params) {
        queries.push_back(std::make_unique<psens::AggregateQuery>(p, slot));
      }
      std::vector<psens::MultiQuery*> ptrs;
      for (auto& q : queries) ptrs.push_back(q.get());
      return select(ptrs, slot, nullptr);
    };
    const psens::SelectionResult eager = run(psens::EagerGreedySensorSelection);
    const psens::SelectionResult lazy = run(psens::LazyGreedySensorSelection);
    eager_calls += eager.valuation_calls;
    lazy_calls += lazy.valuation_calls;
    eager_utility += eager.Utility();
    lazy_utility += lazy.Utility();
    if (eager.selected_sensors == lazy.selected_sensors) ++identical_slots;
  }

  psens::bench::PrintHeader(
      "Ablation: lazy (CELF) vs eager greedy on aggregate slots");
  psens::Table table({"engine", "valuation_calls", "mean_utility"});
  table.AddRow({std::string("Eager"), psens::FormatDouble(eager_calls, 0),
                psens::FormatDouble(eager_utility / args.slots, 2)});
  table.AddRow({std::string("Lazy"), psens::FormatDouble(lazy_calls, 0),
                psens::FormatDouble(lazy_utility / args.slots, 2)});
  table.Print();
  std::printf("valuation-call reduction: %.2fx; identical selections on %d/%d slots\n",
              lazy_calls > 0 ? static_cast<double>(eager_calls) / lazy_calls : 0.0,
              identical_slots, args.slots);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  Run(args);
  RunGreedyEngineAblation(args);
  return 0;
}
