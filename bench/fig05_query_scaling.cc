// Reproduces Figure 5 (EDBT'13): varying the number of point queries per
// slot in {250, 500, 750, 1000} with the query budget fixed to 15 (RNC
// trace). More queries -> more sharing opportunities -> higher utility and
// slightly higher satisfaction.

#include <vector>

#include "bench/bench_util.h"
#include "common/parallel_for.h"
#include "common/table.h"
#include "mobility/synthetic_nokia.h"
#include "sim/experiments.h"

namespace {

using psens::bench::BenchArgs;

void Run(const BenchArgs& args) {
  psens::SyntheticNokiaConfig nokia;
  nokia.num_slots = args.slots;
  nokia.seed = args.seed;
  const psens::Trace trace = psens::GenerateSyntheticNokia(nokia);
  const psens::Rect working = psens::NokiaWorkingRegion(nokia);

  const std::vector<int> query_counts = {250, 500, 750, 1000};
  const std::vector<psens::PointScheduler> schedulers = {
      psens::PointScheduler::kOptimal, psens::PointScheduler::kLocalSearch,
      psens::PointScheduler::kBaseline};
  psens::Table utility({"num_queries", "Optimal", "LocalSearch", "Baseline"});
  psens::Table satisfaction({"num_queries", "Optimal", "LocalSearch", "Baseline"});

  // Every (query count, scheduler) sweep point is an independent
  // simulation: shard them over threads and assemble the tables in sweep
  // order afterwards. Slot-level parallelism inside RunPointExperiment is
  // disabled (parallelism = 1) — the sweep grid is the coarser, better
  // grain.
  const int points = static_cast<int>(query_counts.size() * schedulers.size());
  std::vector<psens::ExperimentResult> results(points);
  psens::ParallelFor(points, args.threads, [&](int i) {
    psens::PointExperimentConfig config;
    config.trace = &trace;
    config.working_region = working;
    config.dmax = 10.0;
    config.num_slots = args.slots;
    config.queries_per_slot = query_counts[i / schedulers.size()];
    config.budget = psens::BudgetScheme{15.0, false, 0.0};
    config.scheduler = schedulers[i % schedulers.size()];
    config.sensors.lifetime = args.slots;
    config.seed = args.seed;
    config.parallelism = 1;
    results[i] = psens::RunPointExperiment(config);
  });

  for (size_t c = 0; c < query_counts.size(); ++c) {
    std::vector<double> util_row = {static_cast<double>(query_counts[c])};
    std::vector<double> sat_row = {static_cast<double>(query_counts[c])};
    for (size_t s = 0; s < schedulers.size(); ++s) {
      const psens::ExperimentResult& r = results[c * schedulers.size() + s];
      util_row.push_back(r.avg_utility);
      sat_row.push_back(r.satisfaction);
    }
    utility.AddRow(util_row);
    satisfaction.AddRow(sat_row, 3);
  }

  psens::bench::PrintHeader(
      "Fig 5(a): varying #queries (budget 15) - average utility per time slot");
  utility.Print();
  psens::bench::PrintHeader(
      "Fig 5(b): varying #queries (budget 15) - query satisfaction ratio");
  satisfaction.Print();
}

}  // namespace

int main(int argc, char** argv) {
  Run(BenchArgs::Parse(argc, argv));
  return 0;
}
