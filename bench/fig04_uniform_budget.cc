// Reproduces Figure 4 (EDBT'13): single-sensor point queries on the RNC
// trace with per-query budgets drawn uniformly at random in
// [mean - 10, mean + 10] instead of a fixed budget. The paper's finding:
// results are very similar to the fixed-budget scheme (Fig. 3).

#include <vector>

#include "bench/bench_util.h"
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

  const std::vector<double> budgets = {7, 10, 15, 20, 25, 30, 35};
  psens::Table utility({"mean_budget", "Optimal", "LocalSearch", "Baseline"});
  psens::Table satisfaction({"mean_budget", "Optimal", "LocalSearch", "Baseline"});

  for (double budget : budgets) {
    std::vector<double> util_row = {budget};
    std::vector<double> sat_row = {budget};
    for (const psens::PointScheduler scheduler :
         {psens::PointScheduler::kOptimal, psens::PointScheduler::kLocalSearch,
          psens::PointScheduler::kBaseline}) {
      psens::PointExperimentConfig config;
      config.trace = &trace;
      config.working_region = working;
      config.dmax = 10.0;
      config.num_slots = args.slots;
      config.queries_per_slot = 300;
      config.budget = psens::BudgetScheme{budget, /*uniform=*/true, 10.0};
      config.scheduler = scheduler;
      config.sensors.lifetime = args.slots;
      config.seed = args.seed;
      config.parallelism = args.threads;
      const psens::ExperimentResult r = psens::RunPointExperiment(config);
      util_row.push_back(r.avg_utility);
      sat_row.push_back(r.satisfaction);
    }
    utility.AddRow(util_row);
    satisfaction.AddRow(sat_row, 3);
  }

  psens::bench::PrintHeader(
      "Fig 4(a): uniformly distributed budget - average utility per time slot");
  utility.Print();
  psens::bench::PrintHeader(
      "Fig 4(b): uniformly distributed budget - query satisfaction ratio");
  satisfaction.Print();
}

}  // namespace

int main(int argc, char** argv) {
  Run(BenchArgs::Parse(argc, argv));
  return 0;
}
