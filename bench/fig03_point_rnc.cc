// Reproduces Figure 3 (EDBT'13): single-sensor point queries on the RNC
// trace (synthetic Nokia-campaign substitute, see DESIGN.md): 635 sensors
// over a 237x300 grid with a 100x100 working subregion (~120 sensors per
// slot inside it), dmax = 10. Utilities and satisfaction are lower than
// Fig. 2 because sensors are sparser — the shape the paper reports.

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
  psens::Table utility({"budget", "Optimal", "LocalSearch", "Baseline"});
  psens::Table satisfaction({"budget", "Optimal", "LocalSearch", "Baseline"});

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
      config.budget = psens::BudgetScheme{budget, false, 0.0};
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

  psens::bench::PrintHeader("Fig 3(a): point queries, RNC - average utility per time slot");
  utility.Print();
  psens::bench::PrintHeader("Fig 3(b): point queries, RNC - query satisfaction ratio");
  satisfaction.Print();
}

}  // namespace

int main(int argc, char** argv) {
  Run(BenchArgs::Parse(argc, argv));
  return 0;
}
