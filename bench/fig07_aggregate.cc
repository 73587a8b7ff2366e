// Reproduces Figure 7 (EDBT'13): spatial-aggregate queries on the RNC
// trace. ~30 queries per slot (uniform count with mean 30), random regions
// inside the working subregion, sensing range 10, B_q = A(r)/(1.5 r_s) * b.
//   (a) average utility per time slot vs. budget factor b
//   (b) average quality of results (value achieved / B_q) for answered
//       queries vs. budget factor b
// Series: Greedy (Algorithm 1) vs. sequential Baseline.

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

  const std::vector<double> budget_factors = {7, 10, 15, 20, 25, 30, 35};
  psens::Table utility({"budget_factor", "Greedy", "Baseline"});
  psens::Table quality({"budget_factor", "Greedy", "Baseline"});

  for (double b : budget_factors) {
    std::vector<double> util_row = {b};
    std::vector<double> quality_row = {b};
    for (bool greedy : {true, false}) {
      psens::AggregateExperimentConfig config;
      config.trace = &trace;
      config.working_region = working;
      config.sensing_range = 10.0;
      config.num_slots = args.slots;
      config.mean_queries_per_slot = 30;
      config.budget_factor = b;
      config.greedy = greedy;
      config.sensors.lifetime = args.slots;
      config.seed = args.seed;
      config.parallelism = args.threads;
      const psens::ExperimentResult r = psens::RunAggregateExperiment(config);
      util_row.push_back(r.avg_utility);
      quality_row.push_back(r.avg_quality);
    }
    utility.AddRow(util_row);
    quality.AddRow(quality_row, 3);
  }

  psens::bench::PrintHeader("Fig 7(a): aggregate queries - average utility per time slot");
  utility.Print();
  psens::bench::PrintHeader("Fig 7(b): aggregate queries - average quality of results");
  quality.Print();
}

}  // namespace

int main(int argc, char** argv) {
  Run(BenchArgs::Parse(argc, argv));
  return 0;
}
