// Reproduces Figure 6 (EDBT'13): single-sensor point queries on the RNC
// trace with randomized privacy sensitivity levels (Eq. 14/15) and the
// linear energy cost model c_e = C_s (1 + beta (1 - E)) with beta uniform
// in [0, 4], for sensor lifetimes 50 (a, b) and 25 (c, d). Utility and
// satisfaction drop versus Fig. 3; the lifetime-25 results stay close to
// lifetime-50 because mobility prevents sensors from being exhausted.

#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "mobility/synthetic_nokia.h"
#include "sim/experiments.h"

namespace {

using psens::bench::BenchArgs;

void RunForLifetime(const BenchArgs& args, const psens::Trace& trace,
                    const psens::Rect& working, int lifetime, char panel_a,
                    char panel_b) {
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
      config.sensors.random_privacy = true;
      config.sensors.linear_energy = true;
      config.sensors.beta_max = 4.0;
      config.sensors.lifetime = lifetime;
      config.seed = args.seed;
      config.parallelism = args.threads;
      const psens::ExperimentResult r = psens::RunPointExperiment(config);
      util_row.push_back(r.avg_utility);
      sat_row.push_back(r.satisfaction);
    }
    utility.AddRow(util_row);
    satisfaction.AddRow(sat_row, 3);
  }

  char title[160];
  std::snprintf(title, sizeof(title),
                "Fig 6(%c): random PSL + linear energy, lifetime %d - avg utility",
                panel_a, lifetime);
  psens::bench::PrintHeader(title);
  utility.Print();
  std::snprintf(title, sizeof(title),
                "Fig 6(%c): random PSL + linear energy, lifetime %d - satisfaction",
                panel_b, lifetime);
  psens::bench::PrintHeader(title);
  satisfaction.Print();
}

void Run(const BenchArgs& args) {
  psens::SyntheticNokiaConfig nokia;
  nokia.num_slots = args.slots;
  nokia.seed = args.seed;
  const psens::Trace trace = psens::GenerateSyntheticNokia(nokia);
  const psens::Rect working = psens::NokiaWorkingRegion(nokia);
  RunForLifetime(args, trace, working, /*lifetime=*/50, 'a', 'b');
  RunForLifetime(args, trace, working, /*lifetime=*/25, 'c', 'd');
}

}  // namespace

int main(int argc, char** argv) {
  Run(BenchArgs::Parse(argc, argv));
  return 0;
}
