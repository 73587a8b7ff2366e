// Reproduces Figure 2 (EDBT'13): single-sensor point queries on the RWM
// dataset. 300 point queries per slot with locations uniform over the
// central 50x50 working subregion of an 80x80 region roamed by 200
// sensors; quality per Eq. (4) with dmax = 5, theta_min = 0.2, C_s = 10.
//   (a) average utility per time slot vs. query budget
//   (b) query satisfaction ratio vs. query budget
// Series: Optimal (BILP), LocalSearch (Feige et al.), Baseline.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "mobility/random_waypoint.h"
#include "sim/experiments.h"

namespace {

using psens::bench::BenchArgs;

void Run(const BenchArgs& args) {
  psens::RandomWaypointConfig mobility;
  mobility.num_sensors = 200;
  mobility.num_slots = args.slots;
  mobility.seed = args.seed;
  const psens::Trace trace = psens::GenerateRandomWaypoint(mobility);
  const psens::Rect working = psens::CentralSubregion(80.0, 50.0);

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
      config.dmax = 5.0;
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

  psens::bench::PrintHeader("Fig 2(a): point queries, RWM - average utility per time slot");
  utility.Print();
  psens::bench::PrintHeader("Fig 2(b): point queries, RWM - query satisfaction ratio");
  satisfaction.Print();
}

}  // namespace

int main(int argc, char** argv) {
  Run(BenchArgs::Parse(argc, argv));
  return 0;
}
