// Ablation (DESIGN.md): the budget-pacing parameter alpha of Algorithms
// 2/3 — the fraction of a continuous query's accrued surplus spendable on
// an opportunistic sample. The paper fixes alpha = 0.5 and suggests
// adapting it; this sweep quantifies its effect on location-monitoring
// utility and quality.

#include <vector>

#include "bench/bench_util.h"
#include "common/parallel_for.h"
#include "common/table.h"
#include "data/ozone_trace.h"
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

  psens::OzoneTraceConfig ozone;
  ozone.num_days = 2;
  ozone.slots_per_day = args.slots;
  ozone.seed = args.seed + 5;
  const psens::OzoneTrace history = psens::GenerateOzoneTrace(ozone);
  std::vector<double> hist_times;
  std::vector<double> hist_values;
  history.DaySlice(0, &hist_times, &hist_values);

  // Sweep points are independent runs (the monitoring simulation itself is
  // sequential in its slots): shard them over threads, report in order.
  const std::vector<double> alphas = {0.0, 0.25, 0.5, 0.75, 1.0};
  std::vector<psens::ExperimentResult> results(alphas.size());
  psens::ParallelFor(static_cast<int>(alphas.size()), args.threads, [&](int i) {
    psens::LocationMonitoringExperimentConfig config;
    config.trace = &trace;
    config.working_region = working;
    config.dmax = 10.0;
    config.num_slots = args.slots;
    config.budget_factor = 15.0;
    config.point_scheduler = psens::PointScheduler::kOptimal;
    config.alpha = alphas[i];
    config.history_times = hist_times;
    config.history_values = hist_values;
    config.sensors.lifetime = args.slots;
    config.seed = args.seed;
    results[i] = psens::RunLocationMonitoringExperiment(config);
  });
  psens::Table table({"alpha", "avg_utility", "avg_quality"});
  for (size_t i = 0; i < alphas.size(); ++i) {
    table.AddRow({alphas[i], results[i].avg_utility, results[i].avg_quality});
  }
  psens::bench::PrintHeader(
      "Ablation: alpha sweep (location monitoring, budget factor 15)");
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  Run(BenchArgs::Parse(argc, argv));
  return 0;
}
