#include "trace/closed_loop.h"

#include <algorithm>
#include <chrono>
#include <memory>

namespace psens {

ChurnWorkload::ChurnWorkload(const ChurnScenarioSetup* setup,
                             const ChurnQueryConfig& config)
    : setup_(setup),
      config_(config),
      stream_(setup->churn, setup->scenario.sensors, setup->field),
      churn_rng_(0),
      query_rng_(0) {
  stream_.SetClusteredPlacement(&setup_->scenario, &setup_->config);
  // The canonical fork layout (see ChurnScenarioSetup): fork from a local
  // copy, because Fork advances its parent and the setup is shared.
  Rng fork_base = setup_->rng_after_generation;
  churn_rng_ = fork_base.Fork(7);
  query_rng_ = fork_base.Fork(8);
}

SensorDelta ChurnWorkload::NextDelta() { return stream_.Next(churn_rng_); }

SlotQueryBatch ChurnWorkload::NextQueries(int time) {
  SlotQueryBatch batch;
  // RNG consumption order is points then aggregates (the fig13 order);
  // binding order is the reverse — SlotQueryBatch fixes it.
  batch.points = GenerateClusteredPointQueries(
      config_.queries_per_slot, setup_->scenario, setup_->config,
      BudgetScheme{config_.point_budget, false, 0.0}, config_.theta_min,
      /*id_base=*/time * config_.queries_per_slot, query_rng_);
  const double side = setup_->side;
  const double half = config_.aggregate_half;
  batch.aggregates.reserve(static_cast<size_t>(config_.aggregates_per_slot));
  for (int i = 0; i < config_.aggregates_per_slot; ++i) {
    const Point c =
        DrawScenarioLocation(setup_->scenario, setup_->config, query_rng_);
    AggregateQuery::Params params;
    params.id = time * 1000 + i;
    params.region = Rect{std::max(0.0, c.x - half), std::max(0.0, c.y - half),
                         std::min(side, c.x + half), std::min(side, c.y + half)};
    params.budget = params.region.Width() * params.region.Height() /
                    (1.5 * config_.aggregate_range) * 2.0;
    params.sensing_range = config_.aggregate_range;
    params.cell_size = config_.aggregate_cell;
    batch.aggregates.push_back(params);
  }
  return batch;
}

ClosedLoopResult RunChurnClosedLoop(const ChurnScenarioSetup& setup,
                                    const ClosedLoopConfig& config,
                                    MonitorSet* monitors) {
  ServingConfig scfg = config.serving;
  scfg.working_region = setup.field;
  scfg.dmax = setup.dmax;
  std::unique_ptr<ServingEngine> engine =
      MakeServingEngine(setup.scenario.sensors, scfg);
  ChurnWorkload workload(&setup, config.queries);
  SlotServer server(engine.get());
  server.set_monitors(monitors);

  ClosedLoopResult result;
  result.outcomes.reserve(static_cast<size_t>(config.slots) + 1);
  // Slot 0 is the cold build, served uniformly as an empty-input slot so
  // a recorded trace replays it the same way (outcomes[0] is trivial).
  // The clock starts after it: wall_ms covers the served slots only.
  result.outcomes.push_back(
      server.ServeSlot(0, SensorDelta{}, SlotQueryBatch{}));
  const auto start = std::chrono::steady_clock::now();
  for (int t = 1; t <= config.slots; ++t) {
    const SensorDelta delta = workload.NextDelta();
    const SlotQueryBatch queries = workload.NextQueries(t);
    result.outcomes.push_back(server.ServeSlot(t, delta, queries));
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  for (const SlotOutcome& o : result.outcomes) {
    result.total_utility += o.selection.Utility();
    result.total_payment += o.total_payment;
    result.valuation_calls += o.selection.valuation_calls;
  }
  if (!scfg.trace_path.empty()) engine->FinishTrace();
  return result;
}

}  // namespace psens
