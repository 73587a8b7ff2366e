// The column-kernel contract (docs/ARCHITECTURE.md, "Valuation kernels"):
// the column kernels behind PointMultiQuery, MultiSensorPointQuery,
// AggregateQuery, and TrajectoryQuery — plus the per-query candidate value
// caches they enable — produce *bit-identical* selections, payments,
// values, and ValuationCalls to the scalar reference paths, for every
// scheduler, under churn, with the slot's columns repaired incrementally.
// SlotContext::use_soa is the ablation switch: flipping it off on a copied
// context routes every kernel to its scalar path, which reads rows
// assembled from the same columns (SlotSensorTable in core/slot.h).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/greedy.h"
#include "core/multi_query.h"
#include "core/multi_sensor_point_query.h"
#include "core/slot.h"
#include "engine/acquisition_engine.h"
#include "sim/workload.h"

namespace psens {
namespace {

/// The engine's O(churn) repair must leave every column equal to a fresh
/// build over the same registry; a repair that skipped one column (or
/// left it a different length) would silently change valuations.
void ExpectSameContext(const SlotContext& repaired, const SlotContext& built,
                       int t) {
  const SlotSensorTable& a = repaired.sensors;
  const SlotSensorTable& b = built.sensors;
  ASSERT_EQ(a.sensor_id, b.sensor_id) << "slot " << t;
  ASSERT_EQ(a.x, b.x) << "slot " << t;
  ASSERT_EQ(a.y, b.y) << "slot " << t;
  ASSERT_EQ(a.cost, b.cost) << "slot " << t;
  ASSERT_EQ(a.inaccuracy, b.inaccuracy) << "slot " << t;
  ASSERT_EQ(a.trust, b.trust) << "slot " << t;
}

/// Everything an observer can see from one joint selection.
struct Outcome {
  SelectionResult selection;
  std::vector<double> payments;
  std::vector<double> values;
  std::vector<int64_t> calls;
};

/// Binds a mixed query batch (point, multi-sensor point, aggregate,
/// trajectory) against `slot` and runs `engine` over it. The batch is
/// regenerated per call from `seed`, so SoA and scalar runs bind
/// identical queries against their respective contexts.
Outcome RunMixedSelection(const SlotContext& slot, const Rect& field,
                          GreedyEngine engine, uint64_t seed) {
  Rng query_rng(seed);
  const std::vector<PointQuery> point_specs = GeneratePointQueries(
      25, field, BudgetScheme{15.0, false, 0.0}, 0.2, 100, query_rng);
  const std::vector<AggregateQuery::Params> agg_params =
      GenerateAggregateQueries(5, field, 8.0, 15.0, 400, query_rng);

  std::vector<std::unique_ptr<PointMultiQuery>> points;
  std::vector<std::unique_ptr<MultiSensorPointQuery>> multi_points;
  std::vector<std::unique_ptr<AggregateQuery>> aggregates;
  std::vector<std::unique_ptr<TrajectoryQuery>> trajectories;
  std::vector<MultiQuery*> all;
  for (const PointQuery& p : point_specs) {
    points.push_back(std::make_unique<PointMultiQuery>(p, &slot));
    all.push_back(points.back().get());
  }
  for (int k = 0; k < 6; ++k) {
    MultiSensorPointQuery::Params mp;
    mp.id = 500 + k;
    mp.location = Point{query_rng.Uniform(0.0, field.x_max),
                        query_rng.Uniform(0.0, field.y_max)};
    mp.budget = 20.0;
    mp.theta_min = 0.2;
    mp.redundancy = 1 + k % 3;
    multi_points.push_back(std::make_unique<MultiSensorPointQuery>(mp, &slot));
    all.push_back(multi_points.back().get());
  }
  for (const AggregateQuery::Params& p : agg_params) {
    aggregates.push_back(std::make_unique<AggregateQuery>(p, slot));
    all.push_back(aggregates.back().get());
  }
  for (int k = 0; k < 3; ++k) {
    TrajectoryQuery::Params tp;
    tp.id = 700 + k;
    const double y = query_rng.Uniform(0.0, field.y_max);
    tp.trajectory.waypoints = {Point{0.0, y}, Point{field.x_max / 2, y},
                               Point{field.x_max, query_rng.Uniform(0.0, field.y_max)}};
    tp.budget = 25.0;
    tp.sensing_range = 12.0;
    tp.cell_size = 2.0;
    tp.corridor = 3.0;
    trajectories.push_back(std::make_unique<TrajectoryQuery>(tp, slot));
    all.push_back(trajectories.back().get());
  }

  Outcome out;
  out.selection = GreedySensorSelection(all, slot, nullptr, engine);
  for (const MultiQuery* q : all) {
    out.payments.push_back(q->TotalPayment());
    out.values.push_back(q->CurrentValue());
    out.calls.push_back(q->ValuationCalls());
  }
  return out;
}

void ExpectSameOutcome(const Outcome& soa, const Outcome& aos,
                       const char* label, int t) {
  ASSERT_EQ(soa.selection.selected_sensors, aos.selection.selected_sensors)
      << label << " slot " << t;
  ASSERT_EQ(soa.selection.total_value, aos.selection.total_value)
      << label << " slot " << t;
  ASSERT_EQ(soa.selection.total_cost, aos.selection.total_cost)
      << label << " slot " << t;
  ASSERT_EQ(soa.selection.valuation_calls, aos.selection.valuation_calls)
      << label << " slot " << t;
  ASSERT_EQ(soa.payments, aos.payments) << label << " slot " << t;
  ASSERT_EQ(soa.values, aos.values) << label << " slot " << t;
  ASSERT_EQ(soa.calls, aos.calls) << label << " slot " << t;
}

TEST(SoaKernelEquivalenceTest, AllEnginesMatchScalarUnderChurn) {
  const int count = 800;
  const Rect field{0, 0, 60, 60};
  ClusteredPopulationConfig config;
  config.count = count;
  config.num_clusters = 6;
  config.cluster_sigma = 5.0;
  Rng rng(17);
  const ScaleScenario scenario = GenerateClusteredSensors(config, field, rng);

  ChurnConfig churn;
  churn.arrival_rate = 25;
  churn.departure_rate = 25;
  churn.move_fraction = 0.04;
  churn.price_jitter_fraction = 0.01;

  ServingConfig engine_config;
  engine_config.working_region = field;
  engine_config.dmax = 8.0;
  engine_config.incremental = true;
  AcquisitionEngine engine(scenario.sensors, engine_config);
  ChurnStream stream(churn, scenario.sensors, field);
  stream.SetClusteredPlacement(&scenario, &config);
  Rng churn_rng(5);

  const GreedyEngine engines[] = {GreedyEngine::kEager, GreedyEngine::kLazy,
                                  GreedyEngine::kSieve};
  const char* labels[] = {"eager", "lazy", "sieve"};
  for (int t = 0; t < 8; ++t) {
    engine.ApplyDelta(stream.Next(churn_rng));
    const SlotContext& slot = engine.BeginSlot(t);
    ExpectSameContext(
        slot, BuildSlotContext(engine.sensors(), field, t, engine_config.dmax),
        t);

    // Scalar reference: same context with the kernels and the arena
    // disabled — every valuation runs the scalar path over assembled
    // rows, and scratch falls back to owned heap buffers.
    SlotContext scalar = slot;
    scalar.use_soa = false;
    scalar.arena = nullptr;

    for (size_t e = 0; e < std::size(engines); ++e) {
      const uint64_t seed = 900 + static_cast<uint64_t>(t);
      const Outcome soa = RunMixedSelection(slot, field, engines[e], seed);
      const Outcome aos = RunMixedSelection(scalar, field, engines[e], seed);
      ExpectSameOutcome(soa, aos, labels[e], t);
    }
    // Feed readings back so announced costs drift (privacy decay, energy)
    // and the column repair has real cost churn to track.
    const Outcome feedback =
        RunMixedSelection(slot, field, GreedyEngine::kLazy, 7000 + t);
    engine.RecordSlotReadings(feedback.selection.selected_sensors, t);
  }
}

TEST(SoaKernelEquivalenceTest, RebuildModeMatchesScalarToo) {
  const Rect field{0, 0, 40, 40};
  SensorPopulationConfig population;
  population.count = 300;
  population.random_privacy = true;
  Rng rng(23);
  std::vector<Sensor> sensors = GenerateSensors(population, rng);
  for (Sensor& s : sensors) {
    s.SetPosition(Point{rng.Uniform(0.0, 40.0), rng.Uniform(0.0, 40.0)}, true);
  }
  const SlotContext slot = BuildSlotContext(sensors, field, 3, 6.0);
  SlotContext scalar = slot;
  scalar.use_soa = false;
  scalar.arena = nullptr;
  for (GreedyEngine e : {GreedyEngine::kEager, GreedyEngine::kLazy}) {
    const Outcome soa = RunMixedSelection(slot, field, e, 42);
    const Outcome aos = RunMixedSelection(scalar, field, e, 42);
    ExpectSameOutcome(soa, aos, "rebuild", 3);
  }
}

// Unindexed slots exercise the dense-plan kernels (no candidate lists, so
// the caches never arm and the column sweeps run over every sensor).
TEST(SoaKernelEquivalenceTest, UnindexedDensePlansMatchScalar) {
  const Rect field{0, 0, 30, 30};
  SensorPopulationConfig population;
  population.count = 150;
  Rng rng(29);
  std::vector<Sensor> sensors = GenerateSensors(population, rng);
  for (Sensor& s : sensors) {
    s.SetPosition(Point{rng.Uniform(0.0, 30.0), rng.Uniform(0.0, 30.0)}, true);
  }
  const SlotContext slot =
      BuildSlotContext(sensors, field, 0, 6.0, SlotIndexPolicy::kNone);
  ASSERT_EQ(slot.index, nullptr);
  SlotContext scalar = slot;
  scalar.use_soa = false;
  scalar.arena = nullptr;
  for (GreedyEngine e : {GreedyEngine::kEager, GreedyEngine::kLazy}) {
    const Outcome soa = RunMixedSelection(slot, field, e, 314);
    const Outcome aos = RunMixedSelection(scalar, field, e, 314);
    ExpectSameOutcome(soa, aos, "dense", 0);
  }
}

}  // namespace
}  // namespace psens
