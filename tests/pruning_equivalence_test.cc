// The spatial-index pruning contract: indexed and unindexed runs of every
// scheduler must produce *bit-identical* selections, payments, and
// accounting — pruning only skips work whose result is exactly zero.
// Covers the slot schedulers directly and every fig02-fig10 experiment
// runner end to end (SlotIndexPolicy::kGrid vs kNone).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/multi_sensor_point_query.h"
#include "core/point_scheduling.h"
#include "core/slot.h"
#include "data/gaussian_field.h"
#include "data/ozone_trace.h"
#include "mobility/random_waypoint.h"
#include "mobility/synthetic_nokia.h"
#include "sim/experiments.h"
#include "sim/workload.h"

namespace psens {
namespace {

SlotContext MakeSlot(int num_sensors, uint64_t seed, SlotIndexPolicy policy) {
  Rng rng(seed);
  SlotContext slot;
  slot.time = 0;
  slot.dmax = 5.0;
  slot.index_policy = policy;
  for (int i = 0; i < num_sensors; ++i) {
    SlotSensor s;
    s.sensor_id = i;
    // Two clusters plus background, so candidate pruning actually bites.
    const double cx = (i % 3 == 0) ? 10.0 : 40.0;
    s.location = i % 5 == 4
                     ? Point{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)}
                     : Point{rng.Normal(cx, 4.0), rng.Normal(cx, 4.0)};
    s.cost = rng.Uniform(5.0, 15.0);
    s.inaccuracy = rng.Uniform(0.0, 0.2);
    s.trust = 1.0;
    slot.sensors.Append(s);
  }
  AttachSlotIndex(slot);
  return slot;
}

std::vector<PointQuery> MakeQueries(int count, uint64_t seed) {
  Rng rng(seed);
  return GeneratePointQueries(count, Rect{0, 0, 50, 50},
                              BudgetScheme{15.0, false, 0.0}, 0.2, 0, rng);
}

void ExpectSameSchedule(const PointScheduleResult& a, const PointScheduleResult& b) {
  EXPECT_EQ(a.selected_sensors, b.selected_sensors);
  EXPECT_EQ(a.total_value, b.total_value);
  EXPECT_EQ(a.total_cost, b.total_cost);
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].sensor, b.assignments[i].sensor) << "query " << i;
    EXPECT_EQ(a.assignments[i].value, b.assignments[i].value) << "query " << i;
    EXPECT_EQ(a.assignments[i].quality, b.assignments[i].quality) << "query " << i;
    EXPECT_EQ(a.assignments[i].payment, b.assignments[i].payment) << "query " << i;
  }
}

TEST(PruningEquivalenceTest, PointSchedulersMatchUnprunedBitForBit) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    const std::vector<PointQuery> queries = MakeQueries(120, 900 + seed);
    const SlotContext indexed = MakeSlot(200, seed, SlotIndexPolicy::kGrid);
    SlotContext plain = MakeSlot(200, seed, SlotIndexPolicy::kNone);
    ASSERT_NE(indexed.index, nullptr);
    ASSERT_EQ(plain.index, nullptr);
    for (PointScheduler scheduler :
         {PointScheduler::kLocalSearch, PointScheduler::kRandomizedLocalSearch,
          PointScheduler::kBaseline, PointScheduler::kOptimal}) {
      SCOPED_TRACE(static_cast<int>(scheduler));
      PointSchedulingOptions options;
      options.scheduler = scheduler;
      options.seed = 42 + seed;
      options.node_limit = 200'000;
      ExpectSameSchedule(SchedulePointQueries(queries, indexed, options),
                         SchedulePointQueries(queries, plain, options));
    }
  }
}

TEST(PruningEquivalenceTest, GridIndexMatchesUnpruned) {
  const std::vector<PointQuery> queries = MakeQueries(100, 5);
  SlotContext plain = MakeSlot(150, 4, SlotIndexPolicy::kNone);
  PointSchedulingOptions options;
  const PointScheduleResult reference = SchedulePointQueries(queries, plain, options);
  const SlotContext slot = MakeSlot(150, 4, SlotIndexPolicy::kGrid);
  ASSERT_NE(slot.index, nullptr);
  ExpectSameSchedule(SchedulePointQueries(queries, slot, options), reference);
}

struct GreedyRun {
  SelectionResult result;
  std::vector<double> payments;
  std::vector<double> values;
};

/// The eager reference and the lazy engine share one signature.
using SelectFn = decltype(&EagerGreedySensorSelection);

GreedyRun RunMixedGreedy(const SlotContext& slot, uint64_t seed,
                         SelectFn select, bool baseline = false) {
  Rng rng(seed);
  std::vector<std::unique_ptr<MultiQuery>> owned;
  for (int i = 0; i < 12; ++i) {
    PointQuery q;
    q.id = i;
    q.location = Point{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)};
    q.budget = rng.Uniform(10.0, 25.0);
    owned.push_back(std::make_unique<PointMultiQuery>(q, &slot));
  }
  for (int i = 0; i < 6; ++i) {
    MultiSensorPointQuery::Params params;
    params.id = 100 + i;
    params.location = Point{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)};
    params.budget = rng.Uniform(20.0, 50.0);
    params.redundancy = 3;
    owned.push_back(std::make_unique<MultiSensorPointQuery>(params, &slot));
  }
  for (int i = 0; i < 5; ++i) {
    AggregateQuery::Params params;
    params.id = 200 + i;
    params.region = RandomRect(Rect{0, 0, 50, 50}, 8.0, rng);
    params.budget = rng.Uniform(40.0, 90.0);
    params.sensing_range = 10.0;
    owned.push_back(std::make_unique<AggregateQuery>(params, slot));
  }
  std::vector<MultiQuery*> ptrs;
  for (auto& q : owned) ptrs.push_back(q.get());

  GreedyRun run;
  run.result = baseline ? BaselineSequentialSelection(ptrs, slot)
                        : select(ptrs, slot, nullptr);
  for (const auto& q : owned) {
    run.payments.push_back(q->TotalPayment());
    run.values.push_back(q->CurrentValue());
  }
  return run;
}

void ExpectSameGreedy(const GreedyRun& a, const GreedyRun& b) {
  EXPECT_EQ(a.result.selected_sensors, b.result.selected_sensors);
  // Grid and column scan find the same candidates, so they value the
  // same (sensor, query) pairs.
  EXPECT_EQ(a.result.valuation_calls, b.result.valuation_calls);
  EXPECT_EQ(a.result.total_value, b.result.total_value);
  EXPECT_EQ(a.result.total_cost, b.result.total_cost);
  ASSERT_EQ(a.payments.size(), b.payments.size());
  for (size_t i = 0; i < a.payments.size(); ++i) {
    EXPECT_EQ(a.payments[i], b.payments[i]) << "query " << i;
    EXPECT_EQ(a.values[i], b.values[i]) << "query " << i;
  }
}

TEST(PruningEquivalenceTest, GreedyEnginesMatchUnprunedOnMixedQueries) {
  for (uint64_t seed : {10ull, 11ull, 12ull}) {
    const SlotContext indexed = MakeSlot(180, seed, SlotIndexPolicy::kGrid);
    const SlotContext plain = MakeSlot(180, seed, SlotIndexPolicy::kNone);
    ASSERT_NE(indexed.index, nullptr);
    for (SelectFn select :
         {EagerGreedySensorSelection, LazyGreedySensorSelection}) {
      SCOPED_TRACE(select == EagerGreedySensorSelection ? "eager" : "lazy");
      const GreedyRun pruned = RunMixedGreedy(indexed, 700 + seed, select);
      const GreedyRun reference = RunMixedGreedy(plain, 700 + seed, select);
      ExpectSameGreedy(pruned, reference);
    }
    ExpectSameGreedy(
        RunMixedGreedy(indexed, 800 + seed, LazyGreedySensorSelection, true),
        RunMixedGreedy(plain, 800 + seed, LazyGreedySensorSelection, true));
  }
}

// ---------------------------------------------------------------------------
// End-to-end: every fig02-fig10 experiment runner, kGrid vs kNone.
// ---------------------------------------------------------------------------

void ExpectSameResult(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.avg_utility, b.avg_utility);
  EXPECT_EQ(a.satisfaction, b.satisfaction);
  EXPECT_EQ(a.avg_quality, b.avg_quality);
  EXPECT_EQ(a.avg_cost, b.avg_cost);
  EXPECT_EQ(a.avg_value, b.avg_value);
  EXPECT_EQ(a.total_queries, b.total_queries);
  EXPECT_EQ(a.answered_queries, b.answered_queries);
}

TEST(PruningEquivalenceTest, PointExperimentMatches) {
  RandomWaypointConfig mobility;
  mobility.num_sensors = 120;
  mobility.num_slots = 6;
  mobility.seed = 5;
  const Trace trace = GenerateRandomWaypoint(mobility);
  PointExperimentConfig config;
  config.trace = &trace;
  config.working_region = CentralSubregion(80, 60);
  config.num_slots = 6;
  config.queries_per_slot = 80;
  config.budget = BudgetScheme{15.0, false, 0.0};
  config.sensors.lifetime = 6;
  config.seed = 17;
  for (PointScheduler scheduler : {PointScheduler::kLocalSearch,
                                   PointScheduler::kBaseline}) {
    SCOPED_TRACE(static_cast<int>(scheduler));
    config.scheduler = scheduler;
    config.index_policy = SlotIndexPolicy::kGrid;
    const ExperimentResult pruned = RunPointExperiment(config);
    config.index_policy = SlotIndexPolicy::kNone;
    const ExperimentResult plain = RunPointExperiment(config);
    ExpectSameResult(pruned, plain);
    EXPECT_GT(pruned.total_queries, 0);
  }
}

TEST(PruningEquivalenceTest, AggregateExperimentMatches) {
  SyntheticNokiaConfig nokia;
  nokia.num_slots = 5;
  nokia.num_total_sensors = 300;
  nokia.num_base_users = 100;
  const Trace trace = GenerateSyntheticNokia(nokia);
  AggregateExperimentConfig config;
  config.trace = &trace;
  config.working_region = NokiaWorkingRegion(nokia);
  config.num_slots = 5;
  config.budget_factor = 10.0;
  config.sensors.lifetime = 5;
  for (bool greedy : {true, false}) {
    SCOPED_TRACE(greedy);
    config.greedy = greedy;
    config.index_policy = SlotIndexPolicy::kGrid;
    const ExperimentResult pruned = RunAggregateExperiment(config);
    config.index_policy = SlotIndexPolicy::kNone;
    const ExperimentResult plain = RunAggregateExperiment(config);
    ExpectSameResult(pruned, plain);
  }
}

TEST(PruningEquivalenceTest, LocationMonitoringExperimentMatches) {
  SyntheticNokiaConfig nokia;
  nokia.num_slots = 10;
  const Trace trace = GenerateSyntheticNokia(nokia);
  OzoneTraceConfig ozone;
  ozone.num_days = 1;
  ozone.slots_per_day = 10;
  const OzoneTrace history = GenerateOzoneTrace(ozone);
  LocationMonitoringExperimentConfig config;
  config.trace = &trace;
  config.working_region = NokiaWorkingRegion(nokia);
  config.num_slots = 10;
  config.budget_factor = 15.0;
  config.history_times = history.times;
  config.history_values = history.values;
  config.sensors.lifetime = 10;
  config.point_scheduler = PointScheduler::kOptimal;
  config.index_policy = SlotIndexPolicy::kGrid;
  const ExperimentResult pruned = RunLocationMonitoringExperiment(config);
  config.index_policy = SlotIndexPolicy::kNone;
  const ExperimentResult plain = RunLocationMonitoringExperiment(config);
  ExpectSameResult(pruned, plain);
}

TEST(PruningEquivalenceTest, RegionMonitoringExperimentMatches) {
  GaussianField::Config field_config;
  field_config.num_slots = 8;
  const GaussianField field(field_config);
  RegionMonitoringExperimentConfig config;
  config.kernel = field.SpatialKernel();
  config.num_slots = 8;
  config.num_sensors = 40;
  config.budget_factor = 15.0;
  config.sensors.lifetime = 8;
  config.index_policy = SlotIndexPolicy::kGrid;
  const ExperimentResult pruned = RunRegionMonitoringExperiment(config);
  config.index_policy = SlotIndexPolicy::kNone;
  const ExperimentResult plain = RunRegionMonitoringExperiment(config);
  ExpectSameResult(pruned, plain);
}

TEST(PruningEquivalenceTest, QueryMixExperimentMatches) {
  SyntheticNokiaConfig nokia;
  nokia.num_slots = 6;
  nokia.num_total_sensors = 300;
  nokia.num_base_users = 100;
  const Trace trace = GenerateSyntheticNokia(nokia);
  OzoneTraceConfig ozone;
  ozone.num_days = 1;
  ozone.slots_per_day = 6;
  const OzoneTrace history = GenerateOzoneTrace(ozone);
  QueryMixExperimentConfig config;
  config.trace = &trace;
  config.working_region = NokiaWorkingRegion(nokia);
  config.num_slots = 6;
  config.budget_factor = 15.0;
  config.point_queries_per_slot = 80;
  config.mean_aggregate_queries = 8;
  config.history_times = history.times;
  config.history_values = history.values;
  config.sensors.lifetime = 6;
  for (bool alg5 : {true, false}) {
    SCOPED_TRACE(alg5);
    config.use_alg5 = alg5;
    config.index_policy = SlotIndexPolicy::kGrid;
    const QueryMixResultSummary pruned = RunQueryMixExperiment(config);
    config.index_policy = SlotIndexPolicy::kNone;
    const QueryMixResultSummary plain = RunQueryMixExperiment(config);
    EXPECT_EQ(pruned.avg_utility, plain.avg_utility);
    EXPECT_EQ(pruned.point_quality, plain.point_quality);
    EXPECT_EQ(pruned.point_satisfaction, plain.point_satisfaction);
    EXPECT_EQ(pruned.aggregate_quality, plain.aggregate_quality);
    EXPECT_EQ(pruned.monitoring_quality, plain.monitoring_quality);
    EXPECT_EQ(pruned.avg_cost, plain.avg_cost);
    EXPECT_EQ(pruned.avg_value, plain.avg_value);
  }
}

TEST(PruningEquivalenceTest, LargeClusteredWorkloadMatches) {
  // The fig11 scenario shape at test-friendly scale: clustered population,
  // clustered queries, both schedulers.
  ClusteredPopulationConfig config;
  config.count = 3000;
  config.num_clusters = 8;
  config.cluster_sigma = 6.0;
  config.density_skew = 1.2;
  Rng rng(99);
  const ScaleScenario scenario =
      GenerateClusteredSensors(config, Rect{0, 0, 80, 80}, rng);
  const std::vector<PointQuery> queries = GenerateClusteredPointQueries(
      150, scenario, config, BudgetScheme{15.0, false, 0.0}, 0.2, 0, rng);
  const SlotContext indexed = BuildSlotContext(
      scenario.sensors, scenario.field, 0, 5.0, SlotIndexPolicy::kGrid);
  const SlotContext plain = BuildSlotContext(
      scenario.sensors, scenario.field, 0, 5.0, SlotIndexPolicy::kNone);
  ASSERT_NE(indexed.index, nullptr);
  for (PointScheduler scheduler :
       {PointScheduler::kLocalSearch, PointScheduler::kBaseline}) {
    PointSchedulingOptions options;
    options.scheduler = scheduler;
    ExpectSameSchedule(SchedulePointQueries(queries, indexed, options),
                       SchedulePointQueries(queries, plain, options));
  }
}

}  // namespace
}  // namespace psens
