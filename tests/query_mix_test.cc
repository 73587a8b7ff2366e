#include "core/query_mix.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "sim/workload.h"

namespace psens {
namespace {

SlotContext MakeSlot(int num_sensors, uint64_t seed, int time = 12) {
  Rng rng(seed);
  SlotContext slot;
  slot.time = time;
  slot.dmax = 10.0;
  for (int i = 0; i < num_sensors; ++i) {
    SlotSensor s;
    s.sensor_id = i;
    s.location = Point{rng.Uniform(0.0, 40.0), rng.Uniform(0.0, 40.0)};
    s.cost = 10.0;
    s.inaccuracy = rng.Uniform(0.0, 0.2);
    s.trust = 1.0;
    slot.sensors.Append(s);
  }
  return slot;
}

void MakeHistory(std::vector<double>* times, std::vector<double>* values) {
  times->clear();
  values->clear();
  for (int i = 0; i < 50; ++i) {
    times->push_back(i);
    values->push_back(20.0 + 30.0 * std::sin(0.15 * i));
  }
}

struct MixFixture {
  SlotContext slot;
  std::vector<PointQuery> points;
  std::vector<AggregateQuery::Params> aggregates;
  std::vector<double> hist_times, hist_values;

  explicit MixFixture(uint64_t seed) : slot(MakeSlot(20, seed)) {
    Rng rng(seed + 1);
    points = GeneratePointQueries(15, Rect{0, 0, 40, 40},
                                  BudgetScheme{15.0, false, 0.0}, 0.2, 0, rng);
    aggregates = GenerateAggregateQueries(5, Rect{0, 0, 40, 40}, 10.0, 15.0,
                                          1000, rng);
    MakeHistory(&hist_times, &hist_values);
  }
};

TEST(QueryMixTest, GreedyAccountingIsConsistent) {
  MixFixture f(7);
  QueryMixOptions options;
  options.use_greedy = true;
  const QueryMixSlotResult r =
      RunQueryMixSlot(f.slot, f.points, f.aggregates, nullptr, nullptr, options);
  EXPECT_NEAR(r.total_value, r.point.value + r.aggregate.value, 1e-9);
  EXPECT_NEAR(r.Utility(), r.total_value - r.total_cost, 1e-12);
  EXPECT_EQ(r.point.total, 15);
  EXPECT_GE(r.point.answered, 0);
  EXPECT_LE(r.point.answered, r.point.total);
  // Selected sensors are unique and each contributes exactly one cost.
  std::set<int> unique(r.selected_sensors.begin(), r.selected_sensors.end());
  EXPECT_EQ(unique.size(), r.selected_sensors.size());
  EXPECT_NEAR(r.total_cost, 10.0 * r.selected_sensors.size(), 1e-9);
}

TEST(QueryMixTest, BaselineAccountingIsConsistent) {
  MixFixture f(9);
  QueryMixOptions options;
  options.use_greedy = false;
  const QueryMixSlotResult r =
      RunQueryMixSlot(f.slot, f.points, f.aggregates, nullptr, nullptr, options);
  EXPECT_NEAR(r.total_value, r.point.value + r.aggregate.value, 1e-9);
  std::set<int> unique(r.selected_sensors.begin(), r.selected_sensors.end());
  EXPECT_EQ(unique.size(), r.selected_sensors.size());
}

TEST(QueryMixTest, GreedyBeatsBaselineOnPooledWorkload) {
  double greedy_total = 0.0, baseline_total = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    MixFixture f(100 + trial);
    QueryMixOptions options;
    options.use_greedy = true;
    greedy_total +=
        RunQueryMixSlot(f.slot, f.points, f.aggregates, nullptr, nullptr, options)
            .Utility();
    options.use_greedy = false;
    baseline_total +=
        RunQueryMixSlot(f.slot, f.points, f.aggregates, nullptr, nullptr, options)
            .Utility();
  }
  EXPECT_GE(greedy_total, baseline_total);
}

TEST(QueryMixTest, LocationMonitoringQueriesParticipate) {
  MixFixture f(11);
  LocationMonitoringManager::Config config;
  LocationMonitoringManager manager(f.hist_times, f.hist_values, config);
  LocationMonitoringQuery q;
  q.id = 1;
  q.location = Point{20, 20};
  q.t1 = 10;
  q.t2 = 20;
  q.budget = 100.0;
  q.desired = {12, 15, 18};  // slot.time = 12 is a desired slot
  manager.AddQuery(q);
  QueryMixOptions options;
  options.use_greedy = true;
  const QueryMixSlotResult r =
      RunQueryMixSlot(f.slot, f.points, f.aggregates, &manager, nullptr, options);
  // The monitoring query should have been offered a sample at slot 12;
  // whether it was satisfied depends on sensor proximity, but accounting
  // must include any realized gain.
  EXPECT_NEAR(r.total_value,
              r.point.value + r.aggregate.value + r.location_value_gain, 1e-9);
  EXPECT_GE(r.location_value_gain, 0.0);
}

TEST(QueryMixTest, EmptyWorkloadYieldsZero) {
  const SlotContext slot = MakeSlot(10, 13);
  for (bool greedy : {true, false}) {
    QueryMixOptions options;
    options.use_greedy = greedy;
    const QueryMixSlotResult r =
        RunQueryMixSlot(slot, {}, {}, nullptr, nullptr, options);
    EXPECT_DOUBLE_EQ(r.total_value, 0.0);
    EXPECT_DOUBLE_EQ(r.total_cost, 0.0);
    EXPECT_TRUE(r.selected_sensors.empty());
  }
}

TEST(QueryMixTest, NoSensorsYieldsZero) {
  SlotContext slot;
  slot.time = 12;
  slot.dmax = 10.0;
  MixFixture f(15);
  QueryMixOptions options;
  options.use_greedy = true;
  const QueryMixSlotResult r =
      RunQueryMixSlot(slot, f.points, f.aggregates, nullptr, nullptr, options);
  EXPECT_DOUBLE_EQ(r.total_value, 0.0);
  EXPECT_EQ(r.point.answered, 0);
}

}  // namespace
}  // namespace psens
