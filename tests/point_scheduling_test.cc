#include "core/point_scheduling.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "sim/workload.h"

namespace psens {
namespace {

SlotContext MakeSlot(int num_sensors, uint64_t seed, double dmax = 5.0,
                     double extent = 30.0) {
  Rng rng(seed);
  SlotContext slot;
  slot.time = 0;
  slot.dmax = dmax;
  for (int i = 0; i < num_sensors; ++i) {
    SlotSensor s;
    s.sensor_id = 100 + i;
    s.location = Point{rng.Uniform(0.0, extent), rng.Uniform(0.0, extent)};
    s.cost = 10.0;
    s.inaccuracy = rng.Uniform(0.0, 0.2);
    s.trust = 1.0;
    slot.sensors.Append(s);
  }
  return slot;
}

std::vector<PointQuery> MakeQueries(int count, uint64_t seed, double budget = 15.0,
                                    double extent = 30.0) {
  Rng rng(seed);
  return GeneratePointQueries(count, Rect{0, 0, extent, extent},
                              BudgetScheme{budget, false, 0.0}, 0.2, 0, rng);
}

TEST(BuildPointProblemTest, GroupsQueriesByLocation) {
  SlotContext slot = MakeSlot(3, 1);
  std::vector<PointQuery> queries = MakeQueries(2, 2);
  queries.push_back(queries[0]);  // duplicate location
  std::vector<int> loc_of_query;
  const FacilityLocationProblem p = BuildPointProblem(queries, slot, &loc_of_query);
  EXPECT_EQ(p.num_locations, 2);
  EXPECT_EQ(loc_of_query[0], loc_of_query[2]);
  EXPECT_NE(loc_of_query[0], loc_of_query[1]);
}

TEST(BuildPointProblemTest, ValuesAreSumsOfColocatedQueryValues) {
  SlotContext slot = MakeSlot(1, 3);
  slot.sensors.x[0] = 5;
  slot.sensors.y[0] = 5;
  slot.sensors.inaccuracy[0] = 0.0;
  PointQuery q;
  q.location = Point{5, 5};
  q.budget = 10.0;
  q.theta_min = 0.2;
  std::vector<PointQuery> queries = {q, q};
  std::vector<int> loc_of_query;
  const FacilityLocationProblem p = BuildPointProblem(queries, slot, &loc_of_query);
  ASSERT_EQ(p.value[0].size(), 1u);
  EXPECT_DOUBLE_EQ(p.value[0][0].second, 20.0);  // two queries, theta = 1
}

TEST(BuildPointProblemTest, DropsBelowThresholdValues) {
  SlotContext slot = MakeSlot(1, 4);
  slot.sensors.x[0] = 0;
  slot.sensors.y[0] = 0;
  PointQuery q;
  q.location = Point{4.5, 0};  // theta = 0.1 < theta_min
  q.budget = 10.0;
  q.theta_min = 0.2;
  std::vector<int> loc_of_query;
  const FacilityLocationProblem p = BuildPointProblem({q}, slot, &loc_of_query);
  EXPECT_TRUE(p.value[0].empty());
}

class SchedulerComparisonTest : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerComparisonTest, OptimalDominatesHeuristics) {
  const SlotContext slot = MakeSlot(12, 10 + GetParam());
  const std::vector<PointQuery> queries = MakeQueries(20, 20 + GetParam());
  PointSchedulingOptions options;
  options.scheduler = PointScheduler::kOptimal;
  const PointScheduleResult optimal = SchedulePointQueries(queries, slot, options);
  options.scheduler = PointScheduler::kLocalSearch;
  const PointScheduleResult ls = SchedulePointQueries(queries, slot, options);
  options.scheduler = PointScheduler::kBaseline;
  const PointScheduleResult baseline = SchedulePointQueries(queries, slot, options);
  ASSERT_TRUE(optimal.proven_optimal);
  EXPECT_GE(optimal.Utility() + 1e-9, ls.Utility());
  EXPECT_GE(optimal.Utility() + 1e-9, baseline.Utility());
}

INSTANTIATE_TEST_SUITE_P(RandomSlots, SchedulerComparisonTest,
                         ::testing::Range(0, 15));

class PaymentPropertiesTest : public ::testing::TestWithParam<int> {};

TEST_P(PaymentPropertiesTest, Equation11PaymentsCoverCostsExactly) {
  const SlotContext slot = MakeSlot(15, 30 + GetParam());
  const std::vector<PointQuery> queries = MakeQueries(25, 40 + GetParam());
  PointSchedulingOptions options;
  options.scheduler =
      GetParam() % 2 == 0 ? PointScheduler::kOptimal : PointScheduler::kLocalSearch;
  const PointScheduleResult result = SchedulePointQueries(queries, slot, options);

  // For each selected sensor: payments of the queries it serves sum to its
  // cost (Eq. 11), and each query's payment is below its value (individual
  // rationality, Section 3.1.1).
  std::vector<double> collected(slot.sensors.size(), 0.0);
  for (const PointAssignment& a : result.assignments) {
    if (!a.satisfied()) continue;
    collected[a.sensor] += a.payment;
    EXPECT_LT(a.payment, a.value + 1e-9);
    EXPECT_GE(a.payment, 0.0);
  }
  for (int si : result.selected_sensors) {
    EXPECT_NEAR(collected[si], slot.sensors.cost[si], 1e-6) << "sensor " << si;
  }
  // Total utility equals total value minus total cost.
  EXPECT_NEAR(result.Utility(), result.total_value - result.total_cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomSlots, PaymentPropertiesTest,
                         ::testing::Range(0, 12));

TEST(PointSchedulingTest, NoSensorsMeansNothingScheduled) {
  SlotContext slot;
  slot.dmax = 5.0;
  const std::vector<PointQuery> queries = MakeQueries(5, 50);
  for (const PointScheduler scheduler :
       {PointScheduler::kOptimal, PointScheduler::kLocalSearch,
        PointScheduler::kBaseline}) {
    PointSchedulingOptions options;
    options.scheduler = scheduler;
    const PointScheduleResult r = SchedulePointQueries(queries, slot, options);
    EXPECT_EQ(r.NumSatisfied(), 0);
    EXPECT_DOUBLE_EQ(r.Utility(), 0.0);
  }
}

TEST(PointSchedulingTest, NoQueriesMeansNoCost) {
  const SlotContext slot = MakeSlot(10, 60);
  PointSchedulingOptions options;
  options.scheduler = PointScheduler::kOptimal;
  const PointScheduleResult r = SchedulePointQueries({}, slot, options);
  EXPECT_TRUE(r.selected_sensors.empty());
  EXPECT_DOUBLE_EQ(r.total_cost, 0.0);
}

TEST(PointSchedulingTest, BaselineZeroWhenBudgetBelowCost) {
  // Budget 7, perfect sensor: value <= 7 < cost 10, so the baseline (which
  // needs a single query to cover the full sensor price) answers nothing.
  SlotContext slot = MakeSlot(5, 70);
  const std::vector<PointQuery> queries = MakeQueries(10, 71, /*budget=*/7.0);
  PointSchedulingOptions options;
  options.scheduler = PointScheduler::kBaseline;
  const PointScheduleResult r = SchedulePointQueries(queries, slot, options);
  EXPECT_EQ(r.NumSatisfied(), 0);
  EXPECT_DOUBLE_EQ(r.Utility(), 0.0);
}

TEST(PointSchedulingTest, SharingAnswersWhatBaselineCannot) {
  // Many co-located queries of budget 7 jointly exceed the sensor cost:
  // the optimizing schedulers answer them, the baseline cannot.
  SlotContext slot = MakeSlot(1, 80);
  slot.sensors.x[0] = 10;
  slot.sensors.y[0] = 10;
  slot.sensors.inaccuracy[0] = 0.0;
  PointQuery q;
  q.location = Point{10, 10};
  q.budget = 7.0;
  q.theta_min = 0.2;
  const std::vector<PointQuery> queries(4, q);
  PointSchedulingOptions options;
  options.scheduler = PointScheduler::kOptimal;
  const PointScheduleResult optimal = SchedulePointQueries(queries, slot, options);
  EXPECT_EQ(optimal.NumSatisfied(), 4);
  EXPECT_NEAR(optimal.Utility(), 4 * 7.0 - 10.0, 1e-9);
  options.scheduler = PointScheduler::kBaseline;
  const PointScheduleResult baseline = SchedulePointQueries(queries, slot, options);
  EXPECT_EQ(baseline.NumSatisfied(), 0);
}

TEST(PointSchedulingTest, AssignmentQualityMatchesEquation4) {
  SlotContext slot = MakeSlot(1, 90);
  slot.sensors.x[0] = 10;
  slot.sensors.y[0] = 10;
  slot.sensors.inaccuracy[0] = 0.1;
  PointQuery q;
  q.location = Point{12, 10};  // distance 2, dmax 5
  q.budget = 30.0;
  q.theta_min = 0.2;
  PointSchedulingOptions options;
  options.scheduler = PointScheduler::kOptimal;
  const PointScheduleResult r = SchedulePointQueries({q}, slot, options);
  ASSERT_EQ(r.NumSatisfied(), 1);
  EXPECT_NEAR(r.assignments[0].quality, 0.9 * (1.0 - 2.0 / 5.0), 1e-12);
  EXPECT_NEAR(r.assignments[0].value, 30.0 * r.assignments[0].quality, 1e-12);
}

TEST(PointSchedulingTest, RandomizedLocalSearchRuns) {
  const SlotContext slot = MakeSlot(15, 91);
  const std::vector<PointQuery> queries = MakeQueries(30, 92);
  PointSchedulingOptions options;
  options.scheduler = PointScheduler::kRandomizedLocalSearch;
  options.restarts = 4;
  const PointScheduleResult r = SchedulePointQueries(queries, slot, options);
  EXPECT_GE(r.Utility(), 0.0);
}

}  // namespace
}  // namespace psens
