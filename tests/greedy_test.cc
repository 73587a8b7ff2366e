// Tests of Algorithm 1 ("Greedy Sensor Selection") and its Theorem 1
// properties:
//   1. telescoping: sum of committed marginals equals v_q(S_q);
//   2. positive total utility whenever anything is selected;
//   3. individual rationality: v_q(S_q) >= sum of payments;
//   4. O(|Q| |S|^2) valuation calls.

#include "core/greedy.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/multi_query.h"
#include "sim/workload.h"

namespace psens {
namespace {

SlotContext MakeSlot(int num_sensors, uint64_t seed) {
  Rng rng(seed);
  SlotContext slot;
  slot.time = 0;
  slot.dmax = 10.0;
  for (int i = 0; i < num_sensors; ++i) {
    SlotSensor s;
    s.sensor_id = i;
    s.location = Point{rng.Uniform(0.0, 40.0), rng.Uniform(0.0, 40.0)};
    s.cost = rng.Uniform(5.0, 15.0);
    s.inaccuracy = rng.Uniform(0.0, 0.2);
    s.trust = 1.0;
    slot.sensors.Append(s);
  }
  return slot;
}

std::vector<std::unique_ptr<AggregateQuery>> MakeAggregates(const SlotContext& slot,
                                                            int count,
                                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<AggregateQuery>> queries;
  for (int i = 0; i < count; ++i) {
    AggregateQuery::Params params;
    params.id = i;
    params.region = RandomRect(Rect{0, 0, 40, 40}, 5.0, rng);
    params.budget = rng.Uniform(20.0, 60.0);
    params.sensing_range = 10.0;
    queries.push_back(std::make_unique<AggregateQuery>(params, slot));
  }
  return queries;
}

class Theorem1Test : public ::testing::TestWithParam<int> {};

TEST_P(Theorem1Test, AllFourProperties) {
  const SlotContext slot = MakeSlot(12, 100 + GetParam());
  auto queries = MakeAggregates(slot, 6, 200 + GetParam());
  std::vector<MultiQuery*> ptrs;
  for (auto& q : queries) ptrs.push_back(q.get());

  const SelectionResult result = GreedySensorSelection(ptrs, slot);

  // Property 2: positive total utility if any sensor was selected.
  if (!result.selected_sensors.empty()) {
    EXPECT_GT(result.Utility(), 0.0);
  }
  double total_payment = 0.0;
  for (const auto& q : queries) {
    // Property 1+3: value of the selection covers the payments.
    EXPECT_GE(q->CurrentValue() + 1e-9, q->TotalPayment());
    total_payment += q->TotalPayment();
  }
  // Payments exactly cover the cost of all selected sensors.
  EXPECT_NEAR(total_payment, result.total_cost, 1e-6);
  // Property 4: O(|Q| |S|^2) valuation calls.
  const int64_t bound = static_cast<int64_t>(ptrs.size()) * 12 * 12 +
                        static_cast<int64_t>(ptrs.size()) * 12;
  EXPECT_LE(result.valuation_calls, bound);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, Theorem1Test, ::testing::Range(0, 15));

TEST(GreedyTest, SelectsNothingWhenCostsDominate) {
  SlotContext slot = MakeSlot(5, 1);
  for (double& cost : slot.sensors.cost) cost = 1e6;
  auto queries = MakeAggregates(slot, 3, 2);
  std::vector<MultiQuery*> ptrs;
  for (auto& q : queries) ptrs.push_back(q.get());
  const SelectionResult result = GreedySensorSelection(ptrs, slot);
  EXPECT_TRUE(result.selected_sensors.empty());
  EXPECT_DOUBLE_EQ(result.total_value, 0.0);
}

TEST(GreedyTest, SharedSensorPaidOnceSplitProportionally) {
  // One sensor covering two point queries: both benefit, payments split
  // proportionally to marginals and sum to the cost (line 10).
  SlotContext slot;
  slot.time = 0;
  slot.dmax = 5.0;
  SlotSensor s;
  s.sensor_id = 0;
  s.location = Point{0, 0};
  s.cost = 10.0;
  slot.sensors.Append(s);

  PointQuery q1;
  q1.id = 1;
  q1.location = Point{0, 0};  // theta 1.0
  q1.budget = 20.0;
  PointQuery q2;
  q2.id = 2;
  q2.location = Point{2.5, 0};  // theta 0.5
  q2.budget = 20.0;
  PointMultiQuery m1(q1, &slot), m2(q2, &slot);
  std::vector<MultiQuery*> ptrs = {&m1, &m2};
  const SelectionResult result = GreedySensorSelection(ptrs, slot);
  ASSERT_EQ(result.selected_sensors.size(), 1u);
  // Marginals: 20 and 10 -> payments 20/30*10 and 10/30*10.
  EXPECT_NEAR(m1.TotalPayment(), 10.0 * 20.0 / 30.0, 1e-9);
  EXPECT_NEAR(m2.TotalPayment(), 10.0 * 10.0 / 30.0, 1e-9);
  EXPECT_NEAR(m1.TotalPayment() + m2.TotalPayment(), 10.0, 1e-9);
}

TEST(GreedyTest, CostScaleBiasesSelectionButChargesTrueCost) {
  // Two identical sensors; scaling one's cost to near zero makes greedy
  // prefer it, yet the query still pays the true cost.
  SlotContext slot;
  slot.time = 0;
  slot.dmax = 5.0;
  for (int i = 0; i < 2; ++i) {
    SlotSensor s;
    s.sensor_id = i;
    s.location = Point{static_cast<double>(i) * 0.1, 0};
    s.cost = 10.0;
    slot.sensors.Append(s);
  }
  PointQuery q;
  q.id = 1;
  q.location = Point{0.05, 0};
  q.budget = 20.0;
  PointMultiQuery m(q, &slot);
  std::vector<MultiQuery*> ptrs = {&m};
  const std::vector<double> scale = {1.0, 0.01};
  const SelectionResult result = GreedySensorSelection(ptrs, slot, &scale);
  ASSERT_EQ(result.selected_sensors.size(), 1u);
  EXPECT_EQ(result.selected_sensors[0], 1);
  EXPECT_NEAR(result.total_cost, 10.0, 1e-9);
  EXPECT_NEAR(m.TotalPayment(), 10.0, 1e-9);
}

TEST(BaselineSequentialTest, EarlierQueriesPayLaterQueriesFreeRide) {
  SlotContext slot;
  slot.time = 0;
  slot.dmax = 5.0;
  SlotSensor s;
  s.sensor_id = 0;
  s.location = Point{0, 0};
  s.cost = 10.0;
  slot.sensors.Append(s);
  PointQuery q;
  q.location = Point{0, 0};
  q.budget = 20.0;
  q.id = 1;
  PointMultiQuery first(q, &slot), second(q, &slot);
  std::vector<MultiQuery*> ptrs = {&first, &second};
  const SelectionResult result = BaselineSequentialSelection(ptrs, slot);
  EXPECT_NEAR(first.TotalPayment(), 10.0, 1e-9);
  EXPECT_NEAR(second.TotalPayment(), 0.0, 1e-9);
  EXPECT_EQ(result.selected_sensors.size(), 1u);
  EXPECT_NEAR(result.total_value, 40.0, 1e-9);
}

TEST(BaselineSequentialTest, QueryAloneCannotAffordSensor) {
  SlotContext slot;
  slot.time = 0;
  slot.dmax = 5.0;
  SlotSensor s;
  s.sensor_id = 0;
  s.location = Point{0, 0};
  s.cost = 10.0;
  slot.sensors.Append(s);
  PointQuery q;
  q.location = Point{0, 0};
  q.budget = 7.0;  // value 7 < cost 10
  PointMultiQuery a(q, &slot), b(q, &slot), c(q, &slot);
  std::vector<MultiQuery*> ptrs = {&a, &b, &c};
  const SelectionResult baseline = BaselineSequentialSelection(ptrs, slot);
  EXPECT_TRUE(baseline.selected_sensors.empty());
  // Greedy pools the three budgets: 21 > 10.
  a.ResetSelection();
  b.ResetSelection();
  c.ResetSelection();
  const SelectionResult greedy = GreedySensorSelection(ptrs, slot);
  EXPECT_EQ(greedy.selected_sensors.size(), 1u);
  EXPECT_NEAR(greedy.Utility(), 21.0 - 10.0, 1e-9);
}

TEST(GreedyTest, GreedyAtLeastMatchesBaselineOnRandomAggregates) {
  for (int trial = 0; trial < 10; ++trial) {
    const SlotContext slot = MakeSlot(15, 300 + trial);
    auto q1 = MakeAggregates(slot, 5, 400 + trial);
    auto q2 = MakeAggregates(slot, 5, 400 + trial);
    std::vector<MultiQuery*> p1, p2;
    for (auto& q : q1) p1.push_back(q.get());
    for (auto& q : q2) p2.push_back(q.get());
    const SelectionResult greedy = GreedySensorSelection(p1, slot);
    const SelectionResult baseline = BaselineSequentialSelection(p2, slot);
    // Not a theorem, but on pooled-value instances greedy should not lose
    // by much; assert it never loses the slot entirely when baseline wins.
    if (baseline.Utility() > 0.0) {
      EXPECT_GT(greedy.Utility(), 0.0) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace psens
