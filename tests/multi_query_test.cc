#include "core/multi_query.h"

#include <gtest/gtest.h>

#include "tests/callback_multi_query.h"

namespace psens {
namespace {

SlotContext OneSensorSlot(const Point& p, double cost = 10.0) {
  SlotContext slot;
  slot.time = 0;
  slot.dmax = 5.0;
  SlotSensor s;
  s.sensor_id = 7;
  s.location = p;
  s.cost = cost;
  slot.sensors.Append(s);
  return slot;
}

TEST(PointMultiQueryTest, MarginalEqualsEquation3Value) {
  const SlotContext slot = OneSensorSlot(Point{0, 0});
  PointQuery q;
  q.id = 3;
  q.location = Point{2.5, 0};  // theta 0.5
  q.budget = 20.0;
  PointMultiQuery m(q, &slot);
  EXPECT_DOUBLE_EQ(m.MarginalValue(0), 10.0);
  EXPECT_EQ(m.id(), 3);
  EXPECT_DOUBLE_EQ(m.MaxValue(), 20.0);
}

TEST(PointMultiQueryTest, SecondWorseSensorHasNonPositiveMarginal) {
  SlotContext slot = OneSensorSlot(Point{0, 0});
  SlotSensor far;
  far.sensor_id = 8;
  far.location = Point{4, 0};  // theta 0.2 for a query at origin
  far.cost = 10.0;
  slot.sensors.Append(far);
  PointQuery q;
  q.location = Point{0, 0};
  q.budget = 10.0;
  PointMultiQuery m(q, &slot);
  m.Commit(0, 1.0);
  EXPECT_DOUBLE_EQ(m.CurrentValue(), 10.0);
  EXPECT_LE(m.MarginalValue(1), 0.0);
  EXPECT_EQ(m.BestSensor(), 0);
}

TEST(PointMultiQueryTest, BetterSensorImprovesBest) {
  SlotContext slot = OneSensorSlot(Point{4, 0});  // theta 0.2
  SlotSensor close;
  close.sensor_id = 9;
  close.location = Point{0, 0};  // theta 1.0
  close.cost = 10.0;
  slot.sensors.Append(close);
  PointQuery q;
  q.location = Point{0, 0};
  q.budget = 10.0;
  q.theta_min = 0.1;  // keep the theta = 0.2 sensor clear of the cutoff
  PointMultiQuery m(q, &slot);
  m.Commit(0, 1.0);
  EXPECT_DOUBLE_EQ(m.MarginalValue(1), 10.0 - 2.0);
  m.Commit(1, 2.0);
  EXPECT_EQ(m.BestSensor(), 1);
  EXPECT_DOUBLE_EQ(m.CurrentValue(), 10.0);
  EXPECT_DOUBLE_EQ(m.BestQuality(), 1.0);
  EXPECT_DOUBLE_EQ(m.TotalPayment(), 3.0);
}

TEST(PointMultiQueryTest, BelowThresholdHasZeroValue) {
  const SlotContext slot = OneSensorSlot(Point{4.5, 0});  // theta 0.1 < 0.2
  PointQuery q;
  q.location = Point{0, 0};
  q.budget = 10.0;
  q.theta_min = 0.2;
  PointMultiQuery m(q, &slot);
  EXPECT_DOUBLE_EQ(m.MarginalValue(0), 0.0);
}

TEST(PointMultiQueryTest, ResetClearsBestSensor) {
  const SlotContext slot = OneSensorSlot(Point{0, 0});
  PointQuery q;
  q.location = Point{0, 0};
  q.budget = 10.0;
  PointMultiQuery m(q, &slot);
  m.Commit(0, 1.0);
  m.ResetSelection();
  EXPECT_EQ(m.BestSensor(), -1);
  EXPECT_DOUBLE_EQ(m.CurrentValue(), 0.0);
  EXPECT_DOUBLE_EQ(m.BestQuality(), 0.0);
}

TEST(CallbackMultiQueryTest, UsesCallbackForValues) {
  CallbackMultiQuery q(5,
                       [](const std::vector<int>& set) {
                         return 3.0 * static_cast<double>(set.size());
                       },
                       100.0, /*num_sensors=*/5);
  EXPECT_DOUBLE_EQ(q.MarginalValue(0), 3.0);
  q.Commit(0, 1.0);
  EXPECT_DOUBLE_EQ(q.CurrentValue(), 3.0);
  EXPECT_DOUBLE_EQ(q.MarginalValue(4), 3.0);
  q.Commit(4, 1.0);
  EXPECT_DOUBLE_EQ(q.CurrentValue(), 6.0);
  EXPECT_DOUBLE_EQ(q.TotalPayment(), 2.0);
  EXPECT_EQ(q.SelectedSensors().size(), 2u);
}

TEST(CallbackMultiQueryTest, CountsValuationCalls) {
  CallbackMultiQuery q(1, [](const std::vector<int>&) { return 1.0; }, 1.0,
                       /*num_sensors=*/2);
  const int64_t before = q.ValuationCalls();
  (void)q.MarginalValue(0);
  (void)q.MarginalValue(1);
  EXPECT_EQ(q.ValuationCalls() - before, 2);
}

}  // namespace
}  // namespace psens
