#include "core/multi_sensor_point_query.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/greedy.h"

namespace psens {
namespace {

SlotContext MakeSlot(std::vector<Point> positions) {
  SlotContext slot;
  slot.time = 0;
  slot.dmax = 5.0;
  for (size_t i = 0; i < positions.size(); ++i) {
    SlotSensor s;
    s.sensor_id = static_cast<int>(i);
    s.location = positions[i];
    s.cost = 10.0;
    slot.sensors.Append(s);
  }
  return slot;
}

MultiSensorPointQuery::Params BaseParams(int redundancy = 2) {
  MultiSensorPointQuery::Params params;
  params.id = 1;
  params.location = Point{0, 0};
  params.budget = 60.0;
  params.theta_min = 0.2;
  params.redundancy = redundancy;
  return params;
}

TEST(MultiSensorPointQueryTest, FirstReadingWorthItsShare) {
  const SlotContext slot = MakeSlot({Point{0, 0}});
  MultiSensorPointQuery q(BaseParams(2), &slot);
  // One perfect reading fills half the k=2 target: B * 1/2.
  EXPECT_DOUBLE_EQ(q.MarginalValue(0), 30.0);
  q.Commit(0, 5.0);
  EXPECT_DOUBLE_EQ(q.CurrentValue(), 30.0);
  EXPECT_EQ(q.RemainingReadings(), 1);
}

TEST(MultiSensorPointQueryTest, ReachesFullValueAtRedundancy) {
  const SlotContext slot = MakeSlot({Point{0, 0}, Point{0, 0}});
  MultiSensorPointQuery q(BaseParams(2), &slot);
  q.Commit(0, 0.0);
  q.Commit(1, 0.0);
  EXPECT_DOUBLE_EQ(q.CurrentValue(), 60.0);
  EXPECT_EQ(q.RemainingReadings(), 0);
}

TEST(MultiSensorPointQueryTest, ExtraReadingBeyondKOnlyHelpsIfBetter) {
  SlotContext slot = MakeSlot({Point{0, 0}, Point{2.5, 0}, Point{1, 0}});
  MultiSensorPointQuery q(BaseParams(2), &slot);
  q.Commit(0, 0.0);  // theta 1.0
  q.Commit(1, 0.0);  // theta 0.5
  const double before = q.CurrentValue();
  // theta of sensor 2 = 0.8 > 0.5: replaces the weaker reading in top-k.
  const double marginal = q.MarginalValue(2);
  EXPECT_NEAR(marginal, 60.0 * (0.8 - 0.5) / 2.0, 1e-9);
  q.Commit(2, 0.0);
  EXPECT_GT(q.CurrentValue(), before);
  // A fourth reading weaker than the current top-2 adds nothing.
  EXPECT_DOUBLE_EQ(q.MarginalValue(1), 0.0);
}

TEST(MultiSensorPointQueryTest, BelowThresholdReadingsIgnored) {
  const SlotContext slot = MakeSlot({Point{4.5, 0}});  // theta 0.1 < 0.2
  MultiSensorPointQuery q(BaseParams(2), &slot);
  EXPECT_DOUBLE_EQ(q.MarginalValue(0), 0.0);
  q.Commit(0, 0.0);
  EXPECT_DOUBLE_EQ(q.CurrentValue(), 0.0);
  EXPECT_EQ(q.RemainingReadings(), 2);
}

TEST(MultiSensorPointQueryTest, MarginalsAreDiminishing) {
  // Submodularity spot check: marginal of the same sensor never grows as
  // the selection expands.
  Rng rng(3);
  std::vector<Point> positions;
  for (int i = 0; i < 6; ++i) {
    positions.push_back(Point{rng.Uniform(0, 4), rng.Uniform(0, 4)});
  }
  const SlotContext slot = MakeSlot(positions);
  MultiSensorPointQuery::Params params = BaseParams(3);
  params.location = Point{2, 2};
  MultiSensorPointQuery q(params, &slot);
  const double first = q.MarginalValue(5);
  q.Commit(0, 0.0);
  const double second = q.MarginalValue(5);
  q.Commit(1, 0.0);
  const double third = q.MarginalValue(5);
  EXPECT_GE(first + 1e-12, second);
  EXPECT_GE(second + 1e-12, third);
}

TEST(MultiSensorPointQueryTest, WorksWithGreedySelection) {
  const SlotContext slot = MakeSlot({Point{0, 0}, Point{1, 0}, Point{2, 0}});
  MultiSensorPointQuery q(BaseParams(2), &slot);
  std::vector<MultiQuery*> ptrs = {&q};
  const SelectionResult result = GreedySensorSelection(ptrs, slot);
  // Two readings are worth buying (30 and ~24 vs cost 10 each); a third
  // adds nothing.
  EXPECT_EQ(result.selected_sensors.size(), 2u);
  EXPECT_GT(result.Utility(), 0.0);
  EXPECT_GE(q.CurrentValue() + 1e-9, q.TotalPayment());
}

TEST(MultiSensorPointQueryTest, ResetClearsQualities) {
  const SlotContext slot = MakeSlot({Point{0, 0}});
  MultiSensorPointQuery q(BaseParams(2), &slot);
  q.Commit(0, 1.0);
  q.ResetSelection();
  EXPECT_TRUE(q.qualities().empty());
  EXPECT_DOUBLE_EQ(q.CurrentValue(), 0.0);
  EXPECT_EQ(q.RemainingReadings(), 2);
}

}  // namespace
}  // namespace psens
