#include "core/slot.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace psens {
namespace {

std::vector<Sensor> ThreeSensors() {
  std::vector<Sensor> sensors;
  SensorProfile profile;
  profile.base_price = 10.0;
  profile.lifetime = 5;
  for (int i = 0; i < 3; ++i) sensors.emplace_back(i, profile);
  sensors[0].SetPosition(Point{5, 5}, true);    // inside
  sensors[1].SetPosition(Point{50, 50}, true);  // outside region
  sensors[2].SetPosition(Point{6, 6}, false);   // absent
  return sensors;
}

TEST(BuildSlotContextTest, FiltersByRegionAndAvailability) {
  const std::vector<Sensor> sensors = ThreeSensors();
  const SlotContext slot =
      BuildSlotContext(sensors, Rect{0, 0, 10, 10}, /*time=*/3, /*dmax=*/5.0);
  ASSERT_EQ(slot.sensors.size(), 1u);
  EXPECT_EQ(slot.sensors.sensor_id[0], 0);
  EXPECT_EQ(slot.time, 3);
  EXPECT_DOUBLE_EQ(slot.dmax, 5.0);
}

TEST(BuildSlotContextTest, AnnouncedCostComesFromSensorModel) {
  std::vector<Sensor> sensors = ThreeSensors();
  // Burn readings so the linear model would matter; with the fixed model
  // the announced price stays at base.
  sensors[0].RecordReading(0);
  const SlotContext slot =
      BuildSlotContext(sensors, Rect{0, 0, 10, 10}, 1, 5.0);
  ASSERT_EQ(slot.sensors.size(), 1u);
  EXPECT_DOUBLE_EQ(slot.sensors.cost[0], sensors[0].Cost(1));
}

TEST(BuildSlotContextTest, WornOutSensorExcluded) {
  std::vector<Sensor> sensors = ThreeSensors();
  for (int t = 0; t < 5; ++t) sensors[0].RecordReading(t);  // lifetime 5
  const SlotContext slot =
      BuildSlotContext(sensors, Rect{0, 0, 10, 10}, 6, 5.0);
  EXPECT_EQ(slot.sensors.size(), 0u);
}

TEST(BuildSlotContextTest, RowsAscendBySensorId) {
  std::vector<Sensor> sensors = ThreeSensors();
  sensors[1].SetPosition(Point{7, 7}, true);  // now also inside
  const SlotContext slot =
      BuildSlotContext(sensors, Rect{0, 0, 10, 10}, 0, 5.0);
  ASSERT_EQ(slot.sensors.size(), 2u);
  EXPECT_EQ(slot.sensors.sensor_id, (std::vector<int>{0, 1}));
  EXPECT_EQ(slot.sensors.x, (std::vector<double>{5, 7}));
  EXPECT_EQ(slot.sensors.y, (std::vector<double>{5, 7}));
}

TEST(SlotSensorTableTest, AppendThenRowRoundTripsEveryField) {
  SlotSensorTable table;
  const SlotSensor a{7, Point{1.5, -2.0}, 3.25, 0.125, 0.75};
  const SlotSensor b{9, Point{4.0, 8.5}, 0.0, 0.5, 1.0};
  table.Append(a);
  table.Append(b);
  ASSERT_EQ(table.size(), 2u);
  for (const auto& [row, want] : {std::pair{0, a}, std::pair{1, b}}) {
    const SlotSensor got = table.Row(static_cast<size_t>(row));
    EXPECT_EQ(got.sensor_id, want.sensor_id) << "row " << row;
    EXPECT_EQ(got.location, want.location) << "row " << row;
    EXPECT_EQ(got.cost, want.cost) << "row " << row;
    EXPECT_EQ(got.inaccuracy, want.inaccuracy) << "row " << row;
    EXPECT_EQ(got.trust, want.trust) << "row " << row;
  }
  // Shrinking keeps the surviving rows.
  table.Resize(1);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Row(0).sensor_id, 7);
  EXPECT_EQ(table.trust.size(), 1u);
}

TEST(SlotQualityTest, MatchesReadingQuality) {
  SlotSensor s;
  s.location = Point{3, 4};
  s.inaccuracy = 0.1;
  s.trust = 0.8;
  // distance 5 from origin, dmax 10.
  EXPECT_DOUBLE_EQ(SlotQuality(s, Point{0, 0}, 10.0), 0.9 * 0.5 * 0.8);
  EXPECT_DOUBLE_EQ(SlotQuality(s, Point{0, 0}, 4.0), 0.0);
}

}  // namespace
}  // namespace psens
