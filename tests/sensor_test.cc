#include "core/sensor.h"

#include <gtest/gtest.h>

#include <vector>

namespace psens {
namespace {

SensorProfile BaseProfile() {
  SensorProfile p;
  p.base_price = 10.0;
  p.lifetime = 10;
  p.privacy_window = 5;
  return p;
}

TEST(PrivacyLevelTest, MapsToPaperValues) {
  EXPECT_DOUBLE_EQ(PrivacyLevelValue(PrivacySensitivity::kZero), 0.0);
  EXPECT_DOUBLE_EQ(PrivacyLevelValue(PrivacySensitivity::kLow), 0.25);
  EXPECT_DOUBLE_EQ(PrivacyLevelValue(PrivacySensitivity::kModerate), 0.5);
  EXPECT_DOUBLE_EQ(PrivacyLevelValue(PrivacySensitivity::kHigh), 0.75);
  EXPECT_DOUBLE_EQ(PrivacyLevelValue(PrivacySensitivity::kVeryHigh), 1.0);
}

TEST(SensorTest, FixedEnergyCostIsBasePrice) {
  Sensor s(0, BaseProfile());
  EXPECT_DOUBLE_EQ(s.EnergyCost(), 10.0);
  s.RecordReading(0);
  EXPECT_DOUBLE_EQ(s.EnergyCost(), 10.0);  // fixed model ignores energy
}

TEST(SensorTest, LinearEnergyCostGrowsWithConsumption) {
  SensorProfile p = BaseProfile();
  p.energy_model = EnergyCostModel::kLinear;
  p.energy_beta = 2.0;
  Sensor s(0, p);
  EXPECT_DOUBLE_EQ(s.EnergyCost(), 10.0);  // full energy
  s.RecordReading(0);                      // E = 0.9
  EXPECT_NEAR(s.EnergyCost(), 10.0 * (1.0 + 2.0 * 0.1), 1e-12);
  for (int t = 1; t < 10; ++t) s.RecordReading(t);  // E = 0
  EXPECT_NEAR(s.EnergyCost(), 30.0, 1e-12);
}

TEST(SensorTest, RemainingEnergyTracksLifetime) {
  Sensor s(0, BaseProfile());
  EXPECT_DOUBLE_EQ(s.RemainingEnergy(), 1.0);
  for (int t = 0; t < 5; ++t) s.RecordReading(t);
  EXPECT_DOUBLE_EQ(s.RemainingEnergy(), 0.5);
}

TEST(SensorTest, WearsOutAfterLifetimeReadings) {
  SensorProfile p = BaseProfile();
  p.lifetime = 3;
  Sensor s(0, p);
  s.SetPosition(Point{0, 0}, true);
  EXPECT_TRUE(s.available());
  for (int t = 0; t < 3; ++t) s.RecordReading(t);
  EXPECT_TRUE(s.WornOut());
  EXPECT_FALSE(s.available());
}

TEST(SensorTest, AvailabilityRequiresPresence) {
  Sensor s(0, BaseProfile());
  EXPECT_FALSE(s.available());  // never placed
  s.SetPosition(Point{1, 1}, true);
  EXPECT_TRUE(s.available());
  s.SetPosition(Point{1, 1}, false);
  EXPECT_FALSE(s.available());
}

TEST(SensorTest, PrivacyLossWithEmptyHistoryIsBaseline) {
  Sensor s(0, BaseProfile());
  // Eq. (14) with empty H: w / (w(w+1)/2) = 2/(w+1) = 1/3 for w = 5.
  EXPECT_NEAR(s.PrivacyLoss(10), 2.0 / 6.0, 1e-12);
}

TEST(SensorTest, PrivacyLossHighestRightAfterReporting) {
  Sensor s(0, BaseProfile());
  s.RecordReading(10);
  const double just_after = s.PrivacyLoss(10);   // age 0: weight w
  const double later = s.PrivacyLoss(14);        // age 4: weight 1
  EXPECT_GT(just_after, later);
  // Eq. (14) exactly: (w + (w - 0)) / (w(w+1)/2) with w=5 -> 10/15.
  EXPECT_NEAR(just_after, 10.0 / 15.0, 1e-12);
  EXPECT_NEAR(later, 6.0 / 15.0, 1e-12);
}

TEST(SensorTest, PrivacyLossIgnoresReportsOutsideWindow) {
  Sensor s(0, BaseProfile());
  s.RecordReading(0);
  EXPECT_NEAR(s.PrivacyLoss(100), s.PrivacyLoss(1000), 1e-12);
}

TEST(SensorTest, ConsecutiveReportingCostsMoreThanSpread) {
  SensorProfile p = BaseProfile();
  Sensor consecutive(0, p), spread(1, p);
  consecutive.RecordReading(8);
  consecutive.RecordReading(9);
  spread.RecordReading(2);
  spread.RecordReading(9);
  // Reporting in consecutive slots reveals the trajectory: higher loss.
  EXPECT_GT(consecutive.PrivacyLoss(10), spread.PrivacyLoss(10));
}

TEST(SensorTest, PrivacyCostScalesWithSensitivity) {
  SensorProfile zero = BaseProfile();
  SensorProfile high = BaseProfile();
  high.privacy = PrivacySensitivity::kVeryHigh;
  Sensor a(0, zero), b(1, high);
  a.RecordReading(5);
  b.RecordReading(5);
  EXPECT_DOUBLE_EQ(a.PrivacyCost(6), 0.0);
  EXPECT_GT(b.PrivacyCost(6), 0.0);
  // Eq. (15): PSL * p_s * C_s.
  EXPECT_NEAR(b.PrivacyCost(6), 1.0 * b.PrivacyLoss(6) * 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(b.Cost(6), b.EnergyCost() + b.PrivacyCost(6));
}

TEST(SensorTest, HistoryBoundedByPrivacyWindow) {
  Sensor s(0, BaseProfile());
  for (int t = 0; t < 20; ++t) s.RecordReading(t);
  EXPECT_LE(s.report_history().size(), 5u);
  EXPECT_EQ(s.report_history().back(), 19);
}

TEST(SensorTest, HistoryKeepsTheLastWindowTimesInOrder) {
  for (int window : {1, 3, 5}) {
    SensorProfile profile = BaseProfile();
    profile.privacy_window = window;
    profile.lifetime = 1000;
    Sensor s(0, profile);
    EXPECT_TRUE(s.report_history().empty());
    std::vector<int> times;
    for (int k = 0; k < 3 * window; ++k) times.push_back(2 * k + 1);
    for (int t : times) s.RecordReading(t);
    const std::vector<int> last(times.end() - window, times.end());
    EXPECT_EQ(s.report_history(), last) << "window " << window;
    EXPECT_EQ(s.readings_taken(), 3 * window);
  }
}

TEST(SensorTest, NonPositiveWindowKeepsNoHistory) {
  for (int window : {0, -2}) {
    SensorProfile profile = BaseProfile();
    profile.privacy_window = window;
    profile.privacy = PrivacySensitivity::kVeryHigh;
    Sensor s(0, profile);
    for (int t = 0; t < 4; ++t) s.RecordReading(t);
    EXPECT_TRUE(s.report_history().empty()) << "window " << window;
    EXPECT_EQ(s.readings_taken(), 4);
    EXPECT_EQ(s.PrivacyLoss(4), 0.0);
  }
}

TEST(SensorTest, PrivacyLossMatchesEquation14ByHand) {
  SensorProfile profile = BaseProfile();
  profile.privacy_window = 4;
  profile.lifetime = 100;
  Sensor s(0, profile);
  // Six readings: only the last four (5, 7, 8, 9) stay in the history.
  for (int t : {1, 2, 5, 7, 8, 9}) s.RecordReading(t);
  ASSERT_EQ(s.report_history(), (std::vector<int>{5, 7, 8, 9}));
  // At now = 11 the ages are 6, 4, 3, 2; ages >= w add nothing, so
  // (w + (4-3) + (4-2)) / (w (w + 1) / 2) = (4 + 1 + 2) / 10.
  EXPECT_EQ(s.PrivacyLoss(11), (4.0 + 1.0 + 2.0) / 10.0);
}

TEST(ReadingQualityTest, Equation4Cases) {
  // theta = (1 - gamma)(1 - d/dmax) tau.
  EXPECT_DOUBLE_EQ(ReadingQuality(0.0, 1.0, 0.0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(ReadingQuality(0.2, 1.0, 0.0, 5.0), 0.8);
  EXPECT_DOUBLE_EQ(ReadingQuality(0.0, 0.5, 2.5, 5.0), 0.25);
  EXPECT_DOUBLE_EQ(ReadingQuality(0.0, 1.0, 5.0, 5.0), 0.0);   // at dmax
  EXPECT_DOUBLE_EQ(ReadingQuality(0.0, 1.0, 5.01, 5.0), 0.0);  // beyond
  EXPECT_DOUBLE_EQ(ReadingQuality(0.0, 1.0, 1.0, 0.0), 0.0);   // degenerate
}

TEST(ReadingQualityTest, SensorOverloadUsesPositionAndProfile) {
  SensorProfile p = BaseProfile();
  p.inaccuracy = 0.1;
  p.trust = 0.9;
  Sensor s(0, p);
  s.SetPosition(Point{3, 4}, true);  // distance 5 from origin
  EXPECT_DOUBLE_EQ(ReadingQuality(s, Point{0, 0}, 10.0), 0.9 * 0.5 * 0.9);
}

}  // namespace
}  // namespace psens
