#ifndef PSENS_CORE_SENSOR_H_
#define PSENS_CORE_SENSOR_H_

#include <cstdint>
#include <vector>

#include "common/geometry.h"

namespace psens {

/// Energy cost models from Section 4.1: fixed, c_e(E) = C_s, and linear,
/// c_e(E) = C_s (1 + beta (1 - E)).
enum class EnergyCostModel {
  kFixed,
  kLinear,
};

/// Privacy sensitivity levels (Section 4.1), mapped to multipliers
/// {0, 0.25, 0.5, 0.75, 1}.
enum class PrivacySensitivity {
  kZero = 0,
  kLow,
  kModerate,
  kHigh,
  kVeryHigh,
};

/// Multiplier for a privacy sensitivity level.
double PrivacyLevelValue(PrivacySensitivity level);

/// Static characteristics of a participant's sensing device.
struct SensorProfile {
  /// Inherent inaccuracy gamma in [0, 1] (percentage of the value range).
  double inaccuracy = 0.0;
  /// Trustworthiness tau in [0, 1].
  double trust = 1.0;
  /// Fixed price component C_s.
  double base_price = 10.0;
  EnergyCostModel energy_model = EnergyCostModel::kFixed;
  /// Cost increment factor beta of the linear energy model.
  double energy_beta = 0.0;
  PrivacySensitivity privacy = PrivacySensitivity::kZero;
  /// Size w of the history of revealed report times.
  int privacy_window = 5;
  /// Maximum number of readings the sensor can provide over the
  /// simulation ("lifetime", Section 4.1).
  int lifetime = 50;
};

/// A sensor: static profile plus mutable state (energy, reporting history,
/// current position). The aggregator owns the sensors; mobility models
/// update positions once per slot.
class Sensor {
 public:
  Sensor() = default;
  Sensor(int id, const SensorProfile& profile)
      : id_(id), profile_(profile) {}

  int id() const { return id_; }
  const SensorProfile& profile() const { return profile_; }

  const Point& position() const { return position_; }
  bool available() const { return available_ && !WornOut(); }
  /// The raw presence flag as announced (ignores wear-out) — lets the
  /// streaming engine diff a mobility/churn update against current state.
  bool present() const { return available_; }

  /// Updates this slot's position/presence (from the mobility trace).
  void SetPosition(const Point& p, bool present) {
    position_ = p;
    available_ = present;
  }

  /// Re-announces the fixed price component C_s (price-jitter churn
  /// streams; flows into EnergyCost/PrivacyCost like the original price).
  void SetBasePrice(double base_price) { profile_.base_price = base_price; }

  /// Remaining energy E in [0, 1]: 1 - readings / lifetime.
  double RemainingEnergy() const;

  /// True once the number of readings reached the lifetime.
  bool WornOut() const { return readings_taken_ >= profile_.lifetime; }

  int readings_taken() const { return readings_taken_; }

  /// Energy cost component c_e(E) per the profile's model (Section 4.1).
  double EnergyCost() const;

  /// Privacy loss p_s(H, l) of Eq. (14): weighted average of the time
  /// distances between recent report times and `now`, with more weight on
  /// recent reports. In [0, ~1].
  double PrivacyLoss(int now) const;

  /// Privacy cost component c_p = PSL * p_s * C_s of Eq. (15).
  double PrivacyCost(int now) const;

  /// Announced total cost c_s = c_e + c_p of Eq. (8) at time slot `now`.
  double Cost(int now) const { return EnergyCost() + PrivacyCost(now); }

  /// Records that the sensor provided a measurement at slot `now`:
  /// consumes one reading and appends `now` to the history of revealed
  /// report times, which keeps only the last max(0, privacy_window).
  void RecordReading(int now);

  /// Revealed report times, oldest first: the last max(0, privacy_window)
  /// readings. Empty until the first reading, with no heap block.
  const std::vector<int>& report_history() const { return report_history_; }

 private:
  int id_ = -1;
  SensorProfile profile_;
  Point position_;
  bool available_ = false;
  int readings_taken_ = 0;
  std::vector<int> report_history_;
};

/// Quality of a reading from sensor `s` for queried location `lq`
/// (Eq. 4): (1 - gamma) (1 - d / dmax) tau when d <= dmax, else 0.
double ReadingQuality(const Sensor& s, const Point& lq, double dmax);

/// Same, from raw parameters (used where no Sensor object exists).
double ReadingQuality(double inaccuracy, double trust, double distance,
                      double dmax);

}  // namespace psens

#endif  // PSENS_CORE_SENSOR_H_
