#include "core/sensor.h"

#include <algorithm>

namespace psens {

double PrivacyLevelValue(PrivacySensitivity level) {
  switch (level) {
    case PrivacySensitivity::kZero: return 0.0;
    case PrivacySensitivity::kLow: return 0.25;
    case PrivacySensitivity::kModerate: return 0.5;
    case PrivacySensitivity::kHigh: return 0.75;
    case PrivacySensitivity::kVeryHigh: return 1.0;
  }
  return 0.0;
}

double Sensor::RemainingEnergy() const {
  if (profile_.lifetime <= 0) return 0.0;
  const double used =
      static_cast<double>(readings_taken_) / static_cast<double>(profile_.lifetime);
  return std::max(0.0, 1.0 - used);
}

double Sensor::EnergyCost() const {
  switch (profile_.energy_model) {
    case EnergyCostModel::kFixed:
      return profile_.base_price;
    case EnergyCostModel::kLinear:
      return profile_.base_price *
             (1.0 + profile_.energy_beta * (1.0 - RemainingEnergy()));
  }
  return profile_.base_price;
}

double Sensor::PrivacyLoss(int now) const {
  const int w = profile_.privacy_window;
  if (w <= 0) return 0.0;
  // Eq. (14): (w + sum_{t' in H} (w - (t - t'))) / (w (w + 1) / 2).
  // Report times older than the window contribute zero weight.
  double weighted = static_cast<double>(w);
  for (int t_prime : report_history_) {
    const int age = now - t_prime;
    if (age >= 0 && age < w) weighted += static_cast<double>(w - age);
  }
  const double normalizer = static_cast<double>(w) * (w + 1) / 2.0;
  return weighted / normalizer;
}

double Sensor::PrivacyCost(int now) const {
  const double psl = PrivacyLevelValue(profile_.privacy);
  if (psl == 0.0) return 0.0;
  return psl * PrivacyLoss(now) * profile_.base_price;
}

void Sensor::RecordReading(int now) {
  ++readings_taken_;
  if (profile_.privacy_window <= 0) return;
  report_history_.push_back(now);
  const size_t window = static_cast<size_t>(profile_.privacy_window);
  if (report_history_.size() > window) {
    report_history_.erase(report_history_.begin(),
                          report_history_.end() - static_cast<long>(window));
  }
}

double ReadingQuality(double inaccuracy, double trust, double distance,
                      double dmax) {
  if (distance > dmax || dmax <= 0.0) return 0.0;
  return (1.0 - inaccuracy) * (1.0 - distance / dmax) * trust;
}

double ReadingQuality(const Sensor& s, const Point& lq, double dmax) {
  return ReadingQuality(s.profile().inaccuracy, s.profile().trust,
                        Distance(s.position(), lq), dmax);
}

}  // namespace psens
