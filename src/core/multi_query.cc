#include "core/multi_query.h"

namespace psens {

void MultiQuery::MarginalsAt(std::span<const int> keys,
                             std::span<double> out) const {
  // Reference fallback: per-sensor scalar probes. MarginalValue performs
  // its own accounting, which this entry point must not — cancel it so the
  // fallback and the tight overrides are observationally identical.
  const std::vector<int>& list = *CandidateSensors();
  const int64_t calls_before = ValuationCalls();
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i] = MarginalValue(list[static_cast<size_t>(keys[i])]);
  }
  AddValuationCalls(calls_before - ValuationCalls());
}

double PointMultiQuery::MarginalValue(int sensor) const {
  ++valuation_calls_;
  const double v =
      PointQueryValue(query_, slot_->sensors.Row(sensor), slot_->dmax);
  return v - current_value_;  // current_value_ is the best committed value
}

void PointMultiQuery::MarginalsAt(std::span<const int> keys,
                                  std::span<double> out) const {
  PointMultiQuery::CandidateSensors();  // binds the value cache once
  const double current = current_value_;
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i] = cand_values_[static_cast<size_t>(keys[i])] - current;
  }
}

void PointMultiQuery::Commit(int sensor, double payment) {
  const double v =
      PointQueryValue(query_, slot_->sensors.Row(sensor), slot_->dmax);
  if (v > current_value_) {
    current_value_ = v;
    best_sensor_ = sensor;
  }
  selected_.push_back(sensor);
  total_payment_ += payment;
}

const std::vector<int>* PointMultiQuery::CandidateSensors() const {
  if (!candidates_ready_) {
    SlotRowsInRange(*slot_, query_.location, slot_->dmax, &candidates_);
    candidates_ready_ = true;
    const SlotSensorTable& sl = slot_->sensors;
    cand_values_.resize(candidates_.size());
    for (size_t j = 0; j < candidates_.size(); ++j) {
      const int s = candidates_[j];
      cand_values_[j] = PointQueryValueAt(query_, sl.x[s], sl.y[s],
                                          sl.inaccuracy[s], sl.trust[s],
                                          slot_->dmax);
    }
  }
  return &candidates_;
}

double PointMultiQuery::BestQuality() const {
  if (best_sensor_ < 0) return 0.0;
  return SlotQuality(slot_->sensors.Row(best_sensor_), query_.location,
                     slot_->dmax);
}

}  // namespace psens
