#include "core/multi_sensor_point_query.h"

#include <algorithm>

namespace psens {

const std::vector<int>* MultiSensorPointQuery::CandidateSensors() const {
  if (!candidates_ready_) {
    SlotRowsInRange(*slot_, params_.location, slot_->dmax, &candidates_);
    candidates_ready_ = true;
    cand_theta_.resize(candidates_.size());
    for (size_t j = 0; j < candidates_.size(); ++j) {
      cand_theta_[j] = QualityFromColumns(candidates_[j]);
    }
  }
  return &candidates_;
}

double MultiSensorPointQuery::Quality(int sensor) const {
  const double theta = SlotQuality(slot_->sensors.Row(sensor),
                                   params_.location, slot_->dmax);
  return theta >= params_.theta_min ? theta : 0.0;
}

double MultiSensorPointQuery::QualityFromColumns(int sensor) const {
  const SlotSensorTable& sl = slot_->sensors;
  const size_t s = static_cast<size_t>(sensor);
  const double theta = ReadingQuality(
      sl.inaccuracy[s], sl.trust[s],
      Distance(Point{sl.x[s], sl.y[s]}, params_.location), slot_->dmax);
  return theta >= params_.theta_min ? theta : 0.0;
}

double MultiSensorPointQuery::ValueFromQualities(
    std::vector<double> qualities) const {
  if (params_.redundancy <= 0) return 0.0;
  std::sort(qualities.begin(), qualities.end(), std::greater<double>());
  const size_t k = static_cast<size_t>(params_.redundancy);
  double sum = 0.0;
  for (size_t i = 0; i < qualities.size() && i < k; ++i) sum += qualities[i];
  return params_.budget * sum / static_cast<double>(params_.redundancy);
}

double MultiSensorPointQuery::MarginalValue(int sensor) const {
  ++valuation_calls_;
  const double theta = Quality(sensor);
  if (theta <= 0.0) return 0.0;
  std::vector<double> with = qualities_;
  with.push_back(theta);
  return ValueFromQualities(std::move(with)) - current_value_;
}

void MultiSensorPointQuery::MarginalsAt(std::span<const int> keys,
                                        std::span<double> out) const {
  if (keys.empty()) return;
  // A key is a candidate position into the cached thetas, which hold
  // Quality's ReadingQuality on the same inputs — bit-identical.
  MultiSensorPointQuery::CandidateSensors();  // binds the cache once
  if (params_.redundancy <= 0) {
    // ValueFromQualities is identically zero; mirror MarginalValue's branch
    // structure exactly (theta <= 0 probes return a literal 0).
    for (size_t i = 0; i < keys.size(); ++i) {
      out[i] = cand_theta_[static_cast<size_t>(keys[i])] <= 0.0
                   ? 0.0
                   : -current_value_;
    }
    return;
  }
  batch_sorted_ = qualities_;
  std::sort(batch_sorted_.begin(), batch_sorted_.end(), std::greater<double>());
  const size_t k = static_cast<size_t>(params_.redundancy);
  for (size_t i = 0; i < keys.size(); ++i) {
    const double theta = cand_theta_[static_cast<size_t>(keys[i])];
    if (theta <= 0.0) {
      out[i] = 0.0;
      continue;
    }
    // Top-k sum of {sorted qualities} + theta, accumulated in descending
    // order — the exact value sequence (ties included: equal values are
    // interchangeable) MarginalValue sums after its fresh sort.
    double sum = 0.0;
    size_t taken = 0;
    size_t j = 0;
    bool theta_used = false;
    while (taken < k && (j < batch_sorted_.size() || !theta_used)) {
      if (!theta_used && (j >= batch_sorted_.size() || theta >= batch_sorted_[j])) {
        sum += theta;
        theta_used = true;
      } else {
        sum += batch_sorted_[j++];
      }
      ++taken;
    }
    out[i] = params_.budget * sum / static_cast<double>(params_.redundancy) -
             current_value_;
  }
}

void MultiSensorPointQuery::Commit(int sensor, double payment) {
  const double theta = Quality(sensor);
  if (theta > 0.0) {
    qualities_.push_back(theta);
    current_value_ = ValueFromQualities(qualities_);
  }
  selected_.push_back(sensor);
  total_payment_ += payment;
}

int MultiSensorPointQuery::RemainingReadings() const {
  const int have = static_cast<int>(qualities_.size());
  return std::max(0, params_.redundancy - have);
}

}  // namespace psens
