#include "core/multi_query.h"

#include <algorithm>

#include "index/spatial_index.h"

namespace psens {

void MultiQuery::MarginalsAt(std::span<const int> keys,
                             std::span<double> out) const {
  // Reference fallback: per-sensor scalar probes. MarginalValue performs
  // its own accounting, which this entry point must not — cancel it so the
  // fallback and the tight overrides are observationally identical.
  const std::vector<int>* list = CandidateSensors();
  const int64_t calls_before = ValuationCalls();
  for (size_t i = 0; i < keys.size(); ++i) {
    const int key = keys[i];
    out[i] = MarginalValue(list != nullptr ? (*list)[static_cast<size_t>(key)]
                                           : key);
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
  const double dmax = slot_->dmax;
  const double current = current_value_;
  const SlotSensorTable& sl = slot_->sensors;
  if (PointMultiQuery::CandidateSensors() != nullptr) {
    // Keys are candidate positions.
    if (cand_values_ready_) {
      for (size_t i = 0; i < keys.size(); ++i) {
        out[i] = cand_values_[static_cast<size_t>(keys[i])] - current;
      }
      return;
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      const int s = candidates_[static_cast<size_t>(keys[i])];
      out[i] = PointQueryValue(query_, sl.Row(s), dmax) - current;
    }
    return;
  }
  // Unindexed: keys are slot rows.
  if (slot_->use_soa) {
    // Column kernel: contiguous 8-byte loads instead of whole rows.
    for (size_t i = 0; i < keys.size(); ++i) {
      const int s = keys[i];
      out[i] = PointQueryValueAt(query_, sl.x[s], sl.y[s], sl.inaccuracy[s],
                                 sl.trust[s], dmax) -
               current;
    }
    return;
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i] = PointQueryValue(query_, sl.Row(keys[i]), dmax) - current;
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
  if (slot_->index == nullptr) return nullptr;
  if (!candidates_ready_) {
    slot_->index->RangeQuery(query_.location, slot_->dmax, &candidates_);
    candidates_ready_ = true;
    if (slot_->use_soa) {
      const SlotSensorTable& sl = slot_->sensors;
      cand_values_.resize(candidates_.size());
      for (size_t j = 0; j < candidates_.size(); ++j) {
        const int s = candidates_[j];
        cand_values_[j] = PointQueryValueAt(query_, sl.x[s], sl.y[s],
                                            sl.inaccuracy[s], sl.trust[s],
                                            slot_->dmax);
      }
      cand_values_ready_ = true;
    }
  }
  return &candidates_;
}

double PointMultiQuery::BestQuality() const {
  if (best_sensor_ < 0) return 0.0;
  return SlotQuality(slot_->sensors.Row(best_sensor_), query_.location,
                     slot_->dmax);
}

double CallbackMultiQuery::MarginalValue(int sensor) const {
  ++valuation_calls_;
  std::vector<int> with = selected_;
  with.push_back(sensor);
  return valuation_(with) - current_value_;
}

void CallbackMultiQuery::MarginalsAt(std::span<const int> keys,
                                     std::span<double> out) const {
  if (keys.empty()) return;
  batch_with_ = selected_;
  batch_with_.push_back(0);
  for (size_t i = 0; i < keys.size(); ++i) {
    batch_with_.back() = keys[i];
    out[i] = valuation_(batch_with_) - current_value_;
  }
}

void CallbackMultiQuery::Commit(int sensor, double payment) {
  selected_.push_back(sensor);
  current_value_ = valuation_(selected_);
  total_payment_ += payment;
}

}  // namespace psens
