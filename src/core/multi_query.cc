#include "core/multi_query.h"

#include <algorithm>

#include "index/spatial_index.h"

namespace psens {

void MultiQuery::MarginalValuesUncounted(std::span<const int> sensors,
                                         std::span<double> out) const {
  // Reference fallback: per-sensor scalar probes. MarginalValue performs
  // its own accounting, which this entry point must not — cancel it so the
  // fallback and the tight overrides are observationally identical.
  for (size_t i = 0; i < sensors.size(); ++i) {
    out[i] = MarginalValue(sensors[i]);
  }
  AddValuationCalls(-static_cast<int64_t>(sensors.size()));
}

double PointMultiQuery::MarginalValue(int sensor) const {
  ++valuation_calls_;
  const double v =
      PointQueryValue(query_, slot_->sensors.Row(sensor), slot_->dmax);
  return v - current_value_;  // current_value_ is the best committed value
}

void PointMultiQuery::MarginalValuesUncounted(std::span<const int> sensors,
                                              std::span<double> out) const {
  const double dmax = slot_->dmax;
  const double current = current_value_;
  const SlotSensorTable& sl = slot_->sensors;
  if (slot_->use_soa) {
    if (cand_values_ready_) {
      // The pruned engines probe ascending subsequences of the candidate
      // list; a two-pointer walk resolves each probe to its cached Eq. 3
      // value (bit-identical: computed once by the same kernel). Probes
      // outside the list (dense sweeps, tests) fall through to the
      // kernel inline.
      size_t j = 0;
      const size_t m = candidates_.size();
      for (size_t i = 0; i < sensors.size(); ++i) {
        const int s = sensors[i];
        while (j < m && candidates_[j] < s) ++j;
        if (j < m && candidates_[j] == s) {
          out[i] = cand_values_[j] - current;
          ++j;
        } else {
          out[i] = PointQueryValueAt(query_, sl.x[s], sl.y[s],
                                     sl.inaccuracy[s], sl.trust[s], dmax) -
                   current;
        }
      }
      return;
    }
    // Column kernel: contiguous 8-byte loads instead of whole rows.
    for (size_t i = 0; i < sensors.size(); ++i) {
      const int s = sensors[i];
      out[i] = PointQueryValueAt(query_, sl.x[s], sl.y[s], sl.inaccuracy[s],
                                 sl.trust[s], dmax) -
               current;
    }
    return;
  }
  for (size_t i = 0; i < sensors.size(); ++i) {
    out[i] = PointQueryValue(query_, sl.Row(sensors[i]), dmax) - current;
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

void CallbackMultiQuery::MarginalValuesUncounted(std::span<const int> sensors,
                                                 std::span<double> out) const {
  if (sensors.empty()) return;
  batch_with_ = selected_;
  batch_with_.push_back(0);
  for (size_t i = 0; i < sensors.size(); ++i) {
    batch_with_.back() = sensors[i];
    out[i] = valuation_(batch_with_) - current_value_;
  }
}

void CallbackMultiQuery::Commit(int sensor, double payment) {
  selected_.push_back(sensor);
  current_value_ = valuation_(selected_);
  total_payment_ += payment;
}

}  // namespace psens
