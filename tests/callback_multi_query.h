#ifndef PSENS_TESTS_CALLBACK_MULTI_QUERY_H_
#define PSENS_TESTS_CALLBACK_MULTI_QUERY_H_

#include <functional>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/multi_query.h"

namespace psens {

/// Arbitrary set-valuation query defined by a callback: the paper treats
/// valuations as black boxes, so tests drive the engines with valuations
/// no concrete query type has (non-submodular, non-monotone). A black box
/// rules nothing out, so its candidate list is every one of the slot's
/// `num_sensors` rows, and a key is the row itself.
class CallbackMultiQuery : public MultiQueryBase {
 public:
  using SetValuation = std::function<double(const std::vector<int>&)>;

  CallbackMultiQuery(int id, SetValuation valuation, double max_value,
                     int num_sensors)
      : MultiQueryBase(id),
        valuation_(std::move(valuation)),
        max_value_(max_value),
        rows_(static_cast<size_t>(num_sensors)) {
    std::iota(rows_.begin(), rows_.end(), 0);
  }

  double MarginalValue(int sensor) const override {
    ++valuation_calls_;
    std::vector<int> with = selected_;
    with.push_back(sensor);
    return valuation_(with) - current_value_;
  }

  /// Batched probe reusing one selection+candidate scratch vector instead
  /// of copying the selection per sensor.
  void MarginalsAt(std::span<const int> keys,
                   std::span<double> out) const override {
    if (keys.empty()) return;
    batch_with_ = selected_;
    batch_with_.push_back(0);
    for (size_t i = 0; i < keys.size(); ++i) {
      batch_with_.back() = keys[i];
      out[i] = valuation_(batch_with_) - current_value_;
    }
  }

  void Commit(int sensor, double payment) override {
    selected_.push_back(sensor);
    current_value_ = valuation_(selected_);
    total_payment_ += payment;
  }

  double MaxValue() const override { return max_value_; }
  const std::vector<int>* CandidateSensors() const override { return &rows_; }

 private:
  SetValuation valuation_;
  double max_value_;
  std::vector<int> rows_;
  mutable std::vector<int> batch_with_;
};

}  // namespace psens

#endif  // PSENS_TESTS_CALLBACK_MULTI_QUERY_H_
