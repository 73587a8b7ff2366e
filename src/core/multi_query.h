#ifndef PSENS_CORE_MULTI_QUERY_H_
#define PSENS_CORE_MULTI_QUERY_H_

#include <memory>
#include <span>
#include <vector>

#include "core/point_query.h"
#include "core/slot.h"

namespace psens {

/// A query participating in joint sensor selection (Algorithm 1 and the
/// multi-sensor baseline). Valuations are black boxes supplied by the
/// application (Section 2); schedulers only probe marginal values and
/// commit selected sensors. Implementations keep incremental state so
/// marginal evaluation is cheap.
class MultiQuery {
 public:
  virtual ~MultiQuery() = default;

  virtual int id() const = 0;

  /// Marginal value delta-v_{q,s} = v_q(S_q + s) - v_q(S_q) of adding slot
  /// sensor `sensor` to the current selection. May be negative (valuations
  /// need not be monotone, e.g. Eq. 5).
  virtual double MarginalValue(int sensor) const = 0;

  /// Keyed batch kernel: out[i] = exactly the value MarginalValue would
  /// return, against the current selection, for the sensor that keys[i]
  /// addresses — *without* valuation-call accounting. A key is the
  /// sensor's position in this query's CandidateSensors() list. Keys thus
  /// index the query's own candidate-sized state, and the candidate plan
  /// (core/candidate_pruning.h) hands every pair its key. The round
  /// evaluator (core/batch_eval.h) is the only batch caller and counts
  /// each evaluated key through AddValuationCalls, so per-query
  /// ValuationCalls() totals match the counted scalar probes exactly
  /// (tests/batched_valuation_test.cc pins values and counts per type).
  ///
  /// Contract for overrides: no mutation of query state other than
  /// per-object scratch.
  ///
  /// The default resolves each key to its sensor and probes
  /// MarginalValue, cancelling the probes' accounting — correct and
  /// exactly equivalent, but not batched.
  virtual void MarginalsAt(std::span<const int> keys,
                           std::span<double> out) const;

  /// Merges externally tracked valuation-call counts into ValuationCalls():
  /// the batch evaluator counts keyed probes itself and merges them here.
  /// The default is a no-op for implementations that do not track calls.
  virtual void AddValuationCalls(int64_t count) const { (void)count; }

  /// Adds `sensor` to the selection, charging `payment` to the query.
  virtual void Commit(int sensor, double payment) = 0;

  /// v_q(S_q) for the current selection.
  virtual double CurrentValue() const = 0;

  /// The maximum attainable valuation (used for the "average quality of
  /// results" metric of Section 4.4: achieved value / max value).
  virtual double MaxValue() const = 0;

  /// Sum of payments charged so far.
  virtual double TotalPayment() const = 0;

  virtual const std::vector<int>& SelectedSensors() const = 0;

  /// Clears the selection (selection state only; not slot binding).
  virtual void ResetSelection() = 0;

  /// Number of valuation-function evaluations performed (for the
  /// complexity property 4 of Theorem 1).
  virtual int64_t ValuationCalls() const = 0;

  /// Slot-sensor indices (ascending) that can ever carry positive marginal
  /// value for this query; never null, on indexed and unindexed slots
  /// alike. Implementations must be conservative: a sensor outside the
  /// list must have MarginalValue <= 0 against *every* selection state.
  /// The engines value only listed sensors (core/candidate_pruning.h),
  /// and a key is a position in this list.
  virtual const std::vector<int>* CandidateSensors() const = 0;
};

/// Common bookkeeping for MultiQuery implementations.
class MultiQueryBase : public MultiQuery {
 public:
  explicit MultiQueryBase(int id) : id_(id) {}

  int id() const override { return id_; }
  double CurrentValue() const override { return current_value_; }
  double TotalPayment() const override { return total_payment_; }
  const std::vector<int>& SelectedSensors() const override { return selected_; }
  int64_t ValuationCalls() const override { return valuation_calls_; }

  /// Single merge point for the batch evaluator's deferred call
  /// accounting.
  void AddValuationCalls(int64_t count) const override {
    valuation_calls_ += count;
  }

  void ResetSelection() override {
    selected_.clear();
    current_value_ = 0.0;
    total_payment_ = 0.0;
  }

 protected:
  int id_;
  std::vector<int> selected_;
  double current_value_ = 0.0;
  double total_payment_ = 0.0;
  mutable int64_t valuation_calls_ = 0;
};

/// Single-sensor point query (Eq. 3) wrapped for joint selection: the set
/// valuation is v_q(S) = max_{s in S} v_q(s), so the marginal of a second,
/// better sensor is only its improvement.
class PointMultiQuery : public MultiQueryBase {
 public:
  PointMultiQuery(const PointQuery& query, const SlotContext* slot)
      : MultiQueryBase(query.id), query_(query), slot_(slot) {}

  const PointQuery& query() const { return query_; }

  double MarginalValue(int sensor) const override;
  /// Keyed sweep: a key is a candidate position, and a probe is one load
  /// of the candidate's cached Eq. 3 value (the valuation depends only on
  /// (query, sensor), never on selection state). The cache holds
  /// MarginalValue's valuation on the same inputs: bit-identical values.
  void MarginalsAt(std::span<const int> keys,
                   std::span<double> out) const override;
  void Commit(int sensor, double payment) override;
  double MaxValue() const override { return query_.budget; }

  /// Sensors within dmax of the queried location (Eq. 4 quality — and so
  /// Eq. 3 value — is exactly zero beyond it), from SlotRowsInRange.
  const std::vector<int>* CandidateSensors() const override;

  /// The slot sensor currently providing the best reading (-1 if none).
  int BestSensor() const { return best_sensor_; }
  /// Quality theta of the best committed reading.
  double BestQuality() const;

  void ResetSelection() override {
    MultiQueryBase::ResetSelection();
    best_sensor_ = -1;
  }

 private:
  PointQuery query_;
  const SlotContext* slot_;
  int best_sensor_ = -1;
  mutable std::vector<int> candidates_;
  mutable bool candidates_ready_ = false;
  /// Eq. 3 value per candidate (indexed by key, parallel to candidates_),
  /// computed once per slot binding: the valuation depends only on
  /// (query, sensor), never on selection state, so re-probes hit this
  /// cache. Filled with candidates_ by CandidateSensors, read-only after.
  mutable std::vector<double> cand_values_;
};

}  // namespace psens

#endif  // PSENS_CORE_MULTI_QUERY_H_
