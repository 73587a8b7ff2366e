#ifndef PSENS_CORE_MULTI_QUERY_H_
#define PSENS_CORE_MULTI_QUERY_H_

#include <functional>
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

  /// Batched valuation: out[i] = exactly the value MarginalValue(sensors[i])
  /// would return against the current selection, with the same
  /// valuation-call accounting folded into one AddValuationCalls merge.
  /// Values and ValuationCalls() totals are bit-identical to the scalar
  /// loop (tests/batched_valuation_test.cc pins this per query type).
  void MarginalValues(std::span<const int> sensors, std::span<double> out) const {
    MarginalValuesUncounted(sensors, out);
    AddValuationCalls(static_cast<int64_t>(sensors.size()));
  }

  /// Computation core of MarginalValues, *without* the accounting. The
  /// batched/parallel engines (core/batch_eval.h) call this from worker
  /// threads and merge per-thread call counts at batch end through
  /// AddValuationCalls, so ValuationCalls() is never mutated from workers.
  ///
  /// Contract for overrides: no mutation of query state other than
  /// per-object scratch. Engines shard work *by query* — two threads may
  /// probe different queries concurrently, but one query is only ever
  /// probed by one thread at a time, so per-object scratch needs no
  /// locking. ThreadSafeBatchValuation() advertises conformance.
  ///
  /// The default falls back to per-sensor MarginalValue probes (which
  /// count) and cancels their accounting — correct and exactly equivalent,
  /// but neither batched nor safe off the owning thread.
  virtual void MarginalValuesUncounted(std::span<const int> sensors,
                                       std::span<double> out) const;

  /// Merges externally tracked valuation-call counts into ValuationCalls().
  /// Engines use it to keep per-thread counters out of worker threads; the
  /// default is a no-op for implementations that do not track calls.
  virtual void AddValuationCalls(int64_t count) const { (void)count; }

  /// True when MarginalValuesUncounted honours the no-shared-mutation
  /// contract above, so the parallel selection path may probe this query
  /// from worker threads. Engines fall back to the bit-identical serial
  /// sweep when any participating query says no.
  virtual bool ThreadSafeBatchValuation() const { return false; }

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
  /// value for this query, or nullptr for "unknown — consider every
  /// sensor". Implementations must be conservative: a sensor outside the
  /// list must have MarginalValue <= 0 against *every* selection state.
  /// The greedy engines use this to skip hopeless valuations
  /// (core/candidate_pruning.h); pruned and dense runs select identically.
  virtual const std::vector<int>* CandidateSensors() const { return nullptr; }
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

  /// Single merge point for deferred (per-thread) call accounting. Only
  /// ever invoked from the coordinating thread at batch end, so the plain
  /// `mutable` field needs no synchronization.
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
  /// Tight sweep: one fused pass, no per-sensor virtual dispatch. With
  /// SlotContext::use_soa the pass streams the slot's columns; when the
  /// candidate value cache is warm (the pruned
  /// engines probe ascending subsequences of CandidateSensors, and Eq. 3
  /// is selection-independent) probes become cached-value lookups. All
  /// paths produce bit-identical values and accounting.
  void MarginalValuesUncounted(std::span<const int> sensors,
                               std::span<double> out) const override;
  bool ThreadSafeBatchValuation() const override { return true; }
  void Commit(int sensor, double payment) override;
  double MaxValue() const override { return query_.budget; }

  /// Sensors within dmax of the queried location (Eq. 4 quality — and so
  /// Eq. 3 value — is exactly zero beyond it), via the slot's spatial
  /// index; nullptr when the slot is unindexed.
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
  /// Eq. 3 value per candidate (parallel to candidates_), computed once
  /// per slot binding under SlotContext::use_soa: the valuation depends
  /// only on (query, sensor), never on selection state, so re-probes hit
  /// this cache. Filled on the coordinating thread by CandidateSensors
  /// (the pruning plan builds before any worker probes), read-only after.
  mutable std::vector<double> cand_values_;
  mutable bool cand_values_ready_ = false;
};

/// Arbitrary set-valuation query defined by a callback; used in tests and
/// available to applications with custom utility functions (the paper
/// treats valuations as black boxes).
class CallbackMultiQuery : public MultiQueryBase {
 public:
  using SetValuation = std::function<double(const std::vector<int>&)>;

  CallbackMultiQuery(int id, SetValuation valuation, double max_value)
      : MultiQueryBase(id), valuation_(std::move(valuation)), max_value_(max_value) {}

  double MarginalValue(int sensor) const override;
  /// Batched probe reusing one selection+candidate scratch vector instead
  /// of copying the selection per sensor. ThreadSafeBatchValuation stays
  /// false: the user-supplied callback's thread safety is unknown.
  void MarginalValuesUncounted(std::span<const int> sensors,
                               std::span<double> out) const override;
  void Commit(int sensor, double payment) override;
  double MaxValue() const override { return max_value_; }

 private:
  SetValuation valuation_;
  double max_value_;
  mutable std::vector<int> batch_with_;
};

}  // namespace psens

#endif  // PSENS_CORE_MULTI_QUERY_H_
