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

  /// Keyed batch kernel: out[i] = exactly the value MarginalValue would
  /// return, against the current selection, for the sensor that keys[i]
  /// addresses — *without* valuation-call accounting. A key is the
  /// sensor's position in this query's CandidateSensors() list, or the
  /// slot row itself when the query exposes no list. Keys thus index the
  /// query's own candidate-sized state, and the candidate plan
  /// (core/candidate_pruning.h) hands every pair its key. The round
  /// evaluator (core/batch_eval.h) is the only batch caller and counts
  /// each evaluated key through AddValuationCalls, so per-query
  /// ValuationCalls() totals match the counted scalar probes exactly
  /// (tests/batched_valuation_test.cc pins values and counts per type).
  ///
  /// Contract for overrides: no mutation of query state other than
  /// per-object scratch. Engines shard work *by query* — two threads may
  /// probe different queries concurrently, but one query is only ever
  /// probed by one thread at a time, so per-object scratch needs no
  /// locking. ThreadSafeBatchValuation() advertises conformance.
  ///
  /// The default resolves each key to its sensor and probes
  /// MarginalValue, cancelling the probes' accounting — correct and
  /// exactly equivalent, but neither batched nor safe off the owning
  /// thread.
  virtual void MarginalsAt(std::span<const int> keys,
                           std::span<double> out) const;

  /// Merges externally tracked valuation-call counts into ValuationCalls().
  /// Engines use it to keep per-thread counters out of worker threads; the
  /// default is a no-op for implementations that do not track calls.
  virtual void AddValuationCalls(int64_t count) const { (void)count; }

  /// True when MarginalsAt honours the no-shared-mutation contract above,
  /// so the parallel selection path may probe this query from worker
  /// threads. Engines fall back to the bit-identical serial sweep when any
  /// participating query says no.
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
  /// Keyed sweep: on an indexed slot a key is a candidate position, and
  /// under SlotContext::use_soa a probe is one load of the candidate's
  /// cached Eq. 3 value (the valuation depends only on (query, sensor),
  /// never on selection state). Unindexed slots key by slot row and
  /// compute from the slot's columns. Every path computes the same
  /// valuation on the same inputs: bit-identical values.
  void MarginalsAt(std::span<const int> keys,
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
  /// Eq. 3 value per candidate (indexed by key, parallel to candidates_),
  /// computed once per slot binding under SlotContext::use_soa: the
  /// valuation depends only on (query, sensor), never on selection state,
  /// so re-probes hit this cache. Filled on the coordinating thread by
  /// CandidateSensors (the pruning plan builds before any worker probes),
  /// read-only after.
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
  /// Batched probe (keys are slot rows: the query exposes no candidate
  /// list) reusing one selection+candidate scratch vector instead of
  /// copying the selection per sensor. ThreadSafeBatchValuation stays
  /// false: the user-supplied callback's thread safety is unknown.
  void MarginalsAt(std::span<const int> keys,
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
