#ifndef PSENS_CORE_GREEDY_H_
#define PSENS_CORE_GREEDY_H_

#include <vector>

#include "core/multi_query.h"
#include "core/slot.h"

namespace psens {

/// Outcome of joint multi-query sensor selection. Per-query values and
/// payments live on the MultiQuery objects themselves (they are mutated by
/// the run); this struct aggregates the slot-level accounting.
struct SelectionResult {
  /// Selected slot-sensor indices (cost paid once per sensor).
  std::vector<int> selected_sensors;
  double total_value = 0.0;
  double total_cost = 0.0;
  /// Total valuation-function calls made during the run (Theorem 1
  /// property 4 bounds this by O(|Q| |S|^2) for Algorithm 1).
  int64_t valuation_calls = 0;

  double Utility() const { return total_value - total_cost; }
};

/// Which engine serves the Algorithm 1 selection rule.
enum class GreedyEngine {
  /// CELF-style lazy evaluation (src/core/lazy_greedy.h): a frontier of
  /// cached net gains where only the front is re-evaluated. Selects
  /// the identical sensor sequence as EagerGreedySensorSelection whenever
  /// the valuations are submodular, with far fewer valuation calls. The
  /// default.
  kLazy,
  /// Sieve streaming (src/core/sieve_streaming.h): threshold-bucketed
  /// single-pass selection. Deterministic; the bucket state can also be
  /// carried across slots by SieveStreamingScheduler so churn deltas are
  /// absorbed without re-streaming the whole population.
  kSieve,
};

/// Algorithm 1 ("Greedy Sensor Selection"): iteratively pick the sensor a
/// maximizing sum_{q: delta_v > 0} delta_v_{q,a} - c_a; stop when no sensor
/// has positive net benefit. Each selected sensor's cost is split among
/// the benefiting queries proportionally to their marginal values
/// (pi_{q,a} = delta_v_{q,a} c_a / sum delta_v, line 10), which yields
/// Theorem 1's guarantees: positive total utility and non-negative
/// individual utility.
///
/// `cost_scale[s]`, when provided, multiplies sensor s's cost during
/// selection (used by Algorithm 3's sharing weights, Eq. 18, and by
/// Algorithm 5's payment adjustment); the *paid* cost is still the true
/// slot cost. GreedySensorSelection serves it with the lazy CELF engine
/// (LazyGreedySensorSelection); only the serving engine
/// (AcquisitionEngine::Select) chooses between lazy and the sieve.
SelectionResult GreedySensorSelection(const std::vector<MultiQuery*>& queries,
                                      const SlotContext& slot,
                                      const std::vector<double>* cost_scale = nullptr);

/// The paper's Algorithm 1 as written: every round rescans every
/// remaining sensor. It is the reference the serving engines are tested
/// and benchmarked against, not a serving engine: lazy selects the same
/// sequence on submodular valuations, and fig13 reports the sieve's
/// utility and speed against it. The rescan covers only sensors some
/// query lists as a candidate, and each sensor's net sums only over its
/// interested queries — selections and payments are bit-identical to a
/// scan of every sensor against every query (see
/// core/candidate_pruning.h).
SelectionResult EagerGreedySensorSelection(
    const std::vector<MultiQuery*>& queries, const SlotContext& slot,
    const std::vector<double>* cost_scale = nullptr);

struct CandidatePlan;

/// Sum of ValuationCalls() across `queries` — the engines' shared
/// before/after bookkeeping for SelectionResult::valuation_calls.
int64_t TotalValuationCalls(const std::vector<MultiQuery*>& queries);

/// Algorithm 1 line 10: commits `sensor` to every benefiting query,
/// splitting its *true* announced cost proportionally to the positive
/// marginal values (pi_{q,a} = delta_v * c_a / sum delta_v). Returns the
/// cost charged. Every selection function — eager, lazy, sieve — funnels
/// its commits through this one implementation, so the Theorem 1 payment
/// properties and cross-engine payment equivalence rest on a single body
/// of code.
double CommitWithProportionalPayments(const std::vector<MultiQuery*>& queries,
                                      const CandidatePlan& plan,
                                      const SlotContext& slot, int sensor);

/// The paper's baseline for multi-sensor one-shot queries (Section 4.4):
/// sequential execution with data buffering. Queries are processed one by
/// one; each greedily buys the sensors that maximize its own utility at
/// the sensors' *remaining* cost, and bought sensors become free for
/// subsequent queries in the slot.
SelectionResult BaselineSequentialSelection(const std::vector<MultiQuery*>& queries,
                                            const SlotContext& slot);

}  // namespace psens

#endif  // PSENS_CORE_GREEDY_H_
