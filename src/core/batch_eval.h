#ifndef PSENS_CORE_BATCH_EVAL_H_
#define PSENS_CORE_BATCH_EVAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/arena.h"
#include "core/candidate_pruning.h"
#include "core/multi_query.h"
#include "core/slot.h"

namespace psens {

class ThreadPool;

/// Batched, optionally parallel evaluation of Algorithm 1 net gains
///
///   net(s) = sum_{q interested in s, delta_{q,s} > 0} delta_{q,s} - c_s
///
/// for one joint-selection run. Both greedy engines (the eager rescan in
/// greedy.cc and the CELF heap in lazy_greedy.cc) funnel their valuation
/// sweeps through this class, which restructures the reference
/// sensor-major scalar loop into per-query MarginalValuesUncounted sweeps
/// without changing a single observable bit:
///
///   - the (sensor, query) pairs evaluated are exactly the reference
///     loop's pairs, so every query's ValuationCalls() total is unchanged
///     (accounting is deferred per thread and merged once per batch via
///     AddValuationCalls — never mutated from workers);
///   - each sensor's positive-marginal sum accumulates in ascending query
///     order as a single floating-point chain, the reference order, so
///     nets are bit-identical;
///   - parallel runs shard the delta *computation* by query over the
///     slot's ThreadPool (deltas are pure per-pair functions written to
///     disjoint slices) and keep the reduction sequential, so any thread
///     count — including none — produces bit-identical nets, selections,
///     and payments (tests/streaming_equivalence_test.cc pins this).
///
/// Parallel sharding requires every query to declare
/// ThreadSafeBatchValuation(); otherwise the evaluator silently runs the
/// same stages serially.
class NetEvaluator {
 public:
  /// `pool` may be null (serial). All referenced objects must outlive the
  /// evaluator; `cost_scale` may be null (unscaled costs).
  NetEvaluator(const std::vector<MultiQuery*>& queries,
               const CandidatePlan& plan, const SlotContext& slot,
               const std::vector<double>* cost_scale, ThreadPool* pool);

  /// Fills net[k] with the net gain of sensors[k] against the current
  /// selections (`net` must hold sensors.size() entries — callers size
  /// their own, usually arena-backed, storage). `sensors` must be
  /// ascending and duplicate-free (the engines pass remaining scan
  /// sensors). Valuation-call accounting for every evaluated pair is
  /// merged into the queries before returning.
  void EvaluateNets(std::span<const int> sensors, double* net);

  /// Net gain of a single sensor — the CELF stale-front re-evaluation.
  /// Serial reference semantics; when the sensor interests many queries
  /// and a pool is available, the per-query deltas are computed in
  /// parallel and reduced sequentially in ascending query order.
  double EvaluateNet(int sensor);

  /// True when EvaluateNets/EvaluateNet shard work across the pool.
  bool parallel() const { return parallel_; }

 private:
  double ScaledCost(int sensor) const;
  /// Stage 1 kernel: evaluates queries [begin, end) of the window starting
  /// at `window_begin` against the current eval set, writing (sensor,
  /// delta) pairs into each query's slice and the per-query pair count
  /// into counts_.
  void SweepQueries(int window_begin, int begin, int end);

  const std::vector<MultiQuery*>& queries_;
  const CandidatePlan& plan_;
  const SlotContext& slot_;
  const std::vector<double>* cost_scale_;
  ThreadPool* pool_;
  bool parallel_ = false;

  /// Pair buffer in query-major CSR layout: query q's slice starts at
  /// offsets_[q] - offsets_[window begin] within the current window's
  /// buffer and holds counts_[q] live entries per round. Queries are
  /// grouped into windows whose combined slice capacity is bounded
  /// (kMaxPairBufferEntries), so dense plans — every query interested in
  /// every sensor, e.g. unindexed slots — never materialize the full
  /// |Q| x n cross product; windows are swept (and their deltas reduced)
  /// in ascending query order, preserving the reference accumulation
  /// order exactly.
  ///
  /// All slot-lifetime scratch below draws from SlotContext::arena when
  /// the engine attached one (reset at the next BeginSlot — the evaluator
  /// never outlives its slot) and owns heap storage otherwise.
  ArenaBuffer<int64_t> offsets_;
  /// Window boundaries: queries [windows_[w], windows_[w+1]) share one
  /// buffer fill.
  std::vector<int> windows_;
  ArenaBuffer<int> pair_sensor_;
  ArenaBuffer<double> pair_delta_;
  ArenaBuffer<int64_t> counts_;
  /// Eval-set membership (by slot index) for the current EvaluateNets
  /// call. Member-sized but cleared only at scan sensors, the only entries
  /// SweepQueries reads.
  ArenaBuffer<char> mark_;
  /// Per-sensor positive-marginal accumulator, zeroed over each
  /// EvaluateNets call's own eval set when the call starts.
  ArenaBuffer<double> positive_sum_;
  /// Scratch for EvaluateNet's sharded single-sensor path (lazily grown
  /// per call, so it stays an owned vector).
  std::vector<double> single_deltas_;
};

}  // namespace psens

#endif  // PSENS_CORE_BATCH_EVAL_H_
