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
/// for one joint-selection run. Every engine funnels its valuation sweeps
/// through this class, addressing sensors by the plan's scan row
/// (core/candidate_pruning.h) and each query by the pair's key
/// (MultiQuery::MarginalsAt), without changing a single observable bit:
///
///   - the (sensor, query) pairs evaluated are exactly the reference
///     sensor-major loop's pairs, so every query's ValuationCalls() total
///     is unchanged (the evaluator counts every evaluated key and merges
///     the counts through AddValuationCalls in FlushValuationCalls —
///     never from workers);
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

  /// Fills net[k] with the net gain of scan row rows[k] against the
  /// current selections (`net` must hold rows.size() entries — callers
  /// size their own, usually arena-backed, storage). `rows` must be
  /// ascending and duplicate-free (the engines pass remaining scan rows).
  /// A large set sweeps each query's keys once (stages 1-3 below); a set
  /// with few pairs against the listed queries' keys — a sampled round, a
  /// batch of arrivals — walks its rows' pair runs through EvaluateRowNet.
  void EvaluateRowNets(std::span<const int> rows, double* net);

  /// Net gain of one scan row — the CELF stale-front re-evaluation: one
  /// walk of the row's pair run. When the row interests many queries and
  /// a pool is available, the per-query deltas are computed in parallel
  /// and reduced sequentially in ascending query order.
  double EvaluateRowNet(int row);

  /// Sensor-addressed forms for sensors that need not be scan sensors
  /// (the sieve's arrivals and carried bucket members): each resolves its
  /// row once, and a sensor no query lists has net exactly 0 - cost.
  /// `sensors` must be ascending and duplicate-free.
  void EvaluateSensorNets(std::span<const int> sensors, double* net);
  double EvaluateSensorNet(int sensor);

  /// Merges the valuation calls counted since the last flush into each
  /// query's ValuationCalls(). Engines flush before reading the counts.
  void FlushValuationCalls();

  /// True when the Evaluate* calls shard work across the pool.
  bool parallel() const { return parallel_; }

 private:
  double ScaledCost(int sensor) const;
  /// Stage 1 kernel: evaluates queries [begin, end) of the window starting
  /// at `window_begin` against the eval rows `rows` (marked in mark_),
  /// writing (key, delta) pairs into each query's slice and the per-query
  /// pair count into counts_.
  void SweepQueries(std::span<const int> rows, int window_begin, int begin,
                    int end);

  const std::vector<MultiQuery*>& queries_;
  const CandidatePlan& plan_;
  const SlotContext& slot_;
  const std::vector<double>* cost_scale_;
  ThreadPool* pool_;
  bool parallel_ = false;
  /// EvaluateRowNets walks rows for eval sets of fewer pairs than this.
  int64_t row_walk_pairs_ = 0;

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
  /// never outlives its slot) and owns heap storage otherwise. Nothing is
  /// sized by the slot membership: per-row state spans the scan rows.
  ArenaBuffer<int64_t> offsets_;
  /// Window boundaries: queries [windows_[w], windows_[w+1]) share one
  /// buffer fill.
  std::vector<int> windows_;
  ArenaBuffer<int> pair_key_;
  ArenaBuffer<double> pair_delta_;
  ArenaBuffer<int64_t> counts_;
  /// Valuation calls per query not yet merged (FlushValuationCalls).
  ArenaBuffer<int64_t> calls_;
  /// Eval-set membership by scan row for the current EvaluateRowNets call.
  ArenaBuffer<char> mark_;
  /// Per-row positive-marginal accumulator, zeroed over each
  /// EvaluateRowNets call's own eval set when the call starts.
  ArenaBuffer<double> positive_sum_;
  /// Scaled cost by scan row, gathered once per selection run.
  ArenaBuffer<double> row_cost_;
  /// EvaluateSensorNets scratch: the listed sensors' rows, their
  /// positions in the caller's list, and their nets.
  std::vector<int> listed_rows_;
  std::vector<size_t> listed_at_;
  std::vector<double> listed_net_;
  /// Scratch for EvaluateRowNet's sharded path (lazily grown per call, so
  /// it stays owned vectors).
  std::vector<CandidatePair> single_pairs_;
  std::vector<double> single_deltas_;
};

}  // namespace psens

#endif  // PSENS_CORE_BATCH_EVAL_H_
