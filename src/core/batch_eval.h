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

/// Batched evaluation of Algorithm 1 net gains
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
///     the counts through AddValuationCalls in FlushValuationCalls);
///   - each sensor's positive-marginal sum accumulates in ascending query
///     order as a single floating-point chain, the reference order, so
///     nets are bit-identical.
///
/// Everything runs on the calling thread: one selection run is one
/// thread's work. (Experiment runners shard independent *slots* over
/// threads with ParallelFor, each slot with its own evaluator.)
class NetEvaluator {
 public:
  /// All referenced objects must outlive the evaluator; `cost_scale` may
  /// be null (unscaled costs).
  NetEvaluator(const std::vector<MultiQuery*>& queries,
               const CandidatePlan& plan, const SlotContext& slot,
               const std::vector<double>* cost_scale);

  /// Fills net[k] with the net gain of scan row rows[k] against the
  /// current selections (`net` must hold rows.size() entries — callers
  /// size their own, usually arena-backed, storage). `rows` must be
  /// ascending and duplicate-free (the engines pass remaining scan rows).
  /// Sweeps each query's keys once, in ascending query order.
  void EvaluateRowNets(std::span<const int> rows, double* net);

  /// Net gain of one scan row — the CELF stale-front re-evaluation: one
  /// walk of the row's pair run, in ascending query order.
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

 private:
  double ScaledCost(int sensor) const;

  const std::vector<MultiQuery*>& queries_;
  const CandidatePlan& plan_;
  const SlotContext& slot_;
  const std::vector<double>* cost_scale_;

  /// All slot-lifetime scratch below draws from SlotContext::arena when
  /// the engine attached one (reset at the next BeginSlot — the evaluator
  /// never outlives its slot) and owns heap storage otherwise. Nothing is
  /// sized by the slot membership: per-row state spans the scan rows, and
  /// the pair scratch holds one query's pairs.
  ///
  /// One query's marked keys, and their deltas.
  ArenaBuffer<int> query_keys_;
  ArenaBuffer<double> query_deltas_;
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
};

}  // namespace psens

#endif  // PSENS_CORE_BATCH_EVAL_H_
