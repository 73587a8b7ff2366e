#include "core/lazy_greedy.h"

#include <numeric>
#include <queue>
#include <utility>
#include <vector>

#include "core/batch_eval.h"
#include "core/candidate_pruning.h"

namespace psens {
namespace {

/// Heap entry: a candidate's scan row with its net gain as cached at
/// `round`.
struct Candidate {
  double net = 0.0;
  int round = 0;
  int row = 0;
};

/// Max-heap order on net gain; ties prefer the lower row — rows ascend
/// with sensor index, so the lazy run breaks ties exactly like the eager
/// ascending scan.
struct CandidateLess {
  bool operator()(const Candidate& a, const Candidate& b) const {
    if (a.net != b.net) return a.net < b.net;
    return a.row > b.row;
  }
};

}  // namespace

SelectionResult LazyGreedySensorSelection(const std::vector<MultiQuery*>& queries,
                                          const SlotContext& slot,
                                          const std::vector<double>* cost_scale) {
  SelectionResult result;
  const int64_t calls_before = TotalValuationCalls(queries);
  const int n = static_cast<int>(slot.sensors.size());

  // Candidate pruning (indexed slots): a sensor no query can value has
  // net gain <= -cost and never enters the heap; a sensor's net sums only
  // over its interested queries. Identical selections and payments, fewer
  // valuation calls (core/candidate_pruning.h).
  const CandidatePlan plan = BuildCandidatePlan(queries, n, slot.arena);
  NetEvaluator evaluator(queries, plan, slot, cost_scale, slot.pool);

  // Initial fill — the dominant cost of a CELF run — as one batched (and,
  // with slot.pool, parallel) sweep: nets for every scan row, then heap
  // pushes in the same ascending order the serial loop used, so the heap
  // state, every cached value, and the valuation-call totals are
  // bit-identical to evaluating one sensor at a time.
  std::priority_queue<Candidate, std::vector<Candidate>, CandidateLess> heap;
  {
    const size_t num_rows = static_cast<size_t>(plan.NumRows());
    ArenaBuffer<int> rows;
    rows.Acquire(slot.arena, num_rows);
    std::iota(rows.begin(), rows.end(), 0);
    ArenaBuffer<double> net;
    net.Acquire(slot.arena, num_rows);
    evaluator.EvaluateRowNets({rows.data(), num_rows}, net.data());
    for (size_t r = 0; r < num_rows; ++r) {
      heap.push(Candidate{net[r], 0, static_cast<int>(r)});
    }
  }

  int round = 0;
  while (!heap.empty()) {
    Candidate top = heap.top();
    heap.pop();
    if (top.round != round) {
      // Stale cache: re-evaluate the row's pair run against the current
      // selection and reinsert; only the heap front ever pays this cost.
      // The evaluator shards the per-query deltas over the pool when the
      // row interests enough queries (bit-identical either way).
      top.net = evaluator.EvaluateRowNet(top.row);
      top.round = round;
      heap.push(top);
      continue;
    }
    if (top.net <= 0.0) break;  // fresh maximum without positive net gain
    const int sensor = plan.sensors[static_cast<size_t>(top.row)];
    CheckPrunedMarginals(queries, plan, sensor);

    // Commit exactly like the eager loop (Algorithm 1 line 10).
    result.total_cost +=
        CommitWithProportionalPayments(queries, plan, slot, sensor);
    result.selected_sensors.push_back(sensor);
    ++round;
  }
  evaluator.FlushValuationCalls();

  for (const MultiQuery* q : queries) result.total_value += q->CurrentValue();
  result.valuation_calls = TotalValuationCalls(queries) - calls_before;
  return result;
}

}  // namespace psens
