#include "core/lazy_greedy.h"

#include <numeric>
#include <vector>

#include "core/batch_eval.h"
#include "core/candidate_pruning.h"
#include "core/celf_frontier.h"

namespace psens {

SelectionResult LazyGreedySensorSelection(const std::vector<MultiQuery*>& queries,
                                          const SlotContext& slot,
                                          const std::vector<double>* cost_scale) {
  SelectionResult result;
  const int64_t calls_before = TotalValuationCalls(queries);
  const int n = static_cast<int>(slot.sensors.size());

  // Candidate pruning (indexed slots): a sensor no query can value has
  // net gain <= -cost and is no scan row; a scan row's net sums only
  // over its interested queries. Identical selections and payments, fewer
  // valuation calls (core/candidate_pruning.h).
  const CandidatePlan plan = BuildCandidatePlan(queries, n, slot.arena);
  NetEvaluator evaluator(queries, plan, slot, cost_scale);

  // Initial fill — the dominant cost of a CELF run — as one batched
  // sweep of every scan row's net, bit-identical to evaluating one sensor
  // at a time, then the frontier built over it. Rows ascend with sensor
  // index, so the frontier's lower-position tie-break is the eager
  // ascending scan's.
  const size_t num_rows = static_cast<size_t>(plan.NumRows());
  ArenaBuffer<int> rows;
  rows.Acquire(slot.arena, num_rows);
  std::iota(rows.begin(), rows.end(), 0);
  ArenaBuffer<double> net;
  net.Acquire(slot.arena, num_rows);
  evaluator.EvaluateRowNets({rows.data(), num_rows}, net.data());
  CelfFrontier frontier({net.data(), num_rows});
  // The round each row's cached net was computed in. Like the frontier's
  // nodes it lives on the heap, off the slot arena's high-water mark.
  std::vector<int> stamp(num_rows, 0);

  int round = 0;
  while (!frontier.Empty()) {
    const int row = frontier.Top();
    if (stamp[static_cast<size_t>(row)] != round) {
      // Stale cache: re-evaluate the row's pair run against the current
      // selection; only the front ever pays this cost.
      frontier.Update(row, evaluator.EvaluateRowNet(row));
      stamp[static_cast<size_t>(row)] = round;
      continue;
    }
    // A fresh front without positive net gain (or with a NaN net) ends it.
    if (!(frontier.TopNet() > 0.0)) break;
    const int sensor = plan.sensors[static_cast<size_t>(row)];
    CheckPrunedMarginals(queries, plan, sensor);

    // Commit exactly like the eager loop (Algorithm 1 line 10).
    result.total_cost +=
        CommitWithProportionalPayments(queries, plan, slot, sensor);
    result.selected_sensors.push_back(sensor);
    frontier.Remove(row);
    ++round;
  }
  evaluator.FlushValuationCalls();

  for (const MultiQuery* q : queries) result.total_value += q->CurrentValue();
  result.valuation_calls = TotalValuationCalls(queries) - calls_before;
  return result;
}

}  // namespace psens
