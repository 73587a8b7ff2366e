#include "core/greedy.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/batch_eval.h"
#include "core/candidate_pruning.h"
#include "core/lazy_greedy.h"

namespace psens {

int64_t TotalValuationCalls(const std::vector<MultiQuery*>& queries) {
  int64_t total = 0;
  for (const MultiQuery* q : queries) total += q->ValuationCalls();
  return total;
}

double CommitWithProportionalPayments(const std::vector<MultiQuery*>& queries,
                                      const CandidatePlan& plan,
                                      const SlotContext& slot, int sensor) {
  // (query, delta) scratch reused across commits. Concurrent selection
  // runs (experiment slot sharding) each see their own thread_local copy.
  thread_local std::vector<std::pair<int, double>> marginals;
  const double true_cost = slot.sensors.cost[sensor];
  marginals.clear();
  double positive_sum = 0.0;
  const int row = plan.RowOf(sensor);
  if (row >= 0) {
    plan.ForEachPair(row, [&](int qi, int) {
      const double delta = queries[qi]->MarginalValue(sensor);
      marginals.emplace_back(qi, delta);
      if (delta > 0.0) positive_sum += delta;
    });
  }
  for (const auto& [qi, delta] : marginals) {
    if (delta > 0.0) {
      queries[qi]->Commit(sensor, delta * true_cost / positive_sum);
    }
  }
  return true_cost;
}

// The rescan runs through the batched round evaluator
// (core/batch_eval.h): per-query keyed sweeps over the remaining scan
// rows instead of per-sensor virtual probes — with nets, tie-breaks, and
// valuation-call totals bit-identical to the historical sensor-major
// scalar loop.
SelectionResult EagerGreedySensorSelection(
    const std::vector<MultiQuery*>& queries, const SlotContext& slot,
    const std::vector<double>* cost_scale) {
  SelectionResult result;
  const int64_t calls_before = TotalValuationCalls(queries);
  const int n = static_cast<int>(slot.sensors.size());
  const CandidatePlan plan = BuildCandidatePlan(queries, n, slot.arena);
  NetEvaluator evaluator(queries, plan, slot, cost_scale);

  // Round scratch, by scan row, draws from the slot arena when one is
  // attached (reset at the next BeginSlot; a selection never outlives its
  // slot).
  const size_t num_rows = static_cast<size_t>(plan.NumRows());
  ArenaBuffer<char> remaining;
  remaining.Acquire(slot.arena, num_rows);
  std::fill(remaining.begin(), remaining.end(), 1);
  ArenaBuffer<int> scan;  // remaining scan rows, ascending, per round
  ArenaBuffer<double> net;
  scan.Acquire(slot.arena, num_rows);
  net.Acquire(slot.arena, num_rows);
  while (true) {
    size_t scan_n = 0;
    for (size_t r = 0; r < num_rows; ++r) {
      if (remaining[r]) scan[scan_n++] = static_cast<int>(r);
    }
    evaluator.EvaluateRowNets({scan.data(), scan_n}, net.data());
    int best_row = -1;
    double best_net = 0.0;
    // Ascending stable argmax with strict >: the first maximum wins, the
    // same (gain, sensor-id) tie-break as the reference ascending rescan
    // (rows ascend with sensor index).
    for (size_t k = 0; k < scan_n; ++k) {
      if (net[k] > best_net) {
        best_net = net[k];
        best_row = scan[k];
      }
    }
    if (best_row < 0) break;  // line 12: no sensor with positive net gain
    const int best_sensor = plan.sensors[static_cast<size_t>(best_row)];
    CheckPrunedMarginals(queries, plan, best_sensor);
    result.total_cost +=
        CommitWithProportionalPayments(queries, plan, slot, best_sensor);
    remaining[static_cast<size_t>(best_row)] = 0;
    result.selected_sensors.push_back(best_sensor);
  }
  evaluator.FlushValuationCalls();

  for (const MultiQuery* q : queries) result.total_value += q->CurrentValue();
  result.valuation_calls = TotalValuationCalls(queries) - calls_before;
  return result;
}

SelectionResult GreedySensorSelection(const std::vector<MultiQuery*>& queries,
                                      const SlotContext& slot,
                                      const std::vector<double>* cost_scale) {
  return LazyGreedySensorSelection(queries, slot, cost_scale);
}

SelectionResult BaselineSequentialSelection(const std::vector<MultiQuery*>& queries,
                                            const SlotContext& slot) {
  SelectionResult result;
  const int64_t calls_before = TotalValuationCalls(queries);
  const int n = static_cast<int>(slot.sensors.size());
  std::vector<double> remaining_cost(n);
  for (int s = 0; s < n; ++s) remaining_cost[s] = slot.sensors.cost[s];
  std::vector<char> selected(n, 0);

  std::vector<int> all_sensors(n);
  std::iota(all_sensors.begin(), all_sensors.end(), 0);

  for (MultiQuery* q : queries) {
    // Greedily buy sensors maximizing this query's own net utility at the
    // sensors' remaining (possibly zero) cost. Only the query's candidate
    // sensors can have positive net (others have marginal <= 0 against
    // cost >= 0), so the scan shrinks to them on indexed slots.
    const std::vector<int>* candidates = q->CandidateSensors();
    const std::vector<int>& scan = candidates != nullptr ? *candidates : all_sensors;
    std::vector<char> used(n, 0);
    while (true) {
      int best_sensor = -1;
      double best_net = 0.0;
      for (int s : scan) {
        if (used[s]) continue;
        const double net = q->MarginalValue(s) - remaining_cost[s];
        if (net > best_net) {
          best_net = net;
          best_sensor = s;
        }
      }
      if (best_sensor < 0) break;
      q->Commit(best_sensor, remaining_cost[best_sensor]);
      used[best_sensor] = 1;
      if (!selected[best_sensor]) {
        selected[best_sensor] = 1;
        result.selected_sensors.push_back(best_sensor);
        result.total_cost += slot.sensors.cost[best_sensor];
      }
      remaining_cost[best_sensor] = 0.0;  // buffered data is free from now on
    }
  }

  for (const MultiQuery* q : queries) result.total_value += q->CurrentValue();
  result.valuation_calls = TotalValuationCalls(queries) - calls_before;
  return result;
}

}  // namespace psens
