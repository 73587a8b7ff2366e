#include "core/lazy_greedy.h"

#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "core/batch_eval.h"
#include "core/candidate_pruning.h"

namespace psens {
namespace {

/// Heap entry: a candidate sensor with its net gain as cached at `round`.
struct Candidate {
  double net = 0.0;
  int round = 0;
  int sensor = 0;
};

/// Max-heap order on net gain; ties prefer the lower sensor index so that
/// the lazy run breaks ties exactly like the eager ascending scan.
struct CandidateLess {
  bool operator()(const Candidate& a, const Candidate& b) const {
    if (a.net != b.net) return a.net < b.net;
    return a.sensor > b.sensor;
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
  // with slot.pool, parallel) sweep: nets for every scan sensor, then heap
  // pushes in the same ascending order the serial loop used, so the heap
  // state, every cached value, and the valuation-call totals are
  // bit-identical to evaluating one sensor at a time.
  std::priority_queue<Candidate, std::vector<Candidate>, CandidateLess> heap;
  {
    const std::span<const int> scan = plan.ScanSensors();
    ArenaBuffer<double> net;
    net.Acquire(slot.arena, scan.size());
    evaluator.EvaluateNets(scan, net.data());
    for (size_t k = 0; k < scan.size(); ++k) {
      heap.push(Candidate{net[k], 0, scan[k]});
    }
  }

  int round = 0;
  while (!heap.empty()) {
    Candidate top = heap.top();
    heap.pop();
    if (top.round != round) {
      // Stale cache: re-evaluate against the current selection and
      // reinsert; only the heap front ever pays this cost. The evaluator
      // shards the per-query delta batch over the pool when the sensor
      // interests enough queries (bit-identical either way).
      top.net = evaluator.EvaluateNet(top.sensor);
      top.round = round;
      heap.push(top);
      continue;
    }
    if (top.net <= 0.0) break;  // fresh maximum without positive net gain
    CheckPrunedMarginals(queries, plan, top.sensor);

    // Commit exactly like the eager loop (Algorithm 1 line 10).
    result.total_cost +=
        CommitWithProportionalPayments(queries, plan, slot, top.sensor);
    result.selected_sensors.push_back(top.sensor);
    ++round;
  }

  for (const MultiQuery* q : queries) result.total_value += q->CurrentValue();
  result.valuation_calls = TotalValuationCalls(queries) - calls_before;
  return result;
}

}  // namespace psens
