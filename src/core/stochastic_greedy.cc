#include "core/stochastic_greedy.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "core/batch_eval.h"
#include "core/candidate_pruning.h"

namespace psens {

uint64_t ApproxSlotSeed(const ApproxParams& params, int time) {
  if (params.slot_seed != 0) return params.slot_seed;
  // splitmix64 finalizer over seed xor a time-derived odd constant: slots
  // get well-separated streams from one base seed.
  uint64_t z = params.seed + 0x9E3779B97F4A7C15ULL *
                                 (static_cast<uint64_t>(time) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z != 0 ? z : 1;  // 0 means "derive", never emit it
}

int StochasticSampleSize(const ApproxParams& params, int num_candidates,
                         int num_queries) {
  const int k =
      params.sample_hint > 0 ? params.sample_hint : std::max(num_queries, 1);
  const double eps = std::clamp(params.epsilon, 1e-6, 0.999999);
  const double raw =
      std::ceil(std::log(1.0 / eps) * static_cast<double>(num_candidates) /
                static_cast<double>(k));
  const int s = std::max(params.min_sample, static_cast<int>(raw));
  return std::min(s, std::max(num_candidates, 1));
}

SelectionResult StochasticGreedySensorSelection(
    const std::vector<MultiQuery*>& queries, const SlotContext& slot,
    const std::vector<double>* cost_scale) {
  SelectionResult result;
  const int64_t calls_before = TotalValuationCalls(queries);
  const int n = static_cast<int>(slot.sensors.size());

  const CandidatePlan plan = BuildCandidatePlan(queries, n, slot.arena);
  NetEvaluator evaluator(queries, plan, slot, cost_scale, slot.pool);

  // Remaining candidates (scan rows) in mutable order: the partial
  // Fisher-Yates below shuffles a per-round prefix; pruning compacts the
  // prefix in place. Rows ascend with sensor index, so sorting rows is
  // sorting sensors.
  std::vector<int> remaining(static_cast<size_t>(plan.NumRows()));
  std::iota(remaining.begin(), remaining.end(), 0);
  const int sample_size =
      StochasticSampleSize(slot.approx, static_cast<int>(remaining.size()),
                           static_cast<int>(queries.size()));
  Rng rng(ApproxSlotSeed(slot.approx, slot.time));

  std::vector<int> scan;  // this round's sampled rows, ascending
  std::vector<double> net;

  // Commit exactly like the exact engines (Algorithm 1 line 10).
  const auto commit = [&](int best_row) {
    const int best_sensor = plan.sensors[static_cast<size_t>(best_row)];
    CheckPrunedMarginals(queries, plan, best_sensor);
    result.total_cost +=
        CommitWithProportionalPayments(queries, plan, slot, best_sensor);
    result.selected_sensors.push_back(best_sensor);
  };

  // Ascending stable argmax with strict >, the exact engines' tie-break.
  const auto argmax = [&]() {
    int best_row = -1;
    double best_net = 0.0;
    for (size_t k = 0; k < scan.size(); ++k) {
      if (net[k] > best_net) {
        best_net = net[k];
        best_row = scan[k];
      }
    }
    return best_row;
  };

  // Compacts remaining[0..s) down to the sampled sensors that stay viable
  // (positive net, not committed); the unsampled tail slides over the gap.
  // Marginals only shrink as selections grow (submodularity), so a sensor
  // whose net is non-positive now can never be picked later — pruning it
  // is exact, with the same caveat as the CELF cache for the aggregate
  // valuation's mildly non-submodular mean-quality factor: a pruned
  // marginal that grows back is forfeited (Theorem 1 is unaffected).
  const auto compact_prefix = [&](int s, int committed) {
    size_t write = 0;
    for (int j = 0; j < s; ++j) {
      const int id = remaining[static_cast<size_t>(j)];
      const auto it = std::lower_bound(scan.begin(), scan.end(), id);
      const size_t k = static_cast<size_t>(it - scan.begin());
      if (id != committed && net[k] > 0.0) remaining[write++] = id;
    }
    const size_t dropped = static_cast<size_t>(s) - write;
    if (dropped > 0) {
      std::move(remaining.begin() + s, remaining.end(),
                remaining.begin() + static_cast<long>(write));
      remaining.resize(remaining.size() - dropped);
    }
  };

  // Round 0 sweeps the full candidate set — exact greedy's first pick —
  // and prunes every candidate that can never be selected, so the sampled
  // rounds draw from viable candidates only.
  {
    scan = remaining;
    net.resize(scan.size());
    evaluator.EvaluateRowNets(scan, net.data());
    const int best_row = argmax();
    if (best_row >= 0) commit(best_row);
    compact_prefix(static_cast<int>(remaining.size()), best_row);
    if (best_row < 0) remaining.clear();  // nothing viable at all
  }

  // Sampled rounds. An empty round doubles the next round's sample
  // (escalation) so tail-end candidates cannot be missed for long; an
  // empty round that covered every remaining candidate is exact greedy's
  // own termination proof. A productive round resets the sample to its
  // base size, keeping the steady-state cost at (selections * sample).
  int current_sample = sample_size;
  while (!remaining.empty()) {
    const int s = std::min(current_sample, static_cast<int>(remaining.size()));
    // Partial Fisher-Yates: after the loop, remaining[0..s) is a uniform
    // sample without replacement. Consumes the RNG deterministically.
    for (int j = 0; j < s; ++j) {
      const int64_t pick =
          rng.UniformInt(j, static_cast<int64_t>(remaining.size()) - 1);
      std::swap(remaining[static_cast<size_t>(j)],
                remaining[static_cast<size_t>(pick)]);
    }
    scan.assign(remaining.begin(), remaining.begin() + s);
    // The evaluator contract wants ascending, duplicate-free rows; the
    // sample is duplicate-free by construction.
    std::sort(scan.begin(), scan.end());
    net.resize(scan.size());
    evaluator.EvaluateRowNets(scan, net.data());
    const int best_row = argmax();
    if (best_row >= 0) {
      current_sample = sample_size;
      commit(best_row);
    } else if (s == static_cast<int>(remaining.size())) {
      break;  // a full empty sweep is the exact termination condition
    } else {
      current_sample *= 2;
    }
    compact_prefix(s, best_row);
  }
  evaluator.FlushValuationCalls();

  for (const MultiQuery* q : queries) result.total_value += q->CurrentValue();
  result.valuation_calls = TotalValuationCalls(queries) - calls_before;
  return result;
}

}  // namespace psens
