#include "core/batch_eval.h"

#include <algorithm>
#include <span>

namespace psens {

NetEvaluator::NetEvaluator(const std::vector<MultiQuery*>& queries,
                           const CandidatePlan& plan, const SlotContext& slot,
                           const std::vector<double>* cost_scale)
    : queries_(queries),
      plan_(plan),
      slot_(slot),
      cost_scale_(cost_scale) {
  const size_t num_rows = static_cast<size_t>(plan_.NumRows());
  SlotArena* arena = slot.arena;
  // One query's pairs at a time: a listed query keys at most its listed
  // entries; a dense query keys the eval set itself (at most every row)
  // and needs only delta storage.
  size_t max_listed = 0;
  size_t max_pairs = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const int q = static_cast<int>(qi);
    if (plan_.IsDense(q)) {
      max_pairs = std::max(max_pairs, num_rows);
    } else {
      max_listed = std::max(max_listed, plan_.KeyRows(q).size());
    }
  }
  query_keys_.Acquire(arena, max_listed);
  query_deltas_.Acquire(arena, std::max(max_pairs, max_listed));
  calls_.Acquire(arena, queries.size());
  std::fill(calls_.begin(), calls_.end(), int64_t{0});
  // Row-sized state: EvaluateRowNets zeroes positive_sum_ over its own
  // eval set, so only mark_ starts cleared.
  mark_.Acquire(arena, num_rows);
  std::fill(mark_.begin(), mark_.end(), char{0});
  positive_sum_.Acquire(arena, num_rows);
  row_cost_.Acquire(arena, num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    row_cost_[r] = ScaledCost(plan_.sensors[r]);
  }
}

double NetEvaluator::ScaledCost(int sensor) const {
  double scale = 1.0;
  if (cost_scale_ != nullptr) scale = (*cost_scale_)[sensor];
  return slot_.sensors.cost[static_cast<size_t>(sensor)] * scale;
}

void NetEvaluator::EvaluateRowNets(std::span<const int> rows, double* net) {
  if (rows.empty()) return;
  for (int r : rows) {
    mark_[static_cast<size_t>(r)] = 1;
    positive_sum_[static_cast<size_t>(r)] = 0.0;
  }

  // Queries run in ascending order, and each scatters its positive deltas
  // into the per-row accumulators before the next query is evaluated, so
  // each row's sum is one floating-point chain in exactly the reference
  // sensor-major loop's (ascending query) order.
  double* deltas = query_deltas_.data();
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const int q = static_cast<int>(qi);
    if (plan_.IsDense(q)) {
      // A dense query keys each row by the row itself: its keys are the
      // whole eval set.
      queries_[qi]->MarginalsAt(rows, std::span<double>(deltas, rows.size()));
      for (size_t j = 0; j < rows.size(); ++j) {
        if (deltas[j] > 0.0) {
          positive_sum_[static_cast<size_t>(rows[j])] += deltas[j];
        }
      }
      calls_[qi] += static_cast<int64_t>(rows.size());
      continue;
    }
    // A listed query's keys are its marked entries; each maps back to its
    // row through the plan.
    const std::span<const int> key_rows = plan_.KeyRows(q);
    int* keys = query_keys_.data();
    size_t m = 0;
    for (size_t k = 0; k < key_rows.size(); ++k) {
      const int r = key_rows[k];
      if (r >= 0 && mark_[static_cast<size_t>(r)]) {
        keys[m++] = static_cast<int>(k);
      }
    }
    queries_[qi]->MarginalsAt(std::span<const int>(keys, m),
                              std::span<double>(deltas, m));
    for (size_t j = 0; j < m; ++j) {
      if (deltas[j] > 0.0) {
        const int r = key_rows[static_cast<size_t>(keys[j])];
        positive_sum_[static_cast<size_t>(r)] += deltas[j];
      }
    }
    calls_[qi] += static_cast<int64_t>(m);
  }

  // Gather nets in eval-set order, clearing the marks.
  for (size_t k = 0; k < rows.size(); ++k) {
    const size_t r = static_cast<size_t>(rows[k]);
    net[k] = positive_sum_[r] - row_cost_[r];
    mark_[r] = 0;
  }
}

double NetEvaluator::EvaluateRowNet(int row) {
  // One keyed probe per pair, ascending query order.
  double positive_sum = 0.0;
  plan_.ForEachPair(row, [&](int qi, int key) {
    double delta = 0.0;
    queries_[static_cast<size_t>(qi)]->MarginalsAt(
        std::span<const int>(&key, 1), std::span<double>(&delta, 1));
    ++calls_[static_cast<size_t>(qi)];
    if (delta > 0.0) positive_sum += delta;
  });
  return positive_sum - row_cost_[static_cast<size_t>(row)];
}

void NetEvaluator::EvaluateSensorNets(std::span<const int> sensors,
                                      double* net) {
  // Listed sensors' rows ascend with the sensors, so they form a valid
  // eval set; a sensor no query lists collects no pairs.
  listed_rows_.clear();
  listed_at_.clear();
  for (size_t k = 0; k < sensors.size(); ++k) {
    const int row = plan_.RowOf(sensors[k]);
    if (row < 0) {
      net[k] = 0.0 - ScaledCost(sensors[k]);
      continue;
    }
    listed_rows_.push_back(row);
    listed_at_.push_back(k);
  }
  listed_net_.resize(listed_rows_.size());
  EvaluateRowNets(listed_rows_, listed_net_.data());
  for (size_t j = 0; j < listed_at_.size(); ++j) {
    net[listed_at_[j]] = listed_net_[j];
  }
}

double NetEvaluator::EvaluateSensorNet(int sensor) {
  const int row = plan_.RowOf(sensor);
  if (row < 0) return 0.0 - ScaledCost(sensor);
  return EvaluateRowNet(row);
}

void NetEvaluator::FlushValuationCalls() {
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    if (calls_[qi] != 0) {
      queries_[qi]->AddValuationCalls(calls_[qi]);
      calls_[qi] = 0;
    }
  }
}

}  // namespace psens
