#include "core/batch_eval.h"

#include <algorithm>
#include <span>

#include "common/thread_pool.h"

namespace psens {
namespace {

/// Minimum eval-set size / interested-query count before a round is worth
/// sharding: below these the pool's wake/wait handshake dwarfs the
/// valuation work. Purely a performance knob — results are bit-identical
/// on either side of it.
constexpr size_t kMinParallelSensors = 64;
constexpr size_t kMinParallelQueries = 256;

/// Cap on the pair buffer (entries, 12 bytes each): dense plans — every
/// query interested in every sensor — would otherwise materialize the
/// full |Q| x n cross product per selection. Queries are windowed to this
/// budget instead; another pure performance/memory knob.
constexpr int64_t kMaxPairBufferEntries = int64_t{1} << 21;  // ~24 MB

/// An eval set whose pairs number fewer than 1/kRowWalkRatio of the listed
/// queries' keys walks its rows' pair runs instead of sweeping those keys
/// for marks: stochastic greedy's sampled rounds and the sieve's arrivals
/// and refinement pool would otherwise pay a full key sweep for a few
/// hundred marginals. (A dense query's sweep already costs only the eval
/// set, so an all-dense plan always sweeps.) A performance knob only —
/// both walks produce the same nets and counts; fig13's stochastic ratio
/// read the same at 2, 8 and 32 (docs/BENCHMARKS.md, "Candidate-local
/// selection").
constexpr int64_t kRowWalkRatio = 8;

}  // namespace

NetEvaluator::NetEvaluator(const std::vector<MultiQuery*>& queries,
                           const CandidatePlan& plan, const SlotContext& slot,
                           const std::vector<double>* cost_scale,
                           ThreadPool* pool)
    : queries_(queries),
      plan_(plan),
      slot_(slot),
      cost_scale_(cost_scale),
      pool_(pool) {
  const size_t num_rows = static_cast<size_t>(plan_.NumRows());
  SlotArena* arena = slot.arena;
  // Query q's slice holds at most one pair per key: every row for a dense
  // query, its listed entries otherwise.
  offsets_.Acquire(arena, queries.size() + 1);
  offsets_[0] = 0;
  int64_t listed_keys = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const int q = static_cast<int>(qi);
    const size_t keys = plan_.IsDense(q) ? num_rows : plan_.KeyRows(q).size();
    offsets_[qi + 1] = offsets_[qi] + static_cast<int64_t>(keys);
    if (!plan_.IsDense(q)) listed_keys += static_cast<int64_t>(keys);
  }
  row_walk_pairs_ = listed_keys / kRowWalkRatio;
  // Window the queries to the pair-buffer budget (always at least one
  // query per window, so a single huge query still fits in one window's
  // oversized buffer rather than failing).
  windows_.push_back(0);
  int64_t max_window = 0;
  {
    int begin = 0;
    for (int qi = 0; qi < static_cast<int>(queries.size()); ++qi) {
      const int64_t window_pairs = offsets_[static_cast<size_t>(qi) + 1] -
                                   offsets_[static_cast<size_t>(begin)];
      if (window_pairs > kMaxPairBufferEntries && qi > begin) {
        max_window = std::max(max_window, offsets_[static_cast<size_t>(qi)] -
                                              offsets_[static_cast<size_t>(begin)]);
        begin = qi;
        windows_.push_back(begin);
      }
    }
    max_window = std::max(max_window, offsets_[queries.size()] -
                                          offsets_[static_cast<size_t>(begin)]);
    windows_.push_back(static_cast<int>(queries.size()));
  }
  pair_key_.Acquire(arena, static_cast<size_t>(max_window));
  pair_delta_.Acquire(arena, static_cast<size_t>(max_window));
  counts_.Acquire(arena, queries.size());
  std::fill(counts_.begin(), counts_.end(), int64_t{0});
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

  parallel_ = pool_ != nullptr && pool_->size() > 1;
  if (parallel_) {
    for (const MultiQuery* q : queries_) {
      if (!q->ThreadSafeBatchValuation()) {
        parallel_ = false;
        break;
      }
    }
  }
}

double NetEvaluator::ScaledCost(int sensor) const {
  double scale = 1.0;
  if (cost_scale_ != nullptr) scale = (*cost_scale_)[sensor];
  return slot_.sensors.cost[static_cast<size_t>(sensor)] * scale;
}

void NetEvaluator::SweepQueries(std::span<const int> rows, int window_begin,
                                int begin, int end) {
  const int64_t base = offsets_[static_cast<size_t>(window_begin)];
  for (int qi = begin; qi < end; ++qi) {
    const size_t slice =
        static_cast<size_t>(offsets_[static_cast<size_t>(qi)] - base);
    int* keys = pair_key_.data() + slice;
    int64_t m = 0;
    if (plan_.IsDense(qi)) {
      // A dense query keys each row by the row itself: its keys are the
      // whole eval set.
      std::copy(rows.begin(), rows.end(), keys);
      m = static_cast<int64_t>(rows.size());
    } else {
      const std::span<const int> key_rows = plan_.KeyRows(qi);
      for (size_t k = 0; k < key_rows.size(); ++k) {
        const int r = key_rows[k];
        if (r >= 0 && mark_[static_cast<size_t>(r)]) {
          keys[m++] = static_cast<int>(k);
        }
      }
    }
    queries_[static_cast<size_t>(qi)]->MarginalsAt(
        std::span<const int>(keys, static_cast<size_t>(m)),
        std::span<double>(pair_delta_.data() + slice, static_cast<size_t>(m)));
    counts_[static_cast<size_t>(qi)] = m;
  }
}

void NetEvaluator::EvaluateRowNets(std::span<const int> rows, double* net) {
  if (rows.empty()) return;
  // Each row's sum is the same ascending-query chain either way.
  int64_t eval_pairs = 0;
  for (size_t k = 0; k < rows.size() && eval_pairs < row_walk_pairs_; ++k) {
    eval_pairs += plan_.active
                      ? static_cast<int64_t>(plan_.PairsOf(rows[k]).size())
                      : plan_.num_queries;
  }
  if (eval_pairs < row_walk_pairs_) {
    for (size_t k = 0; k < rows.size(); ++k) net[k] = EvaluateRowNet(rows[k]);
    return;
  }
  for (int r : rows) {
    mark_[static_cast<size_t>(r)] = 1;
    positive_sum_[static_cast<size_t>(r)] = 0.0;
  }

  // Windows run sequentially in ascending query order; within a window,
  // stage 1 computes per-query keyed deltas (each query's pairs land in
  // its own pre-laid slice, so parallel workers write disjoint memory and
  // the result is independent of scheduling) and stage 2 scatters them
  // into per-row positive-marginal accumulators in ascending query order
  // — across windows too, each row's sum stays one floating-point chain
  // in exactly the reference sensor-major loop's (ascending query) order.
  for (size_t w = 0; w + 1 < windows_.size(); ++w) {
    const int wbegin = windows_[w];
    const int wend = windows_[w + 1];
    const int window_queries = wend - wbegin;
    if (window_queries <= 0) continue;
    if (parallel_ && rows.size() >= kMinParallelSensors) {
      const int chunks = std::min(window_queries, pool_->size() * 8);
      const int per_chunk = (window_queries + chunks - 1) / chunks;
      pool_->ParallelFor(chunks, [&](int c) {
        const int begin = wbegin + c * per_chunk;
        const int end = std::min(wend, begin + per_chunk);
        if (begin < end) SweepQueries(rows, wbegin, begin, end);
      });
    } else {
      SweepQueries(rows, wbegin, wbegin, wend);
    }
    // Stage 2 maps each key back to its row: a dense query's key is the
    // row, a listed query's row is its key's entry in the plan.
    const int64_t base = offsets_[static_cast<size_t>(wbegin)];
    for (int qi = wbegin; qi < wend; ++qi) {
      const size_t slice =
          static_cast<size_t>(offsets_[static_cast<size_t>(qi)] - base);
      const int* keys_q = pair_key_.data() + slice;
      const double* deltas_q = pair_delta_.data() + slice;
      const int64_t m = counts_[static_cast<size_t>(qi)];
      if (plan_.IsDense(qi)) {
        for (int64_t j = 0; j < m; ++j) {
          if (deltas_q[j] > 0.0) {
            positive_sum_[static_cast<size_t>(keys_q[j])] += deltas_q[j];
          }
        }
      } else {
        const int* key_rows = plan_.KeyRows(qi).data();
        for (int64_t j = 0; j < m; ++j) {
          if (deltas_q[j] > 0.0) {
            positive_sum_[static_cast<size_t>(key_rows[keys_q[j]])] +=
                deltas_q[j];
          }
        }
      }
      calls_[static_cast<size_t>(qi)] += m;
    }
  }

  // Stage 3: gather nets in eval-set order, clearing the marks.
  for (size_t k = 0; k < rows.size(); ++k) {
    const size_t r = static_cast<size_t>(rows[k]);
    net[k] = positive_sum_[r] - row_cost_[r];
    mark_[r] = 0;
  }
}

double NetEvaluator::EvaluateRowNet(int row) {
  const size_t num_pairs = plan_.active
                               ? plan_.PairsOf(row).size()
                               : static_cast<size_t>(plan_.num_queries);
  if (!parallel_ || num_pairs < kMinParallelQueries) {
    // Serial reference: one keyed probe per pair, ascending query order.
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

  // Stale-front re-evaluation batch: the row's per-query deltas are pure
  // and independent, so workers fill disjoint slots of a dense array and
  // the ascending-order reduction below reproduces the serial
  // floating-point chain exactly.
  single_pairs_.clear();
  plan_.ForEachPair(row, [&](int qi, int key) {
    single_pairs_.push_back(CandidatePair{qi, key});
  });
  const int m = static_cast<int>(single_pairs_.size());
  single_deltas_.resize(static_cast<size_t>(m));
  const int chunks = std::min(m, pool_->size() * 8);
  const int per_chunk = (m + chunks - 1) / chunks;
  pool_->ParallelFor(chunks, [&](int c) {
    const int begin = c * per_chunk;
    const int end = std::min(m, begin + per_chunk);
    for (int p = begin; p < end; ++p) {
      const CandidatePair& pair = single_pairs_[static_cast<size_t>(p)];
      queries_[static_cast<size_t>(pair.query)]->MarginalsAt(
          std::span<const int>(&pair.key, 1),
          std::span<double>(&single_deltas_[static_cast<size_t>(p)], 1));
    }
  });
  double positive_sum = 0.0;
  for (int p = 0; p < m; ++p) {
    if (single_deltas_[static_cast<size_t>(p)] > 0.0) {
      positive_sum += single_deltas_[static_cast<size_t>(p)];
    }
    ++calls_[static_cast<size_t>(single_pairs_[static_cast<size_t>(p)].query)];
  }
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
