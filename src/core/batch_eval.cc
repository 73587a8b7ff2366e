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

/// Cap on the pair buffer (entries, ~12 bytes each): dense plans — every
/// query interested in every sensor — would otherwise materialize the
/// full |Q| x n cross product per selection. Queries are windowed to this
/// budget instead; another pure performance/memory knob.
constexpr int64_t kMaxPairBufferEntries = int64_t{1} << 21;  // ~24 MB

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
  const size_t n = slot.sensors.size();
  SlotArena* arena = slot.arena;
  offsets_.Acquire(arena, queries.size() + 1);
  offsets_[0] = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    offsets_[qi + 1] =
        offsets_[qi] + static_cast<int64_t>(plan_.SensorsOf(static_cast<int>(qi)).size());
  }
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
  pair_sensor_.Acquire(arena, static_cast<size_t>(max_window));
  pair_delta_.Acquire(arena, static_cast<size_t>(max_window));
  counts_.Acquire(arena, queries.size());
  std::fill(counts_.begin(), counts_.end(), int64_t{0});
  // Both member-sized buffers stay unfilled: SweepQueries reads mark_
  // only at scan sensors, so only those start cleared, and EvaluateNets
  // clears positive_sum_ over its own eval set.
  mark_.Acquire(arena, n);
  for (int s : plan_.ScanSensors()) mark_[static_cast<size_t>(s)] = 0;
  positive_sum_.Acquire(arena, n);

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

void NetEvaluator::SweepQueries(int window_begin, int begin, int end) {
  const int64_t base = offsets_[static_cast<size_t>(window_begin)];
  for (int qi = begin; qi < end; ++qi) {
    const std::span<const int> candidates = plan_.SensorsOf(qi);
    int* sensors = pair_sensor_.data() + (offsets_[static_cast<size_t>(qi)] - base);
    double* deltas = pair_delta_.data() + (offsets_[static_cast<size_t>(qi)] - base);
    int64_t m = 0;
    for (int s : candidates) {
      if (mark_[static_cast<size_t>(s)]) sensors[m++] = s;
    }
    queries_[static_cast<size_t>(qi)]->MarginalValuesUncounted(
        std::span<const int>(sensors, static_cast<size_t>(m)),
        std::span<double>(deltas, static_cast<size_t>(m)));
    counts_[static_cast<size_t>(qi)] = m;
  }
}

void NetEvaluator::EvaluateNets(std::span<const int> sensors, double* net) {
  if (sensors.empty()) return;
  for (int s : sensors) {
    mark_[static_cast<size_t>(s)] = 1;
    positive_sum_[static_cast<size_t>(s)] = 0.0;
  }

  // Windows run sequentially in ascending query order; within a window,
  // stage 1 computes per-query batched deltas (each query's pairs land in
  // its own pre-laid slice, so parallel workers write disjoint memory and
  // the result is independent of scheduling) and stage 2 scatters them
  // into per-sensor positive-marginal accumulators in ascending query
  // order — across windows too, each sensor's sum stays one
  // floating-point chain in exactly the reference sensor-major loop's
  // (ascending query) order.
  for (size_t w = 0; w + 1 < windows_.size(); ++w) {
    const int wbegin = windows_[w];
    const int wend = windows_[w + 1];
    const int window_queries = wend - wbegin;
    if (window_queries <= 0) continue;
    if (parallel_ && sensors.size() >= kMinParallelSensors) {
      const int chunks = std::min(window_queries, pool_->size() * 8);
      const int per_chunk = (window_queries + chunks - 1) / chunks;
      pool_->ParallelFor(chunks, [&](int c) {
        const int begin = wbegin + c * per_chunk;
        const int end = std::min(wend, begin + per_chunk);
        if (begin < end) SweepQueries(wbegin, begin, end);
      });
    } else {
      SweepQueries(wbegin, wbegin, wend);
    }
    const int64_t base = offsets_[static_cast<size_t>(wbegin)];
    for (int qi = wbegin; qi < wend; ++qi) {
      const int* sensors_q =
          pair_sensor_.data() + (offsets_[static_cast<size_t>(qi)] - base);
      const double* deltas_q =
          pair_delta_.data() + (offsets_[static_cast<size_t>(qi)] - base);
      const int64_t m = counts_[static_cast<size_t>(qi)];
      for (int64_t j = 0; j < m; ++j) {
        if (deltas_q[j] > 0.0) {
          positive_sum_[static_cast<size_t>(sensors_q[j])] += deltas_q[j];
        }
      }
    }
  }

  // Stage 3: gather nets in eval-set order, clearing the marks. A sensor
  // no query lists collected no pairs, so its net is exactly -cost.
  for (size_t k = 0; k < sensors.size(); ++k) {
    const int s = sensors[k];
    net[k] = positive_sum_[static_cast<size_t>(s)] - ScaledCost(s);
    mark_[static_cast<size_t>(s)] = 0;
  }

  // Stage 4: batch-end accounting merge — one AddValuationCalls per query
  // from this (the coordinating) thread, never from workers.
  const int num_queries = static_cast<int>(queries_.size());
  for (int qi = 0; qi < num_queries; ++qi) {
    if (counts_[static_cast<size_t>(qi)] > 0) {
      queries_[static_cast<size_t>(qi)]->AddValuationCalls(
          counts_[static_cast<size_t>(qi)]);
    }
  }
}

double NetEvaluator::EvaluateNet(int sensor) {
  const std::span<const int> interested = plan_.QueriesOf(sensor);
  if (!parallel_ || interested.size() < kMinParallelQueries) {
    // Serial reference: counted scalar probes, ascending query order.
    double positive_sum = 0.0;
    for (int qi : interested) {
      const double delta = queries_[static_cast<size_t>(qi)]->MarginalValue(sensor);
      if (delta > 0.0) positive_sum += delta;
    }
    return positive_sum - ScaledCost(sensor);
  }

  // Stale-front re-evaluation batch: the sensor's per-query deltas are
  // pure and independent, so workers fill disjoint slots of a dense array
  // and the ascending-order reduction below reproduces the serial
  // floating-point chain exactly.
  const int m = static_cast<int>(interested.size());
  single_deltas_.resize(static_cast<size_t>(m));
  const int probe = sensor;
  const int chunks = std::min(m, pool_->size() * 8);
  const int per_chunk = (m + chunks - 1) / chunks;
  pool_->ParallelFor(chunks, [&](int c) {
    const int begin = c * per_chunk;
    const int end = std::min(m, begin + per_chunk);
    for (int p = begin; p < end; ++p) {
      queries_[static_cast<size_t>(interested[static_cast<size_t>(p)])]
          ->MarginalValuesUncounted(
              std::span<const int>(&probe, 1),
              std::span<double>(&single_deltas_[static_cast<size_t>(p)], 1));
    }
  });
  double positive_sum = 0.0;
  for (int p = 0; p < m; ++p) {
    if (single_deltas_[static_cast<size_t>(p)] > 0.0) {
      positive_sum += single_deltas_[static_cast<size_t>(p)];
    }
  }
  for (int qi : interested) {
    queries_[static_cast<size_t>(qi)]->AddValuationCalls(1);
  }
  return positive_sum - ScaledCost(sensor);
}

}  // namespace psens
