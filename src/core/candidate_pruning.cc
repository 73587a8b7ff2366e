#include "core/candidate_pruning.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

namespace psens {

CandidatePlan BuildCandidatePlan(const std::vector<MultiQuery*>& queries,
                                 int num_sensors, SlotArena* arena) {
  CandidatePlan plan;
  const size_t n = static_cast<size_t>(num_sensors);
  for (const MultiQuery* q : queries) {
    if (q->CandidateSensors() != nullptr) {
      plan.active = true;
      break;
    }
  }
  plan.query_candidates.assign(queries.size(), CandidatePlan::QueryCandidateRef{});
  if (!plan.active) {
    plan.sensors.Acquire(arena, n);
    std::iota(plan.sensors.begin(), plan.sensors.end(), 0);
    plan.all_queries.Acquire(arena, queries.size());
    std::iota(plan.all_queries.begin(), plan.all_queries.end(), 0);
    // Default-constructed refs resolve to the dense fallback.
    return plan;
  }

  // Mark pass: one bit per sensor some query lists. A dense query
  // attaches to every sensor; out-of-range candidate entries are dropped
  // here and mirrored below by the sanitized query-major copies.
  const size_t words = (n + 63) / 64;
  plan.scan_bits.Acquire(arena, words);
  std::fill(plan.scan_bits.begin(), plan.scan_bits.end(), uint64_t{0});
  int64_t num_dense = 0;
  for (const MultiQuery* q : queries) {
    const std::vector<int>* candidates = q->CandidateSensors();
    if (candidates == nullptr) {
      ++num_dense;
      continue;
    }
    for (int s : *candidates) {
      if (s >= 0 && s < num_sensors) {
        plan.scan_bits[static_cast<size_t>(s) >> 6] |= uint64_t{1} << (s & 63);
      }
    }
  }
  if (num_dense > 0 && words > 0) {
    std::fill(plan.scan_bits.begin(), plan.scan_bits.end(), ~uint64_t{0});
    if (n % 64 != 0) plan.scan_bits[words - 1] = (uint64_t{1} << (n % 64)) - 1;
  }

  // Sweep pass: set bits, ascending, become the scan rows.
  size_t num_scan = 0;
  for (size_t w = 0; w < words; ++w) {
    num_scan += static_cast<size_t>(std::popcount(plan.scan_bits[w]));
  }
  plan.sensors.Acquire(arena, num_scan);
  plan.row_of.Acquire(arena, n);
  size_t row = 0;
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t bits = plan.scan_bits[w]; bits != 0; bits &= bits - 1) {
      const int s = static_cast<int>(w * 64) + std::countr_zero(bits);
      plan.sensors[row] = s;
      plan.row_of[static_cast<size_t>(s)] = static_cast<int>(row);
      ++row;
    }
  }

  // Counting pass: per-row interested-query tallies, then a prefix sum.
  plan.qs_offsets.Acquire(arena, num_scan + 1);
  plan.qs_offsets[0] = 0;
  std::fill(plan.qs_offsets.begin() + 1, plan.qs_offsets.end(), num_dense);
  for (const MultiQuery* q : queries) {
    const std::vector<int>* candidates = q->CandidateSensors();
    if (candidates == nullptr) continue;
    for (int s : *candidates) {
      if (s >= 0 && s < num_sensors) {
        ++plan.qs_offsets[static_cast<size_t>(plan.row_of[static_cast<size_t>(s)]) + 1];
      }
    }
  }
  for (size_t r = 0; r < num_scan; ++r) {
    plan.qs_offsets[r + 1] += plan.qs_offsets[r];
  }
  plan.qs_data.Acquire(arena, static_cast<size_t>(plan.qs_offsets[num_scan]));

  // Fill pass in ascending qi order: every per-row query run stays
  // ascending, preserving the dense scan's marginal accumulation order
  // exactly. cursor[r] tracks the next free slot of row r's run.
  ArenaBuffer<int64_t> cursor;
  cursor.Acquire(arena, num_scan);
  std::copy(plan.qs_offsets.begin(), plan.qs_offsets.begin() + num_scan,
            cursor.begin());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::vector<int>* candidates = queries[qi]->CandidateSensors();
    if (candidates == nullptr) {
      for (size_t r = 0; r < num_scan; ++r) {
        plan.qs_data[static_cast<size_t>(cursor[r]++)] = static_cast<int>(qi);
      }
      continue;
    }
    bool in_range = true;
    for (int s : *candidates) {
      if (s >= 0 && s < num_sensors) {
        const size_t r = static_cast<size_t>(plan.row_of[static_cast<size_t>(s)]);
        plan.qs_data[static_cast<size_t>(cursor[r]++)] = static_cast<int>(qi);
      } else {
        in_range = false;
      }
    }
    if (in_range) {
      plan.query_candidates[qi].external = candidates;
    } else {
      // Rare defensive path: mirror the in-range filter above so the
      // query-major view scans exactly the pairs the inverted index
      // indexes.
      plan.query_candidates[qi].sanitized_index =
          static_cast<int>(plan.sanitized.size());
      plan.sanitized.emplace_back();
      std::vector<int>& copy = plan.sanitized.back();
      for (int s : *candidates) {
        if (s >= 0 && s < num_sensors) copy.push_back(s);
      }
    }
  }
  return plan;
}

void CheckPrunedMarginals(const std::vector<MultiQuery*>& queries,
                          const CandidatePlan& plan, int sensor) {
#ifdef NDEBUG
  (void)queries;
  (void)plan;
  (void)sensor;
#else
  if (!plan.active) return;
  std::vector<char> interested(queries.size(), 0);
  for (int qi : plan.QueriesOf(sensor)) {
    interested[static_cast<size_t>(qi)] = 1;
  }
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (interested[qi]) continue;
    // The pruning contract: a sensor outside a query's candidate list can
    // never carry positive marginal value for it.
    assert(queries[qi]->MarginalValue(sensor) <= 1e-12 &&
           "candidate pruning dropped a sensor with positive marginal value");
  }
#endif
}

}  // namespace psens
