#include "core/candidate_pruning.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace psens {

CandidatePlan BuildCandidatePlan(const std::vector<MultiQuery*>& queries,
                                 int num_sensors, SlotArena* arena) {
  CandidatePlan plan;
  const size_t n = static_cast<size_t>(num_sensors);
  const size_t num_queries = queries.size();
  // One list call per query: a list is stable for the whole run.
  ArenaBuffer<const std::vector<int>*> lists;
  lists.Acquire(arena, num_queries);
  plan.key_offsets.Acquire(arena, num_queries + 1);
  plan.key_offsets[0] = 0;
  for (size_t qi = 0; qi < num_queries; ++qi) {
    lists[qi] = queries[qi]->CandidateSensors();
    plan.key_offsets[qi + 1] =
        plan.key_offsets[qi] + static_cast<int64_t>(lists[qi]->size());
  }
  plan.key_rows.Acquire(arena,
                        static_cast<size_t>(plan.key_offsets[num_queries]));

  // Mark pass: one bit per sensor some query lists. Out-of-range
  // candidate entries are dropped here and below.
  const size_t words = (n + 63) / 64;
  plan.scan_bits.Acquire(arena, words);
  std::fill(plan.scan_bits.begin(), plan.scan_bits.end(), uint64_t{0});
  for (size_t qi = 0; qi < num_queries; ++qi) {
    for (int s : *lists[qi]) {
      if (s >= 0 && s < num_sensors) {
        plan.scan_bits[static_cast<size_t>(s) >> 6] |= uint64_t{1} << (s & 63);
      }
    }
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
  plan.pair_offsets.Acquire(arena, num_scan + 1);
  std::fill(plan.pair_offsets.begin(), plan.pair_offsets.end(), int64_t{0});
  for (size_t qi = 0; qi < num_queries; ++qi) {
    for (int s : *lists[qi]) {
      if (s >= 0 && s < num_sensors) {
        const int r = plan.row_of[static_cast<size_t>(s)];
        ++plan.pair_offsets[static_cast<size_t>(r) + 1];
      }
    }
  }
  for (size_t r = 0; r < num_scan; ++r) {
    plan.pair_offsets[r + 1] += plan.pair_offsets[r];
  }
  plan.pairs.Acquire(arena, static_cast<size_t>(plan.pair_offsets[num_scan]));

  // Fill pass in ascending qi order: every per-row run stays ascending by
  // query, preserving the reference scan's marginal accumulation order
  // exactly. cursor[r] tracks the next free slot of row r's run. A key is
  // the entry's position in its query's own list, so it stays valid where
  // an out-of-range entry before it was dropped.
  ArenaBuffer<int64_t> cursor;
  cursor.Acquire(arena, num_scan);
  std::copy(plan.pair_offsets.begin(), plan.pair_offsets.begin() + num_scan,
            cursor.begin());
  for (size_t qi = 0; qi < num_queries; ++qi) {
    const std::vector<int>& list = *lists[qi];
    int* key_rows = plan.key_rows.data() + plan.key_offsets[qi];
    for (size_t k = 0; k < list.size(); ++k) {
      const int s = list[k];
      if (s < 0 || s >= num_sensors) {
        key_rows[k] = -1;
        continue;
      }
      const int r = plan.row_of[static_cast<size_t>(s)];
      plan.pairs[static_cast<size_t>(cursor[static_cast<size_t>(r)]++)] =
          CandidatePair{static_cast<int>(qi), static_cast<int>(k)};
      key_rows[k] = r;
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
  std::vector<char> interested(queries.size(), 0);
  const int row = plan.RowOf(sensor);
  if (row >= 0) {
    for (const CandidatePair& p : plan.PairsOf(row)) {
      interested[static_cast<size_t>(p.query)] = 1;
    }
  }
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (interested[qi]) continue;
    // The pruning contract: a sensor outside a query's candidate list can
    // never carry positive marginal value for it. The probe is a check,
    // not a valuation of the run: cancel whatever it counted.
    const MultiQuery& q = *queries[qi];
    const int64_t calls_before = q.ValuationCalls();
    const double delta = q.MarginalValue(sensor);
    q.AddValuationCalls(calls_before - q.ValuationCalls());
    assert(delta <= 1e-12 &&
           "candidate pruning dropped a sensor with positive marginal value");
  }
#endif
}

}  // namespace psens
