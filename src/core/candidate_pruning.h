#ifndef PSENS_CORE_CANDIDATE_PRUNING_H_
#define PSENS_CORE_CANDIDATE_PRUNING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/arena.h"
#include "core/multi_query.h"

namespace psens {

/// One entry of a scan row's CSR run: `query` is the query's position in
/// the selection's query list, and `key` is the row's sensor's position in
/// that query's CandidateSensors() list, which addresses the query's own
/// candidate-sized state (MultiQuery::MarginalsAt).
struct CandidatePair {
  int query;
  int key;
};

/// Inverted candidate index for one joint selection run: which queries can
/// possibly assign positive marginal value to which sensor, and under
/// which key each query addresses it. Built from the queries'
/// CandidateSensors() lists.
///
/// The plan is exact, not heuristic: CandidateSensors() is contractually
/// conservative (a sensor outside the list has marginal value <= 0 against
/// every possible selection state), so a sensor with no interested query
/// has net gain <= -cost and can never be picked by Algorithm 1's
/// positive-net rule. Scanning `sensors` (ascending) instead of all slot
/// sensors, and summing marginals over a row's pairs (ascending query
/// order) instead of all queries, therefore selects, pays and breaks ties
/// bit for bit as a scan of every (sensor, query) pair would.
///
/// Everything selection touches is addressed by scan row or by key, so
/// the plan's per-run state is sized by candidate pairs; only the
/// unfilled `row_of` and the n/64-word `scan_bits` span the membership.
struct CandidatePlan {
  /// Scan sensors, ascending: those with at least one interested query.
  /// Position r in this list is the sensor's scan row, so rows ascend
  /// with sensor index.
  ArenaBuffer<int> sensors;
  /// One bit per slot sensor, set for scan sensors. RowOf tests it before
  /// touching row_of, so sensors no query lists — the sieve's arrivals
  /// and carried bucket members — resolve to no row without reading
  /// row_of.
  ArenaBuffer<uint64_t> scan_bits;
  /// Scan row of each scan sensor: sensors[row_of[s]] == s. Written only
  /// where s's scan bit is set, and read only there, so the buffer is
  /// never filled — a plan costs O(pairs + n/64), not O(n).
  ArenaBuffer<int> row_of;
  /// CSR over scan rows: row r's interested queries and their keys,
  /// ascending by query position, are
  /// pairs[pair_offsets[r] .. pair_offsets[r+1]). One flat slab
  /// (arena-backed when the slot carries an arena), so a CELF
  /// re-evaluation walks one contiguous run.
  ArenaBuffer<int64_t> pair_offsets;
  ArenaBuffer<CandidatePair> pairs;
  /// Query-major mirror of the pairs, by key (one range per query, so
  /// key_offsets holds |Q| + 1 entries): entry k of query q's
  /// CandidateSensors() list maps to key_rows[key_offsets[q] + k], its
  /// scan row, or -1 for an out-of-range entry the plan dropped. The
  /// batched round evaluator (core/batch_eval.h) sweeps each query's keys
  /// through it.
  ArenaBuffer<int64_t> key_offsets;
  ArenaBuffer<int> key_rows;

  /// Number of scan rows.
  int NumRows() const { return static_cast<int>(sensors.size()); }
  /// Sensors an engine must scan (ascending), indexed by row.
  std::span<const int> ScanSensors() const {
    return {sensors.data(), sensors.size()};
  }
  /// Scan row of slot sensor `sensor`, or -1 when no query lists it.
  int RowOf(int sensor) const {
    const size_t s = static_cast<size_t>(sensor);
    if (((scan_bits[s >> 6] >> (s & 63)) & 1) == 0) return -1;
    return row_of[s];
  }
  /// Row `row`'s (query, key) pairs, ascending by query.
  std::span<const CandidatePair> PairsOf(int row) const {
    const size_t r = static_cast<size_t>(row);
    const size_t b = static_cast<size_t>(pair_offsets[r]);
    const size_t e = static_cast<size_t>(pair_offsets[r + 1]);
    return {pairs.data() + b, e - b};
  }
  /// Scan rows of query `query`'s keys (-1 for dropped entries).
  std::span<const int> KeyRows(int query) const {
    const size_t q = static_cast<size_t>(query);
    const size_t b = static_cast<size_t>(key_offsets[q]);
    const size_t e = static_cast<size_t>(key_offsets[q + 1]);
    return {key_rows.data() + b, e - b};
  }
};

/// Builds the plan for one selection run. `arena` (usually
/// SlotContext::arena, may be null) backs the plan's flat index storage;
/// the plan must then not outlive the arena's next Reset — engines build
/// it per selection inside one slot, which satisfies this by construction.
CandidatePlan BuildCandidatePlan(const std::vector<MultiQuery*>& queries,
                                 int num_sensors,
                                 SlotArena* arena = nullptr);

/// Debug cross-check of the pruning contract for one committed sensor:
/// asserts that every query *not* in the plan's run for `sensor` indeed
/// reports a non-positive marginal value. Each probe cancels its own
/// accounting, so every ValuationCalls() count is the same with and
/// without assertions. Compiled to a no-op in NDEBUG builds (the extra
/// probes would cost the asymptotics pruning exists to fix).
void CheckPrunedMarginals(const std::vector<MultiQuery*>& queries,
                          const CandidatePlan& plan, int sensor);

}  // namespace psens

#endif  // PSENS_CORE_CANDIDATE_PRUNING_H_
