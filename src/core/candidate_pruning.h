#ifndef PSENS_CORE_CANDIDATE_PRUNING_H_
#define PSENS_CORE_CANDIDATE_PRUNING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/arena.h"
#include "core/multi_query.h"

namespace psens {

/// Inverted candidate index for one joint selection run: which queries can
/// possibly assign positive marginal value to which sensor. Built from the
/// queries' CandidateSensors() hooks; a query exposing no candidate list
/// ("dense") is attached to every sensor.
///
/// The plan is exact, not heuristic: CandidateSensors() is contractually
/// conservative (a sensor outside the list has marginal value <= 0 against
/// every possible selection state), so a sensor with no interested query
/// has net gain <= -cost and can never be picked by Algorithm 1's
/// positive-net rule. Scanning `sensors` (ascending) instead of all slot
/// sensors, and summing marginals over `QueriesOf(s)` (ascending
/// query order) instead of all queries, therefore reproduces the dense
/// scan's selections, payments, and tie-breaks bit for bit.
struct CandidatePlan {
  /// False when no query exposed a candidate list; engines then run the
  /// reference dense loops (identical behaviour *and* identical
  /// valuation-call counts to the pre-index code).
  bool active = false;
  /// Scan sensors, ascending: those with at least one interested query
  /// (every sensor when the plan is inactive or some query is dense).
  /// Position r in this list is the sensor's scan row.
  ArenaBuffer<int> sensors;
  /// One bit per slot sensor, set for scan sensors (active plans only).
  /// QueriesOf tests it before touching row_of, so sensors no query lists
  /// — the sieve's arrivals and carried bucket members — resolve to an
  /// empty query run without reading row_of.
  ArenaBuffer<uint64_t> scan_bits;
  /// Scan row of each scan sensor: sensors[row_of[s]] == s. Written only
  /// where s's scan bit is set, and read only there, so the buffer is
  /// never filled — an active plan costs O(pairs + n/64), not O(n).
  ArenaBuffer<int> row_of;
  /// CSR inverted index over scan rows: row r's interested queries,
  /// ascending by query position, are qs_data[qs_offsets[r] ..
  /// qs_offsets[r+1]). One flat slab (arena-backed when the slot carries
  /// an arena) instead of a vector per sensor, so each sensor's query run
  /// is a contiguous read.
  ArenaBuffer<int64_t> qs_offsets;
  ArenaBuffer<int> qs_data;
  /// Dense query fallback (0..Q-1), filled only when the plan is inactive.
  ArenaBuffer<int> all_queries;

  /// Per query: where its candidate sensor list (ascending) lives — the
  /// query-major mirror of QueriesOf, used by the batched round
  /// evaluator (core/batch_eval.h) to sweep each query's sensors in one
  /// MarginalValues call. `external` points into the query object's own
  /// CandidateSensors() storage (stable during a selection run and across
  /// plan moves); `sanitized_index` selects a plan-owned copy when a hook
  /// returned out-of-range ids; neither set means the dense fallback.
  struct QueryCandidateRef {
    const std::vector<int>* external = nullptr;
    int sanitized_index = -1;
  };
  std::vector<QueryCandidateRef> query_candidates;
  /// Backing storage for sanitized query_candidates entries.
  std::vector<std::vector<int>> sanitized;

  /// Sensors an engine must scan (ascending).
  std::span<const int> ScanSensors() const {
    return {sensors.data(), sensors.size()};
  }
  /// Queries that may value `sensor`, ascending; empty for a sensor no
  /// query lists.
  std::span<const int> QueriesOf(int sensor) const {
    if (!active) return {all_queries.data(), all_queries.size()};
    const size_t s = static_cast<size_t>(sensor);
    if (((scan_bits[s >> 6] >> (s & 63)) & 1) == 0) return {};
    const size_t row = static_cast<size_t>(row_of[s]);
    const size_t b = static_cast<size_t>(qs_offsets[row]);
    const size_t e = static_cast<size_t>(qs_offsets[row + 1]);
    return {qs_data.data() + b, e - b};
  }
  /// Sensors query `query` may value (ascending), resolving the dense
  /// fallback. Scanning these per query and summing into per-sensor
  /// accumulators in ascending query order visits exactly the (sensor,
  /// query) pairs of the sensor-major reference loops, with the identical
  /// per-sensor accumulation order.
  std::span<const int> SensorsOf(int query) const {
    const QueryCandidateRef& ref = query_candidates[static_cast<size_t>(query)];
    if (ref.external != nullptr) return {ref.external->data(), ref.external->size()};
    if (ref.sanitized_index >= 0) {
      const std::vector<int>& s = sanitized[static_cast<size_t>(ref.sanitized_index)];
      return {s.data(), s.size()};
    }
    // A dense query: every sensor is a scan sensor.
    return ScanSensors();
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
/// asserts that every query *not* in the plan's list for `sensor` indeed
/// reports a non-positive marginal value. Compiled to a no-op in NDEBUG
/// builds (the extra MarginalValue probes would otherwise distort the
/// valuation-call diagnostics and the asymptotics pruning exists to fix).
void CheckPrunedMarginals(const std::vector<MultiQuery*>& queries,
                          const CandidatePlan& plan, int sensor);

}  // namespace psens

#endif  // PSENS_CORE_CANDIDATE_PRUNING_H_
