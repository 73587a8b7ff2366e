#ifndef PSENS_CORE_QUERY_MIX_H_
#define PSENS_CORE_QUERY_MIX_H_

#include <cstdint>
#include <vector>

#include "core/aggregate_query.h"
#include "core/location_monitoring.h"
#include "core/point_query.h"
#include "core/region_monitoring.h"
#include "core/slot.h"

namespace psens {

/// Per-query-type metrics of one slot.
struct TypeMetrics {
  int total = 0;
  int answered = 0;
  double value = 0.0;
  /// Sum over answered queries of achieved value / max value.
  double quality_sum = 0.0;
};

struct QueryMixSlotResult {
  /// Total valuation realized this slot (user point + aggregate values +
  /// monitoring valuation gains; generated point queries are not counted
  /// separately — their value is what they contribute to their parent
  /// continuous query).
  double total_value = 0.0;
  /// Total cost of all selected sensors (each paid once).
  double total_cost = 0.0;
  /// Slot-sensor indices selected for any query.
  std::vector<int> selected_sensors;
  TypeMetrics point;
  TypeMetrics aggregate;
  double location_value_gain = 0.0;
  double region_value_gain = 0.0;
  int64_t valuation_calls = 0;

  double Utility() const { return total_value - total_cost; }
};

struct QueryMixOptions {
  /// True: Algorithm 5 (joint greedy selection, sharing, cost weighting).
  /// False: the Section 4.7 baseline — aggregates first (sequential
  /// baseline), then all point queries with the arrival-order baseline;
  /// continuous queries should then be configured to emit point queries
  /// only at desired times.
  bool use_greedy = true;
};

/// Algorithm 5 ("Data Acquisition for Query Mix") for one time slot:
///  1. generate point queries for location/region monitoring queries,
///  2. jointly select sensors for everything with Algorithm 1 (with the
///     Eq. 18 cost weights from the region manager),
///  3. apply results back to the continuous-query managers (which may
///     contribute payments for shared sensors),
///  4. account values, costs, and per-type quality.
///
/// `location_manager` / `region_manager` may be null when the mix has no
/// queries of that type (e.g. Fig. 10 excludes region monitoring).
QueryMixSlotResult RunQueryMixSlot(const SlotContext& slot,
                                   const std::vector<PointQuery>& user_point_queries,
                                   const std::vector<AggregateQuery::Params>& aggregates,
                                   LocationMonitoringManager* location_manager,
                                   RegionMonitoringManager* region_manager,
                                   const QueryMixOptions& options);

}  // namespace psens

#endif  // PSENS_CORE_QUERY_MIX_H_
