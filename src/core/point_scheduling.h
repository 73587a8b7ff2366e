#ifndef PSENS_CORE_POINT_SCHEDULING_H_
#define PSENS_CORE_POINT_SCHEDULING_H_

#include <cstdint>
#include <vector>

#include "core/point_query.h"
#include "core/slot.h"
#include "solver/facility_location.h"

namespace psens {

/// How single-sensor point queries are scheduled within a slot
/// (Section 3.1 and the baseline of Section 4.3).
enum class PointScheduler {
  /// Exact BILP of Eq. (9) via branch-and-bound.
  kOptimal,
  /// Deterministic local search for non-monotone submodular u (Eq. 12),
  /// the 1/3-approximation of Feige et al. used by the paper.
  kLocalSearch,
  /// Randomized local-search variant: improvement moves scanned in random
  /// order with random restarts (practical stand-in for the randomized
  /// 2/5-approximation mentioned in Section 3.1.2).
  kRandomizedLocalSearch,
  /// Paper baseline: queries processed on arrival one by one, each picking
  /// its best sensor; a selected sensor's cost drops to zero for later
  /// queries in the slot (buffered data is free).
  kBaseline,
};

/// Per-query outcome of point scheduling.
struct PointAssignment {
  /// Index into the scheduled query vector.
  int query = -1;
  /// Index into SlotContext::sensors, or -1 if the query got no sensor.
  int sensor = -1;
  /// Achieved valuation v_q(s) (0 when unsatisfied).
  double value = 0.0;
  /// Achieved reading quality theta.
  double quality = 0.0;
  /// Payment pi_{q,s} charged to the query (Eq. 11). Always < value for
  /// satisfied queries (individual rationality).
  double payment = 0.0;

  bool satisfied() const { return sensor >= 0 && value > 0.0; }
};

struct PointScheduleResult {
  std::vector<PointAssignment> assignments;  // one per query, same order
  /// Selected slot-sensor indices (each cost is paid once).
  std::vector<int> selected_sensors;
  double total_value = 0.0;
  double total_cost = 0.0;
  /// True when the optimal scheduler proved optimality (always true for
  /// heuristics, which make no claim).
  bool proven_optimal = false;

  double Utility() const { return total_value - total_cost; }
  int NumSatisfied() const;
};

struct PointSchedulingOptions {
  PointScheduler scheduler = PointScheduler::kLocalSearch;
  /// Restarts for the randomized local search.
  int restarts = 3;
  uint64_t seed = 1;
  /// Node budget for the exact branch-and-bound. On the evaluation's
  /// dense slots the contested core occasionally needs more nodes than
  /// this to *prove* optimality; the search then returns the best solution
  /// found (never worse than the local-search warm start) and flags
  /// `proven_optimal = false`.
  int64_t node_limit = 500'000;
};

/// Translates the slot's single-sensor point queries into the facility-
/// location form of Eq. (9): distinct queried locations become clients,
/// sensors become facilities, v_l(s) = sum of positive per-query values.
/// `location_of_query[i]` gives query i's location index.
FacilityLocationProblem BuildPointProblem(const std::vector<PointQuery>& queries,
                                          const SlotContext& slot,
                                          std::vector<int>* location_of_query);

/// Schedules single-sensor point queries with the chosen scheduler and
/// computes Eq. (11) payments.
PointScheduleResult SchedulePointQueries(const std::vector<PointQuery>& queries,
                                         const SlotContext& slot,
                                         const PointSchedulingOptions& options);

/// Local-search maximization of the submodular utility u (Eq. 12) over a
/// facility-location instance. Exposed for tests and micro-benchmarks.
FacilityLocationSolution LocalSearchFacility(const FacilityLocationProblem& problem,
                                             bool randomized = false,
                                             uint64_t seed = 1, int restarts = 1);

}  // namespace psens

#endif  // PSENS_CORE_POINT_SCHEDULING_H_
