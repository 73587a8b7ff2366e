#include "core/point_scheduling.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "index/spatial_index.h"

namespace psens {
namespace {

/// Fills per-query assignment records and Eq. (11) payments given the
/// location -> sensor assignment of a facility-location solution.
PointScheduleResult MakeResult(const std::vector<PointQuery>& queries,
                               const SlotContext& slot,
                               const std::vector<int>& location_of_query,
                               const FacilityLocationSolution& solution) {
  PointScheduleResult result;
  result.assignments.resize(queries.size());
  result.proven_optimal = solution.proven_optimal;

  // Total valuation each selected sensor yields across its assigned
  // locations (the denominator of Eq. 11).
  std::vector<double> sensor_total_value(slot.sensors.size(), 0.0);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const int loc = location_of_query[qi];
    const int sensor = loc >= 0 ? solution.assignment[loc] : -1;
    if (sensor < 0) continue;
    sensor_total_value[sensor] +=
        PointQueryValue(queries[qi], slot.sensors.Row(sensor), slot.dmax);
  }

  for (int i = 0; i < static_cast<int>(slot.sensors.size()); ++i) {
    if (i < static_cast<int>(solution.open.size()) && solution.open[i] &&
        sensor_total_value[i] > 0.0) {
      result.selected_sensors.push_back(i);
      result.total_cost += slot.sensors.cost[i];
    }
  }

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    PointAssignment& a = result.assignments[qi];
    a.query = static_cast<int>(qi);
    const int loc = location_of_query[qi];
    const int sensor = loc >= 0 ? solution.assignment[loc] : -1;
    if (sensor < 0) continue;
    const SlotSensor s = slot.sensors.Row(sensor);
    const double value = PointQueryValue(queries[qi], s, slot.dmax);
    if (value <= 0.0) continue;  // co-located query below its theta_min
    a.sensor = sensor;
    a.value = value;
    a.quality = SlotQuality(s, queries[qi].location, slot.dmax);
    // Eq. (11): pi = v_q(s) * c_s / (total valuation yielded by s).
    a.payment = value * s.cost / sensor_total_value[sensor];
    result.total_value += value;
  }
  return result;
}

PointScheduleResult RunBaseline(const std::vector<PointQuery>& queries,
                                const SlotContext& slot) {
  PointScheduleResult result;
  result.assignments.resize(queries.size());
  std::vector<double> remaining_cost = slot.sensors.cost;
  // A sensor already selected for an earlier query also answers any later
  // query at the same location for free; we implement the more general
  // rule from Section 4.3 (cost of selected sensors drops to zero).
  std::vector<char> selected(slot.sensors.size(), 0);
  // On indexed slots only sensors within dmax of the query can have
  // positive value (Eq. 4); the range probe returns them ascending, so the
  // arg-max tie-breaks exactly like the full ascending scan.
  std::vector<int> all_sensors;
  if (slot.index == nullptr) {
    all_sensors.resize(slot.sensors.size());
    std::iota(all_sensors.begin(), all_sensors.end(), 0);
  }
  std::vector<int> candidates;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    PointAssignment& a = result.assignments[qi];
    a.query = static_cast<int>(qi);
    int best_sensor = -1;
    double best_utility = 0.0;
    double best_value = 0.0;
    if (slot.index != nullptr) {
      slot.index->RangeQuery(queries[qi].location, slot.dmax, &candidates);
    }
    const std::vector<int>& scan = slot.index != nullptr ? candidates : all_sensors;
    for (int si : scan) {
      const double value =
          PointQueryValue(queries[qi], slot.sensors.Row(si), slot.dmax);
      if (value <= 0.0) continue;
      const double utility = value - remaining_cost[si];
      if (utility > best_utility) {
        best_utility = utility;
        best_sensor = si;
        best_value = value;
      }
    }
    if (best_sensor < 0) continue;
    a.sensor = best_sensor;
    a.value = best_value;
    a.quality = SlotQuality(slot.sensors.Row(best_sensor), queries[qi].location,
                            slot.dmax);
    a.payment = remaining_cost[best_sensor];  // first user pays the full price
    result.total_value += best_value;
    if (!selected[best_sensor]) {
      selected[best_sensor] = 1;
      result.selected_sensors.push_back(best_sensor);
      result.total_cost += slot.sensors.cost[best_sensor];
    }
    remaining_cost[best_sensor] = 0.0;
  }
  return result;
}

/// Local-search engine over a facility-location instance, maintaining
/// per-location best and second-best open coverers so add/remove gains are
/// O(coverage) per candidate.
class FacilityLocalSearch {
 public:
  FacilityLocalSearch(const FacilityLocationProblem& problem, double epsilon)
      : problem_(problem),
        epsilon_(epsilon),
        n_(problem.NumSensors()),
        covers_(problem.num_locations) {
    active_.resize(n_);
    for (int i = 0; i < n_; ++i) {
      for (const auto& [loc, v] : problem_.value[i]) {
        covers_[loc].emplace_back(i, v);
      }
      // A sensor covering nothing has AddGain = -open_cost <= 0 and can
      // never be opened; skipping it in every scan is exact and keeps the
      // search O(candidates) instead of O(population) on pruned problems
      // where most of a large slot covers no queried location.
      active_[i] = !problem_.value[i].empty() || problem_.open_cost[i] < 0.0;
    }
    Reset();
  }

  bool active(int i) const { return active_[i] != 0; }

  void Reset() {
    open_.assign(n_, 0);
    best1_value_.assign(problem_.num_locations, 0.0);
    best1_sensor_.assign(problem_.num_locations, -1);
    best2_value_.assign(problem_.num_locations, 0.0);
    objective_ = 0.0;
  }

  double objective() const { return objective_; }
  const std::vector<char>& open() const { return open_; }

  double AddGain(int i) const {
    double gain = -problem_.open_cost[i];
    for (const auto& [loc, v] : problem_.value[i]) {
      if (v > best1_value_[loc]) gain += v - best1_value_[loc];
    }
    return gain;
  }

  double RemoveGain(int i) const {
    double gain = problem_.open_cost[i];
    for (const auto& [loc, v] : problem_.value[i]) {
      (void)v;
      if (best1_sensor_[loc] == i) gain -= best1_value_[loc] - best2_value_[loc];
    }
    return gain;
  }

  void Open(int i) {
    objective_ += AddGain(i);
    open_[i] = 1;
    for (const auto& [loc, v] : problem_.value[i]) {
      if (v > best1_value_[loc]) {
        best2_value_[loc] = best1_value_[loc];
        best1_value_[loc] = v;
        best1_sensor_[loc] = i;
      } else if (v > best2_value_[loc]) {
        best2_value_[loc] = v;
      }
    }
  }

  void Close(int i) {
    objective_ += RemoveGain(i);
    open_[i] = 0;
    for (const auto& [loc, v] : problem_.value[i]) {
      (void)v;
      RecomputeLocation(loc);
    }
  }

  /// Runs improvement passes (adds then removes) until a local optimum.
  /// `order` is the candidate scan order; inactive sensors are filtered
  /// out once up front (they can never open), keeping each pass
  /// O(candidates) instead of O(population) on pruned problems.
  void RunToLocalOptimum(const std::vector<int>& order) {
    std::vector<int> scan;
    scan.reserve(order.size());
    for (int i : order) {
      if (active_[i]) scan.push_back(i);
    }
    bool improved = true;
    while (improved) {
      improved = false;
      for (int i : scan) {
        if (!open_[i] && AddGain(i) > epsilon_) {
          Open(i);
          improved = true;
        }
      }
      for (int i : scan) {
        if (open_[i] && RemoveGain(i) > epsilon_) {
          Close(i);
          improved = true;
        }
      }
    }
  }

 private:
  void RecomputeLocation(int loc) {
    double b1 = 0.0, b2 = 0.0;
    int s1 = -1;
    for (const auto& [sensor, v] : covers_[loc]) {
      if (!open_[sensor]) continue;
      if (v > b1) {
        b2 = b1;
        b1 = v;
        s1 = sensor;
      } else if (v > b2) {
        b2 = v;
      }
    }
    best1_value_[loc] = b1;
    best1_sensor_[loc] = s1;
    best2_value_[loc] = b2;
  }

  const FacilityLocationProblem& problem_;
  const double epsilon_;
  const int n_;
  std::vector<char> active_;
  std::vector<std::vector<std::pair<int, double>>> covers_;
  std::vector<char> open_;
  std::vector<double> best1_value_;
  std::vector<int> best1_sensor_;
  std::vector<double> best2_value_;
  double objective_ = 0.0;
};

}  // namespace

int PointScheduleResult::NumSatisfied() const {
  int count = 0;
  for (const PointAssignment& a : assignments) {
    if (a.satisfied()) ++count;
  }
  return count;
}

FacilityLocationProblem BuildPointProblem(const std::vector<PointQuery>& queries,
                                          const SlotContext& slot,
                                          std::vector<int>* location_of_query) {
  FacilityLocationProblem problem;
  std::map<std::pair<double, double>, int> location_index;
  std::vector<Point> locations;
  location_of_query->assign(queries.size(), -1);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Point& p = queries[qi].location;
    auto [it, inserted] =
        location_index.try_emplace({p.x, p.y}, static_cast<int>(locations.size()));
    if (inserted) locations.push_back(p);
    (*location_of_query)[qi] = it->second;
  }
  problem.num_locations = static_cast<int>(locations.size());
  problem.open_cost = slot.sensors.cost;
  problem.value.resize(slot.sensors.size());

  // Queries grouped per location in arrival order, so each (location,
  // sensor) valuation sum accumulates in exactly the order the dense
  // query-major scan used.
  std::vector<std::vector<int>> queries_at(locations.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    queries_at[static_cast<size_t>((*location_of_query)[qi])].push_back(
        static_cast<int>(qi));
  }

  // v_l(s) = sum over queries at l of v_q(s) (Eq. 10 drops non-positive
  // entries: a sensor is simply never assigned where it yields nothing).
  // Only sensors within dmax of l can contribute (Eq. 4), so on indexed
  // slots each location values its range-probe candidates instead of the
  // whole population; candidates come back ascending, and locations are
  // processed in ascending order, so each sensor's sparse value list keeps
  // the reference (location-ascending) layout bit for bit.
  std::vector<int> all_sensors;
  if (slot.index == nullptr) {
    all_sensors.resize(slot.sensors.size());
    std::iota(all_sensors.begin(), all_sensors.end(), 0);
  }
  std::vector<int> candidates;
  std::vector<double> sums;
  for (size_t l = 0; l < locations.size(); ++l) {
    if (slot.index != nullptr) {
      slot.index->RangeQuery(locations[l], slot.dmax, &candidates);
    }
    const std::vector<int>& scan = slot.index != nullptr ? candidates : all_sensors;
    sums.assign(scan.size(), 0.0);
    for (int qi : queries_at[l]) {
      for (size_t k = 0; k < scan.size(); ++k) {
        const double v =
            PointQueryValue(queries[qi], slot.sensors.Row(scan[k]), slot.dmax);
        if (v > 0.0) sums[k] += v;
      }
    }
    for (size_t k = 0; k < scan.size(); ++k) {
      if (sums[k] > 0.0) {
        problem.value[scan[k]].emplace_back(static_cast<int>(l), sums[k]);
      }
    }
  }
  return problem;
}

FacilityLocationSolution LocalSearchFacility(const FacilityLocationProblem& problem,
                                             double epsilon, bool randomized,
                                             uint64_t seed, int restarts) {
  const int n = problem.NumSensors();
  FacilityLocalSearch search(problem, epsilon);
  Rng rng(seed);

  std::vector<char> best_open(n, 0);
  double best_objective = 0.0;

  const int rounds = randomized ? std::max(1, restarts) : 1;
  for (int round = 0; round < rounds; ++round) {
    search.Reset();
    std::vector<int> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    if (randomized) {
      rng.Shuffle(order);
      // Random warm start: open a few random sensors with positive gain.
      // The Bernoulli draw stays first so the RNG stream is identical with
      // and without the inactive-sensor shortcut.
      for (int i : order) {
        if (rng.Bernoulli(0.25) && search.active(i) && search.AddGain(i) > 0.0) {
          search.Open(i);
        }
      }
    } else {
      // Deterministic variant starts from the best singleton, per Feige
      // et al.'s Local Search.
      int best_single = -1;
      double best_gain = epsilon;
      for (int i = 0; i < n; ++i) {
        if (!search.active(i)) continue;
        const double g = search.AddGain(i);
        if (g > best_gain) {
          best_gain = g;
          best_single = i;
        }
      }
      if (best_single >= 0) search.Open(best_single);
    }
    search.RunToLocalOptimum(order);

    // The 1/3-approximation returns max(u(W), u(S \ W)); u(empty) = 0 is
    // also a candidate.
    std::vector<char> complement(n, 0);
    for (int i = 0; i < n; ++i) complement[i] = search.open()[i] ? 0 : 1;
    const double complement_objective = EvaluateOpenSet(problem, complement);
    if (search.objective() > best_objective) {
      best_objective = search.objective();
      best_open = search.open();
    }
    if (complement_objective > best_objective) {
      best_objective = complement_objective;
      best_open = complement;
    }
  }

  FacilityLocationSolution solution;
  solution.open = best_open;
  solution.proven_optimal = false;
  solution.objective = EvaluateOpenSet(problem, best_open, &solution.assignment);
  return solution;
}

PointScheduleResult SchedulePointQueries(const std::vector<PointQuery>& queries,
                                         const SlotContext& slot,
                                         const PointSchedulingOptions& options) {
  if (options.scheduler == PointScheduler::kBaseline) {
    return RunBaseline(queries, slot);
  }
  std::vector<int> location_of_query;
  const FacilityLocationProblem problem =
      BuildPointProblem(queries, slot, &location_of_query);
  FacilityLocationSolution solution;
  switch (options.scheduler) {
    case PointScheduler::kOptimal: {
      // Warm-start the branch-and-bound with the local-search solution;
      // a near-optimal incumbent prunes most of the tree.
      const FacilityLocationSolution warm =
          LocalSearchFacility(problem, options.epsilon, false, options.seed, 1);
      FacilityLocationSolver solver(options.node_limit);
      solution = solver.Solve(problem, &warm.open);
      break;
    }
    case PointScheduler::kLocalSearch:
      solution = LocalSearchFacility(problem, options.epsilon, false, options.seed, 1);
      break;
    case PointScheduler::kRandomizedLocalSearch:
      solution = LocalSearchFacility(problem, options.epsilon, true, options.seed,
                                     options.restarts);
      break;
    case PointScheduler::kBaseline:
      break;  // handled above
  }
  return MakeResult(queries, slot, location_of_query, solution);
}

}  // namespace psens
