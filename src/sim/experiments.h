#ifndef PSENS_SIM_EXPERIMENTS_H_
#define PSENS_SIM_EXPERIMENTS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/geometry.h"
#include "core/point_scheduling.h"
#include "core/slot.h"
#include "data/gaussian_field.h"
#include "gp/kernel.h"
#include "mobility/trace.h"
#include "sim/workload.h"

namespace psens {

/// Aggregated outcome of one simulation run (50 slots by default).
struct ExperimentResult {
  /// Average utility (social welfare) per time slot.
  double avg_utility = 0.0;
  /// Fraction of one-shot queries answered (point experiments).
  double satisfaction = 0.0;
  /// Mean quality of results over answered/completed queries.
  double avg_quality = 0.0;
  /// Diagnostics.
  double avg_cost = 0.0;
  double avg_value = 0.0;
  int64_t total_queries = 0;
  int64_t answered_queries = 0;
};

// ---------------------------------------------------------------------------
// Single-sensor point queries (Figs. 2-6)
// ---------------------------------------------------------------------------

struct PointExperimentConfig {
  const Trace* trace = nullptr;
  Rect working_region;
  double dmax = 5.0;
  int num_slots = 50;
  int queries_per_slot = 300;
  BudgetScheme budget;
  double theta_min = 0.2;
  PointScheduler scheduler = PointScheduler::kLocalSearch;
  SensorPopulationConfig sensors;  // `count` must match the trace
  /// Spatial-index policy for each slot's sensor population (kGrid: index
  /// every slot, prune valuations; kNone: reference full scans). Pruned
  /// and unpruned runs produce bit-identical results.
  SlotIndexPolicy index_policy = SlotIndexPolicy::kGrid;
  uint64_t seed = 123;
  int64_t node_limit = 500'000;
  /// Worker threads sharding the simulation slots; 0 = hardware
  /// concurrency. Slot workloads derive from per-slot RNG streams and the
  /// reduction runs in slot order, so the result is bit-identical for any
  /// value. Only honored when the sensor population has no cross-slot
  /// feedback (see HasCrossSlotFeedback); with feedback (linear energy,
  /// privacy, short lifetimes) slots are inherently sequential and run on
  /// one thread regardless.
  int parallelism = 0;
};

ExperimentResult RunPointExperiment(const PointExperimentConfig& config);

// ---------------------------------------------------------------------------
// Spatial-aggregate queries (Fig. 7)
// ---------------------------------------------------------------------------

struct AggregateExperimentConfig {
  const Trace* trace = nullptr;
  Rect working_region;
  double sensing_range = 10.0;
  int num_slots = 50;
  int mean_queries_per_slot = 30;
  double budget_factor = 15.0;
  /// True: Algorithm 1. False: sequential baseline (Section 4.4).
  bool greedy = true;
  SensorPopulationConfig sensors;
  /// Same contract as PointExperimentConfig::index_policy.
  SlotIndexPolicy index_policy = SlotIndexPolicy::kGrid;
  uint64_t seed = 123;
  /// Same contract as PointExperimentConfig::parallelism.
  int parallelism = 0;
};

ExperimentResult RunAggregateExperiment(const AggregateExperimentConfig& config);

// ---------------------------------------------------------------------------
// Location-monitoring queries (Fig. 8)
// ---------------------------------------------------------------------------

struct LocationMonitoringExperimentConfig {
  const Trace* trace = nullptr;
  Rect working_region;
  double dmax = 10.0;
  int num_slots = 50;
  double budget_factor = 15.0;
  /// Scheduler for the generated point queries: kOptimal (Alg2-O),
  /// kLocalSearch (Alg2-LS) or kBaseline.
  PointScheduler point_scheduler = PointScheduler::kOptimal;
  /// Baseline mode: point queries only at desired sampling times.
  bool desired_times_only = false;
  double alpha = 0.5;
  int max_alive = 100;
  int min_arrivals = 3;
  int max_arrivals = 10;
  /// Historical series (previous day) driving Eq. (16)-(17).
  std::vector<double> history_times;
  std::vector<double> history_values;
  SensorPopulationConfig sensors;
  /// Same contract as PointExperimentConfig::index_policy.
  SlotIndexPolicy index_policy = SlotIndexPolicy::kGrid;
  uint64_t seed = 123;
};

ExperimentResult RunLocationMonitoringExperiment(
    const LocationMonitoringExperimentConfig& config);

// ---------------------------------------------------------------------------
// Region-monitoring queries (Fig. 9)
// ---------------------------------------------------------------------------

struct RegionMonitoringExperimentConfig {
  /// Field extents (the Intel-lab substitute is 20 x 15).
  Rect field{0, 0, 20, 15};
  /// Spatial kernel of the phenomenon (learned by the paper from a
  /// fraction of the readings; here the generator's own kernel).
  std::shared_ptr<const Kernel> kernel;
  int num_sensors = 30;
  int num_slots = 50;
  double budget_factor = 15.0;
  double sensing_radius = 2.0;
  double alpha = 0.5;
  /// Algorithm 3 (true) vs the Section 4.6 baseline (false: no cost
  /// weighting, no sharing, baseline point scheduling).
  bool use_alg3 = true;
  /// Ablation toggles (only meaningful when use_alg3).
  bool cost_weighting = true;
  bool share_extra_sensors = true;
  SensorPopulationConfig sensors;
  /// Same contract as PointExperimentConfig::index_policy.
  SlotIndexPolicy index_policy = SlotIndexPolicy::kGrid;
  uint64_t seed = 123;
};

ExperimentResult RunRegionMonitoringExperiment(
    const RegionMonitoringExperimentConfig& config);

// ---------------------------------------------------------------------------
// Query mix (Fig. 10)
// ---------------------------------------------------------------------------

struct QueryMixExperimentConfig {
  const Trace* trace = nullptr;
  Rect working_region;
  double dmax = 10.0;
  int num_slots = 50;
  double budget_factor = 15.0;
  int point_queries_per_slot = 300;
  int mean_aggregate_queries = 30;
  int max_alive_monitoring = 100;
  /// Algorithm 5 (true) vs the Section 4.7 baseline (false).
  bool use_alg5 = true;
  double alpha = 0.5;
  std::vector<double> history_times;
  std::vector<double> history_values;
  SensorPopulationConfig sensors;
  /// Same contract as PointExperimentConfig::index_policy.
  SlotIndexPolicy index_policy = SlotIndexPolicy::kGrid;
  uint64_t seed = 123;
};

struct QueryMixResultSummary {
  double avg_utility = 0.0;
  double point_quality = 0.0;
  double point_satisfaction = 0.0;
  double aggregate_quality = 0.0;
  double monitoring_quality = 0.0;
  double avg_cost = 0.0;
  double avg_value = 0.0;
};

QueryMixResultSummary RunQueryMixExperiment(const QueryMixExperimentConfig& config);

/// Applies a trace slot to the sensor registry (position + presence).
void ApplyTraceSlot(const Trace& trace, int slot, std::vector<Sensor>* sensors);

}  // namespace psens

#endif  // PSENS_SIM_EXPERIMENTS_H_
