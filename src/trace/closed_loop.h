#ifndef PSENS_TRACE_CLOSED_LOOP_H_
#define PSENS_TRACE_CLOSED_LOOP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/serving_config.h"
#include "sim/workload.h"
#include "trace/slot_server.h"

namespace psens {

/// Per-slot query-batch shape of the canonical churn workload — the
/// fig13 serving mix (clustered point queries plus overlapping
/// aggregate monitoring regions).
struct ChurnQueryConfig {
  int queries_per_slot = 64;
  int aggregates_per_slot = 8;
  /// Aggregate regions are (2*half)x(2*half) squares clipped to the
  /// field, centered with the population's clustered density.
  double aggregate_half = 25.0;
  double aggregate_range = 10.0;
  double aggregate_cell = 5.0;
  double point_budget = 15.0;
  double theta_min = 0.2;
};

/// Deterministic per-slot input generator over a ChurnScenarioSetup:
/// draws each slot's SensorDelta from the scenario's ChurnStream (fork 7)
/// and its query batch from the query stream (fork 8). The fig12 and
/// fig13 benches draw their inputs through it, so a trace recorded from
/// this workload captures the same streams those gates measure.
class ChurnWorkload {
 public:
  ChurnWorkload(const ChurnScenarioSetup* setup, const ChurnQueryConfig& config);

  /// The next slot's churn delta (consumes the churn stream).
  SensorDelta NextDelta();
  /// Slot `time`'s query batch (consumes the query stream).
  SlotQueryBatch NextQueries(int time);

 private:
  const ChurnScenarioSetup* setup_;
  ChurnQueryConfig config_;
  ChurnStream stream_;
  Rng churn_rng_;
  Rng query_rng_;
};

/// A live closed-loop churn run: serving-engine construction
/// (MakeServingEngine), slot 0 cold build, then `slots` served slots
/// through one SlotServer.
struct ClosedLoopConfig {
  int slots = 20;
  ChurnQueryConfig queries;
  /// The serving stack (scheduler, index policy, approx knobs,
  /// trace recording, readings feedback). working_region and dmax
  /// are stamped from the scenario setup by RunChurnClosedLoop. The
  /// approx seed keeps the closed loop's historical default of 123
  /// unless the caller overrides it.
  ServingConfig serving = ServingConfig().WithApproxSeed(123);
};

struct ClosedLoopResult {
  std::vector<SlotOutcome> outcomes;
  double total_utility = 0.0;
  double total_payment = 0.0;
  int64_t valuation_calls = 0;
  /// Wall-clock of slots 1..slots: the clock starts after slot 0, so the
  /// cold build is excluded.
  double wall_ms = 0.0;
};

/// Runs the closed loop over `setup`'s streams. `monitors` (nullable)
/// observes every served slot. The recorded trace, when requested, is
/// finalized before returning.
ClosedLoopResult RunChurnClosedLoop(const ChurnScenarioSetup& setup,
                                    const ClosedLoopConfig& config,
                                    MonitorSet* monitors = nullptr);

}  // namespace psens

#endif  // PSENS_TRACE_CLOSED_LOOP_H_
