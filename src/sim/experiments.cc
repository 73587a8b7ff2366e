#include "sim/experiments.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/thread_pool.h"
#include "core/greedy.h"
#include "core/location_monitoring.h"
#include "core/query_mix.h"
#include "core/region_monitoring.h"
#include "core/slot.h"
#include "engine/acquisition_engine.h"
#include "engine/serving_engine.h"
#include "mobility/random_waypoint.h"

namespace psens {

void ApplyTraceSlot(const Trace& trace, int slot, std::vector<Sensor>* sensors) {
  for (Sensor& s : *sensors) {
    if (s.id() < trace.NumSensors()) {
      s.SetPosition(trace.Position(slot, s.id()), trace.Present(slot, s.id()));
    } else {
      s.SetPosition(Point{0, 0}, false);
    }
  }
}

namespace {

/// Independent RNG stream for slot `t`, a pure function of (base, t): the
/// same stream backs the sequential and the sharded execution paths, so a
/// slot's workload never depends on which thread — or in which order — it
/// runs.
Rng SlotStream(const Rng& base, int t) {
  Rng fork_source = base;  // Fork advances its parent; keep `base` pristine
  return fork_source.Fork(static_cast<uint64_t>(t) + 1);
}

/// Partial sums contributed by one simulation slot. Accumulated in slot
/// order after all slots ran, so results are independent of thread count.
struct SlotOutcome {
  double utility = 0.0;
  double cost = 0.0;
  double value = 0.0;
  double quality_sum = 0.0;
  int64_t queries = 0;
  int64_t answered = 0;
  /// Global sensor ids charged a reading (feeds sensor wear/privacy state
  /// on the sequential feedback path).
  std::vector<int> read_sensor_ids;
};

/// Serving configuration shared by all slots of one experiment run: the
/// experiment's region, dmax and index policy over the defaults.
ServingConfig MakeServingConfig(const Rect& working_region, double dmax,
                                SlotIndexPolicy index_policy) {
  return ServingConfig().WithRegion(working_region).WithDmax(dmax).WithIndexPolicy(
      index_policy);
}

/// Runs `slots` slot bodies either sequentially with sensor-state feedback
/// (RecordReadings between slots) or sharded over a thread pool when the
/// population carries no cross-slot feedback. Every path streams the trace
/// through a persistent serving engine (MakeServingEngine) — the slot
/// context and spatial index are repaired from each slot's
/// position/presence delta rather than rebuilt — which is bit-identical
/// to per-slot reconstruction (tests/streaming_equivalence_test.cc).
/// `body(t, slot)` must only read `slot` and return the slot's partials.
template <typename SlotBody>
std::vector<SlotOutcome> RunSlots(const Trace& trace, int slots,
                                  const std::vector<Sensor>& sensors,
                                  const SensorPopulationConfig& population,
                                  const ServingConfig& serving_config,
                                  int parallelism, const SlotBody& body) {
  std::vector<SlotOutcome> outcomes(static_cast<size_t>(std::max(slots, 0)));
  if (HasCrossSlotFeedback(population, slots)) {
    std::unique_ptr<ServingEngine> engine =
        MakeServingEngine(sensors, serving_config);
    for (int t = 0; t < slots; ++t) {
      engine->ApplyTrace(trace, t);
      outcomes[t] = body(t, engine->BeginSlot(t));
      engine->RecordReadings(outcomes[t].read_sensor_ids, t);
    }
    return outcomes;
  }
  // Independent slots: each worker owns a pristine engine over its own
  // registry snapshot, and nothing on this path feeds slot outcomes back,
  // so any worker count — and any slot order within a worker — produces
  // the same announcements a fresh rebuild would.
  const int threads =
      std::min(ThreadPool::ResolveParallelism(parallelism), std::max(slots, 1));
  if (threads == 1) {
    std::unique_ptr<ServingEngine> engine =
        MakeServingEngine(sensors, serving_config);
    for (int t = 0; t < slots; ++t) {
      engine->ApplyTrace(trace, t);
      outcomes[t] = body(t, engine->BeginSlot(t));
    }
    return outcomes;
  }
  ThreadPool pool(threads);
  std::atomic<int> next{0};
  for (int w = 0; w < threads; ++w) {
    pool.Submit([&] {
      std::unique_ptr<ServingEngine> engine =
          MakeServingEngine(sensors, serving_config);
      for (int t = next++; t < slots; t = next++) {
        engine->ApplyTrace(trace, t);
        outcomes[t] = body(t, engine->BeginSlot(t));
      }
    });
  }
  pool.Wait();
  return outcomes;
}

/// Ordered reduction of slot partials into the common result fields.
ExperimentResult ReduceOutcomes(const std::vector<SlotOutcome>& outcomes) {
  ExperimentResult result;
  double total_utility = 0.0;
  for (const SlotOutcome& o : outcomes) {
    total_utility += o.utility;
    result.avg_cost += o.cost;
    result.avg_value += o.value;
    result.avg_quality += o.quality_sum;
    result.total_queries += o.queries;
    result.answered_queries += o.answered;
  }
  const int slots = static_cast<int>(outcomes.size());
  result.avg_utility = slots > 0 ? total_utility / slots : 0.0;
  result.avg_cost = slots > 0 ? result.avg_cost / slots : 0.0;
  result.avg_value = slots > 0 ? result.avg_value / slots : 0.0;
  result.satisfaction =
      result.total_queries > 0
          ? static_cast<double>(result.answered_queries) / result.total_queries
          : 0.0;
  result.avg_quality = result.answered_queries > 0
                           ? result.avg_quality / result.answered_queries
                           : 0.0;
  return result;
}

}  // namespace

ExperimentResult RunPointExperiment(const PointExperimentConfig& config) {
  Rng rng(config.seed);
  Rng sensor_rng = rng.Fork(1);
  Rng query_rng = rng.Fork(2);
  SensorPopulationConfig population = config.sensors;
  population.count = config.trace->NumSensors();
  const std::vector<Sensor> sensors = GenerateSensors(population, sensor_rng);

  const int slots = std::min(config.num_slots, config.trace->NumSlots());
  const auto body = [&](int t, const SlotContext& slot) {
    Rng slot_rng = SlotStream(query_rng, t);
    const std::vector<PointQuery> queries =
        GeneratePointQueries(config.queries_per_slot, config.working_region,
                             config.budget, config.theta_min,
                             t * config.queries_per_slot, slot_rng);
    PointSchedulingOptions options;
    options.scheduler = config.scheduler;
    options.node_limit = config.node_limit;
    options.seed = config.seed + static_cast<uint64_t>(t);
    const PointScheduleResult schedule = SchedulePointQueries(queries, slot, options);

    SlotOutcome out;
    out.utility = schedule.Utility();
    out.cost = schedule.total_cost;
    out.value = schedule.total_value;
    out.queries = static_cast<int64_t>(queries.size());
    for (const PointAssignment& a : schedule.assignments) {
      if (a.satisfied()) {
        ++out.answered;
        out.quality_sum += a.value / queries[a.query].budget;
      }
    }
    out.read_sensor_ids.reserve(schedule.selected_sensors.size());
    for (int si : schedule.selected_sensors) {
      out.read_sensor_ids.push_back(slot.sensors.sensor_id[si]);
    }
    return out;
  };
  return ReduceOutcomes(RunSlots(
      *config.trace, slots, sensors, population,
      MakeServingConfig(config.working_region, config.dmax, config.index_policy),
      config.parallelism, body));
}

ExperimentResult RunAggregateExperiment(const AggregateExperimentConfig& config) {
  Rng rng(config.seed);
  Rng sensor_rng = rng.Fork(1);
  Rng query_rng = rng.Fork(2);
  SensorPopulationConfig population = config.sensors;
  population.count = config.trace->NumSensors();
  const std::vector<Sensor> sensors = GenerateSensors(population, sensor_rng);

  const int slots = std::min(config.num_slots, config.trace->NumSlots());
  const auto body = [&](int t, const SlotContext& slot) {
    Rng slot_rng = SlotStream(query_rng, t);
    const std::vector<AggregateQuery::Params> params = GenerateAggregateQueries(
        config.mean_queries_per_slot, config.working_region, config.sensing_range,
        config.budget_factor, t * 100, slot_rng);
    std::vector<std::unique_ptr<AggregateQuery>> queries;
    for (const AggregateQuery::Params& p : params) {
      queries.push_back(std::make_unique<AggregateQuery>(p, slot));
    }
    std::vector<MultiQuery*> ptrs;
    for (auto& q : queries) ptrs.push_back(q.get());
    const SelectionResult selection =
        config.greedy ? GreedySensorSelection(ptrs, slot)
                      : BaselineSequentialSelection(ptrs, slot);

    SlotOutcome out;
    out.utility = selection.Utility();
    out.cost = selection.total_cost;
    out.value = selection.total_value;
    out.queries = static_cast<int64_t>(queries.size());
    for (const auto& q : queries) {
      if (q->CurrentValue() > 0.0) {
        ++out.answered;
        out.quality_sum += q->CurrentValue() / q->MaxValue();
      }
    }
    out.read_sensor_ids.reserve(selection.selected_sensors.size());
    for (int si : selection.selected_sensors) {
      out.read_sensor_ids.push_back(slot.sensors.sensor_id[si]);
    }
    return out;
  };
  return ReduceOutcomes(RunSlots(
      *config.trace, slots, sensors, population,
      MakeServingConfig(config.working_region, config.sensing_range,
                        config.index_policy),
      config.parallelism, body));
}

ExperimentResult RunLocationMonitoringExperiment(
    const LocationMonitoringExperimentConfig& config) {
  Rng rng(config.seed);
  Rng sensor_rng = rng.Fork(1);
  Rng query_rng = rng.Fork(2);
  SensorPopulationConfig population = config.sensors;
  population.count = config.trace->NumSensors();
  AcquisitionEngine engine(
      GenerateSensors(population, sensor_rng),
      MakeServingConfig(config.working_region, config.dmax,
                        config.index_policy));

  LocationMonitoringManager::Config manager_config;
  manager_config.alpha = config.alpha;
  manager_config.desired_times_only = config.desired_times_only;
  LocationMonitoringManager manager(config.history_times, config.history_values,
                                    manager_config);

  ExperimentResult result;
  double total_utility = 0.0;
  int next_id = 0;
  const int slots = std::min(config.num_slots, config.trace->NumSlots());
  for (int t = 0; t < slots; ++t) {
    engine.ApplyTrace(*config.trace, t);
    const SlotContext& slot = engine.BeginSlot(t);

    // New arrivals, keeping the live population under max_alive.
    const int arrivals = static_cast<int>(
        query_rng.UniformInt(config.min_arrivals, config.max_arrivals));
    for (int i = 0; i < arrivals; ++i) {
      if (static_cast<int>(manager.queries().size()) >= config.max_alive) break;
      manager.AddQuery(GenerateLocationMonitoringQuery(
          next_id++, config.working_region, t, slots, config.history_times,
          config.history_values, config.budget_factor, query_rng));
    }

    const std::vector<PointQuery> created = manager.CreatePointQueries(t);
    PointSchedulingOptions options;
    options.scheduler = config.point_scheduler;
    options.seed = config.seed + static_cast<uint64_t>(t);
    const PointScheduleResult schedule = SchedulePointQueries(created, slot, options);
    const double realized = manager.ApplyResults(t, created, schedule.assignments);

    total_utility += realized - schedule.total_cost;
    result.avg_cost += schedule.total_cost;
    result.avg_value += realized;
    engine.RecordSlotReadings(schedule.selected_sensors, t);
    manager.RemoveExpired(t + 1);
  }
  // Finalize remaining queries for the quality statistics.
  manager.RemoveExpired(slots + 1000000);

  result.avg_utility = slots > 0 ? total_utility / slots : 0.0;
  result.avg_cost = slots > 0 ? result.avg_cost / slots : 0.0;
  result.avg_value = slots > 0 ? result.avg_value / slots : 0.0;
  result.total_queries = manager.num_completed();
  result.answered_queries = manager.num_completed();
  result.avg_quality = manager.MeanCompletedQuality();
  result.satisfaction = 1.0;
  return result;
}

ExperimentResult RunRegionMonitoringExperiment(
    const RegionMonitoringExperimentConfig& config) {
  Rng rng(config.seed);
  Rng sensor_rng = rng.Fork(1);
  Rng query_rng = rng.Fork(2);

  // 30 imaginary mobile sensors roaming the field via RWM (Section 4.2).
  RandomWaypointConfig mobility;
  mobility.num_sensors = config.num_sensors;
  mobility.num_slots = config.num_slots;
  mobility.region_size = config.field.Width();
  mobility.region_height = config.field.Height();
  mobility.min_max_speed = 1.0;
  mobility.max_max_speed = 2.0;
  mobility.seed = config.seed ^ 0xABCDEF;
  const Trace trace = GenerateRandomWaypoint(mobility);

  SensorPopulationConfig population = config.sensors;
  population.count = config.num_sensors;
  AcquisitionEngine engine(
      GenerateSensors(population, sensor_rng),
      MakeServingConfig(config.field, config.sensing_radius,
                        config.index_policy));

  RegionMonitoringManager::Config manager_config;
  manager_config.alpha = config.alpha;
  manager_config.cost_weighting = config.use_alg3 && config.cost_weighting;
  manager_config.share_extra_sensors = config.use_alg3 && config.share_extra_sensors;
  RegionMonitoringManager manager(config.kernel, manager_config);

  ExperimentResult result;
  double total_utility = 0.0;
  int next_id = 0;
  for (int t = 0; t < config.num_slots; ++t) {
    engine.ApplyTrace(trace, t);
    const SlotContext& slot = engine.BeginSlot(t);

    manager.AddQuery(GenerateRegionMonitoringQuery(next_id++, config.field, t,
                                                   config.num_slots,
                                                   config.sensing_radius,
                                                   config.budget_factor, query_rng));

    const std::vector<PointQuery> created = manager.CreatePointQueries(slot);
    PointSchedulingOptions options;
    options.scheduler =
        config.use_alg3 ? PointScheduler::kOptimal : PointScheduler::kBaseline;
    options.seed = config.seed + static_cast<uint64_t>(t);
    const PointScheduleResult schedule = SchedulePointQueries(created, slot, options);
    const RegionMonitoringManager::SlotOutcome outcome = manager.ApplyResults(
        slot, created, schedule.assignments, schedule.selected_sensors);

    total_utility += outcome.value_gain - schedule.total_cost;
    result.avg_cost += schedule.total_cost;
    result.avg_value += outcome.value_gain;
    engine.RecordSlotReadings(schedule.selected_sensors, t);
    manager.RemoveExpired(t + 1);
  }
  manager.RemoveExpired(config.num_slots + 1000000);

  result.avg_utility = config.num_slots > 0 ? total_utility / config.num_slots : 0.0;
  result.avg_cost = config.num_slots > 0 ? result.avg_cost / config.num_slots : 0.0;
  result.avg_value = config.num_slots > 0 ? result.avg_value / config.num_slots : 0.0;
  result.total_queries = manager.num_completed();
  result.answered_queries = manager.num_completed();
  result.avg_quality = manager.MeanCompletedQuality();
  result.satisfaction = 1.0;
  return result;
}

QueryMixResultSummary RunQueryMixExperiment(const QueryMixExperimentConfig& config) {
  Rng rng(config.seed);
  Rng sensor_rng = rng.Fork(1);
  Rng query_rng = rng.Fork(2);
  SensorPopulationConfig population = config.sensors;
  population.count = config.trace->NumSensors();
  std::unique_ptr<ServingEngine> engine = MakeServingEngine(
      GenerateSensors(population, sensor_rng),
      MakeServingConfig(config.working_region, config.dmax,
                        config.index_policy));

  LocationMonitoringManager::Config lm_config;
  lm_config.alpha = config.alpha;
  lm_config.desired_times_only = !config.use_alg5;  // baseline: desired only
  LocationMonitoringManager lm_manager(config.history_times, config.history_values,
                                       lm_config);

  QueryMixResultSummary summary;
  double total_utility = 0.0;
  double point_quality_sum = 0.0;
  int64_t point_answered = 0;
  int64_t point_total = 0;
  double aggregate_quality_sum = 0.0;
  int64_t aggregate_answered = 0;
  int next_lm_id = 0;
  const int slots = std::min(config.num_slots, config.trace->NumSlots());
  for (int t = 0; t < slots; ++t) {
    engine->ApplyTrace(*config.trace, t);
    const SlotContext& slot = engine->BeginSlot(t);

    const std::vector<PointQuery> points = GeneratePointQueries(
        config.point_queries_per_slot, config.working_region,
        BudgetScheme{config.budget_factor, false, 0.0}, 0.2,
        t * config.point_queries_per_slot, query_rng);
    const std::vector<AggregateQuery::Params> aggregates = GenerateAggregateQueries(
        config.mean_aggregate_queries, config.working_region, config.dmax,
        config.budget_factor, t * 100, query_rng);
    const int arrivals = static_cast<int>(query_rng.UniformInt(3, 10));
    for (int i = 0; i < arrivals; ++i) {
      if (static_cast<int>(lm_manager.queries().size()) >= config.max_alive_monitoring)
        break;
      lm_manager.AddQuery(GenerateLocationMonitoringQuery(
          next_lm_id++, config.working_region, t, slots, config.history_times,
          config.history_values, config.budget_factor, query_rng));
    }

    QueryMixOptions options;
    options.use_greedy = config.use_alg5;
    const QueryMixSlotResult slot_result = RunQueryMixSlot(
        slot, points, aggregates, &lm_manager, /*region_manager=*/nullptr, options);

    total_utility += slot_result.Utility();
    summary.avg_cost += slot_result.total_cost;
    summary.avg_value += slot_result.total_value;
    point_total += slot_result.point.total;
    point_answered += slot_result.point.answered;
    point_quality_sum += slot_result.point.quality_sum;
    aggregate_answered += slot_result.aggregate.answered;
    aggregate_quality_sum += slot_result.aggregate.quality_sum;
    engine->RecordSlotReadings(slot_result.selected_sensors, t);
    lm_manager.RemoveExpired(t + 1);
  }
  lm_manager.RemoveExpired(slots + 1000000);

  summary.avg_utility = slots > 0 ? total_utility / slots : 0.0;
  summary.avg_cost = slots > 0 ? summary.avg_cost / slots : 0.0;
  summary.avg_value = slots > 0 ? summary.avg_value / slots : 0.0;
  summary.point_satisfaction =
      point_total > 0 ? static_cast<double>(point_answered) / point_total : 0.0;
  summary.point_quality =
      point_answered > 0 ? point_quality_sum / point_answered : 0.0;
  summary.aggregate_quality =
      aggregate_answered > 0 ? aggregate_quality_sum / aggregate_answered : 0.0;
  summary.monitoring_quality = lm_manager.MeanCompletedQuality();
  return summary;
}

}  // namespace psens
