#include "core/query_mix.h"

#include <algorithm>
#include <memory>

#include "core/greedy.h"
#include "core/point_scheduling.h"

namespace psens {
namespace {

/// Converts the post-selection state of generated point queries into the
/// PointAssignment records the monitoring managers expect.
std::vector<PointAssignment> ExtractAssignments(
    const std::vector<std::unique_ptr<PointMultiQuery>>& queries) {
  std::vector<PointAssignment> assignments(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    PointAssignment& a = assignments[i];
    a.query = static_cast<int>(i);
    if (queries[i]->BestSensor() >= 0 && queries[i]->CurrentValue() > 0.0) {
      a.sensor = queries[i]->BestSensor();
      a.value = queries[i]->CurrentValue();
      a.quality = queries[i]->BestQuality();
      a.payment = queries[i]->TotalPayment();
    }
    assignments[i].query = static_cast<int>(i);
  }
  return assignments;
}

QueryMixSlotResult RunGreedyMix(const SlotContext& slot,
                                const std::vector<PointQuery>& user_point_queries,
                                const std::vector<AggregateQuery::Params>& aggregates,
                                LocationMonitoringManager* location_manager,
                                RegionMonitoringManager* region_manager) {
  QueryMixSlotResult result;

  // Stage 1: point-query creation for continuous queries.
  std::vector<PointQuery> lm_created;
  if (location_manager != nullptr) {
    lm_created = location_manager->CreatePointQueries(slot.time);
  }
  std::vector<PointQuery> rm_created;
  if (region_manager != nullptr) {
    rm_created = region_manager->CreatePointQueries(slot);
  }

  // Build the joint query set for Algorithm 1.
  std::vector<std::unique_ptr<PointMultiQuery>> user_points;
  for (const PointQuery& q : user_point_queries) {
    user_points.push_back(std::make_unique<PointMultiQuery>(q, &slot));
  }
  std::vector<std::unique_ptr<PointMultiQuery>> lm_points;
  for (const PointQuery& q : lm_created) {
    lm_points.push_back(std::make_unique<PointMultiQuery>(q, &slot));
  }
  std::vector<std::unique_ptr<PointMultiQuery>> rm_points;
  for (const PointQuery& q : rm_created) {
    rm_points.push_back(std::make_unique<PointMultiQuery>(q, &slot));
  }
  std::vector<std::unique_ptr<AggregateQuery>> aggregate_queries;
  for (const AggregateQuery::Params& params : aggregates) {
    aggregate_queries.push_back(std::make_unique<AggregateQuery>(params, slot));
  }

  std::vector<MultiQuery*> all;
  for (auto& q : aggregate_queries) all.push_back(q.get());
  for (auto& q : user_points) all.push_back(q.get());
  for (auto& q : lm_points) all.push_back(q.get());
  for (auto& q : rm_points) all.push_back(q.get());

  // Stage 2: joint sensor selection (Algorithm 1) with the Eq. (18)
  // sharing weights from the region manager.
  std::vector<double> cost_scale;
  const std::vector<double>* scale_ptr = nullptr;
  if (region_manager != nullptr) {
    cost_scale = region_manager->CostScale(slot);
    scale_ptr = &cost_scale;
  }
  const SelectionResult selection = GreedySensorSelection(all, slot, scale_ptr);
  result.selected_sensors = selection.selected_sensors;
  result.total_cost = selection.total_cost;
  result.valuation_calls = selection.valuation_calls;

  // Stage 3: apply results to continuous-query managers.
  if (location_manager != nullptr) {
    result.location_value_gain = location_manager->ApplyResults(
        slot.time, lm_created, ExtractAssignments(lm_points));
  }
  if (region_manager != nullptr) {
    // Sensors selected for queries other than this region query (A_{r,t}):
    // approximated as all selected sensors; duplicates with its own planned
    // samples are skipped inside ApplyResults.
    const RegionMonitoringManager::SlotOutcome outcome = region_manager->ApplyResults(
        slot, rm_created, ExtractAssignments(rm_points), selection.selected_sensors);
    result.region_value_gain = outcome.value_gain;
    // Stage "payment adjustment": contributions from region queries reduce
    // what other queries pay; they are transfers, so slot welfare is
    // unchanged (total value - total sensor cost).
  }

  // Stage 4: accounting.
  for (const auto& q : user_points) {
    ++result.point.total;
    if (q->BestSensor() >= 0 && q->CurrentValue() > 0.0) {
      ++result.point.answered;
      result.point.value += q->CurrentValue();
      result.point.quality_sum += q->CurrentValue() / q->MaxValue();
    }
  }
  for (const auto& q : aggregate_queries) {
    ++result.aggregate.total;
    if (q->CurrentValue() > 0.0) {
      ++result.aggregate.answered;
      result.aggregate.value += q->CurrentValue();
      result.aggregate.quality_sum += q->CurrentValue() / q->MaxValue();
    }
  }
  result.total_value = result.point.value + result.aggregate.value +
                       result.location_value_gain + result.region_value_gain;
  return result;
}

QueryMixSlotResult RunBaselineMix(const SlotContext& slot,
                                  const std::vector<PointQuery>& user_point_queries,
                                  const std::vector<AggregateQuery::Params>& aggregates,
                                  LocationMonitoringManager* location_manager,
                                  RegionMonitoringManager* region_manager) {
  QueryMixSlotResult result;

  // Step 1: aggregate queries first, sequential baseline.
  std::vector<std::unique_ptr<AggregateQuery>> aggregate_queries;
  for (const AggregateQuery::Params& params : aggregates) {
    aggregate_queries.push_back(std::make_unique<AggregateQuery>(params, slot));
  }
  std::vector<MultiQuery*> aggregate_ptrs;
  for (auto& q : aggregate_queries) aggregate_ptrs.push_back(q.get());
  const SelectionResult aggregate_selection =
      BaselineSequentialSelection(aggregate_ptrs, slot);
  result.valuation_calls += aggregate_selection.valuation_calls;

  // The cost of sensors selected for aggregates is zero for the point
  // stage (buffered data).
  SlotContext discounted = slot;
  for (int si : aggregate_selection.selected_sensors) {
    discounted.sensors.cost[si] = 0.0;
  }

  // Step 2: point queries (end-user + those generated for continuous
  // queries, which in baseline mode fire only at desired sampling times),
  // scheduled with the arrival-order baseline.
  std::vector<PointQuery> lm_created;
  if (location_manager != nullptr) {
    lm_created = location_manager->CreatePointQueries(slot.time);
  }
  std::vector<PointQuery> rm_created;
  if (region_manager != nullptr) {
    rm_created = region_manager->CreatePointQueries(slot);
  }
  std::vector<PointQuery> all_points = user_point_queries;
  const size_t lm_offset = all_points.size();
  all_points.insert(all_points.end(), lm_created.begin(), lm_created.end());
  const size_t rm_offset = all_points.size();
  all_points.insert(all_points.end(), rm_created.begin(), rm_created.end());

  PointSchedulingOptions options;
  options.scheduler = PointScheduler::kBaseline;
  const PointScheduleResult point_result =
      SchedulePointQueries(all_points, discounted, options);

  // Step 3: apply continuous-query results.
  if (location_manager != nullptr) {
    std::vector<PointAssignment> lm_assign(
        point_result.assignments.begin() + static_cast<long>(lm_offset),
        point_result.assignments.begin() + static_cast<long>(rm_offset));
    result.location_value_gain =
        location_manager->ApplyResults(slot.time, lm_created, lm_assign);
  }
  if (region_manager != nullptr) {
    std::vector<PointAssignment> rm_assign(
        point_result.assignments.begin() + static_cast<long>(rm_offset),
        point_result.assignments.end());
    const RegionMonitoringManager::SlotOutcome outcome =
        region_manager->ApplyResults(slot, rm_created, rm_assign, {});
    result.region_value_gain = outcome.value_gain;
  }

  // Step 4: accounting. Selected sensors = aggregate-stage + point-stage.
  std::vector<char> selected(slot.sensors.size(), 0);
  for (int si : aggregate_selection.selected_sensors) selected[si] = 1;
  for (int si : point_result.selected_sensors) selected[si] = 1;
  for (int si = 0; si < static_cast<int>(slot.sensors.size()); ++si) {
    if (selected[si]) {
      result.selected_sensors.push_back(si);
      result.total_cost += slot.sensors.cost[si];
    }
  }

  for (size_t i = 0; i < user_point_queries.size(); ++i) {
    ++result.point.total;
    const PointAssignment& a = point_result.assignments[i];
    if (a.satisfied()) {
      ++result.point.answered;
      result.point.value += a.value;
      result.point.quality_sum += a.value / user_point_queries[i].budget;
    }
  }
  for (const auto& q : aggregate_queries) {
    ++result.aggregate.total;
    if (q->CurrentValue() > 0.0) {
      ++result.aggregate.answered;
      result.aggregate.value += q->CurrentValue();
      result.aggregate.quality_sum += q->CurrentValue() / q->MaxValue();
    }
  }
  result.total_value = result.point.value + result.aggregate.value +
                       result.location_value_gain + result.region_value_gain;
  return result;
}

}  // namespace

QueryMixSlotResult RunQueryMixSlot(const SlotContext& slot,
                                   const std::vector<PointQuery>& user_point_queries,
                                   const std::vector<AggregateQuery::Params>& aggregates,
                                   LocationMonitoringManager* location_manager,
                                   RegionMonitoringManager* region_manager,
                                   const QueryMixOptions& options) {
  if (options.use_greedy) {
    return RunGreedyMix(slot, user_point_queries, aggregates, location_manager,
                        region_manager);
  }
  return RunBaselineMix(slot, user_point_queries, aggregates, location_manager,
                        region_manager);
}

}  // namespace psens
