#include "core/aggregator.h"

namespace psens {

Aggregator::Aggregator(std::vector<Sensor> sensors, const Config& config)
    : config_(config), sensors_(std::move(sensors)) {}

void Aggregator::SubmitPointQuery(const PointQuery& query) {
  pending_points_.push_back(query);
}

void Aggregator::SubmitAggregateQuery(const AggregateQuery::Params& params) {
  pending_aggregates_.push_back(params);
}

QueryMixSlotResult Aggregator::RunSlot(const Trace& trace, int time) {
  // Sensors announce their positions for this slot.
  for (Sensor& s : sensors_) {
    if (s.id() < trace.NumSensors()) {
      s.SetPosition(trace.Position(time, s.id()), trace.Present(time, s.id()));
    } else {
      s.SetPosition(Point{0, 0}, false);
    }
  }
  const SlotContext slot =
      BuildSlotContext(sensors_, config_.working_region, time, config_.dmax);

  QueryMixOptions options;
  options.use_greedy = config_.use_greedy;
  options.seed = static_cast<uint64_t>(time) + 1;
  const QueryMixSlotResult result =
      RunQueryMixSlot(slot, pending_points_, pending_aggregates_,
                      location_manager_, region_manager_, options);

  // Selected sensors provide one measurement each: consume energy and
  // extend the privacy history (their next announced price reflects it).
  for (int si : result.selected_sensors) {
    sensors_[slot.sensors.sensor_id[si]].RecordReading(time);
  }
  if (location_manager_ != nullptr) location_manager_->RemoveExpired(time + 1);
  if (region_manager_ != nullptr) region_manager_->RemoveExpired(time + 1);

  pending_points_.clear();
  pending_aggregates_.clear();
  total_welfare_ += result.Utility();
  ++slots_run_;
  return result;
}

}  // namespace psens
