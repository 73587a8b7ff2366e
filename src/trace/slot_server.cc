#include "trace/slot_server.h"

#include <chrono>
#include <memory>

#include "core/multi_query.h"
#include "trace/monitor.h"
#include "trace/trace_writer.h"

namespace psens {
namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(const SteadyClock::time_point& start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

}  // namespace

bool SameOutcome(const SlotOutcome& a, const SlotOutcome& b) {
  return a.time == b.time &&
         a.selection.selected_sensors == b.selection.selected_sensors &&
         a.selection.total_value == b.selection.total_value &&
         a.selection.total_cost == b.selection.total_cost &&
         a.selection.valuation_calls == b.selection.valuation_calls &&
         a.total_payment == b.total_payment;
}

SlotServer::SlotServer(ServingEngine* engine) : engine_(engine) {}

SlotOutcome SlotServer::ServeSlot(int time, const SensorDelta& delta,
                                  const SlotQueryBatch& queries) {
  SlotOutcome out;
  out.time = time;
  const SteadyClock::time_point slot_start = SteadyClock::now();

  const SlotContext* slot = nullptr;
  bool applied = false;
  {
    const SteadyClock::time_point start = SteadyClock::now();
    applied = engine_->ApplyDelta(delta);
    slot = &engine_->BeginSlot(time);
    out.turnover_ms = MsSince(start);
  }

  // Recording: the delta was journaled by ApplyDelta; the queries attach
  // to the record BeginSlot just opened.
  if (TraceWriter* writer = engine_->trace_writer()) {
    writer->StageAggregateQueries(queries.aggregates);
    writer->StagePointQueries(queries.points);
  }

  // Bind: aggregates first, then points (see SlotQueryBatch).
  std::vector<std::unique_ptr<AggregateQuery>> aggregates;
  std::vector<std::unique_ptr<PointMultiQuery>> points;
  std::vector<MultiQuery*> all;
  aggregates.reserve(queries.aggregates.size());
  points.reserve(queries.points.size());
  all.reserve(queries.aggregates.size() + queries.points.size());
  for (const AggregateQuery::Params& params : queries.aggregates) {
    aggregates.push_back(std::make_unique<AggregateQuery>(params, *slot));
    all.push_back(aggregates.back().get());
  }
  for (const PointQuery& spec : queries.points) {
    points.push_back(std::make_unique<PointMultiQuery>(spec, slot));
    all.push_back(points.back().get());
  }

  if (!all.empty()) {
    // A query-free slot (the slot-0 cold build) selects nothing and, for
    // the sieve, leaves the carried bucket state untouched — identically
    // in live and replayed runs.
    // A refused delta changed nothing and was not journaled, so the slot
    // selects as delta-free, exactly as its replay does.
    out.selection =
        engine_->Select(all, *slot, applied ? delta : SensorDelta{});
  }

  for (const MultiQuery* q : all) out.total_payment += q->TotalPayment();
  engine_->RecordSlotReadings(out.selection.selected_sensors, time);

  out.total_ms = MsSince(slot_start);
  if (monitors_ != nullptr) monitors_->NotifySlot(out);
  return out;
}

}  // namespace psens
