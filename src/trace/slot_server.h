#ifndef PSENS_TRACE_SLOT_SERVER_H_
#define PSENS_TRACE_SLOT_SERVER_H_

#include <vector>

#include "core/aggregate_query.h"
#include "core/greedy.h"
#include "core/point_query.h"
#include "core/sensor_delta.h"
#include "engine/serving_engine.h"

namespace psens {

class MonitorSet;  // trace/monitor.h

/// One slot's query arrivals. The server binds aggregates first, then
/// point queries — the binding order is part of the serving contract,
/// because selection outcomes depend on query order and the replay
/// differential tests demand bit-equality with the live run.
struct SlotQueryBatch {
  std::vector<PointQuery> points;
  std::vector<AggregateQuery::Params> aggregates;
};

/// Everything one served slot produced: the selection (slot-sensor
/// indices, value, cost, valuation calls), the payments actually charged
/// across the slot's queries, and the stage timings the monitors see.
struct SlotOutcome {
  int time = 0;
  SelectionResult selection;
  double total_payment = 0.0;
  double turnover_ms = 0.0;
  double total_ms = 0.0;
};

/// Bit-exact equality of the deterministic fields of two slot outcomes
/// (selections, values, costs, payments, valuation calls) — timings are
/// measurements, not outcomes, and are ignored. The replay differential
/// suite and the fig14 gate both rest on this comparator.
bool SameOutcome(const SlotOutcome& a, const SlotOutcome& b);

/// The one serving step, shared by every consumer of a ServingEngine —
/// the live closed loop (trace/closed_loop.h), the trace replayer
/// (trace/trace_replayer.h), and the fig14 bench: apply the
/// slot's churn delta, begin the slot, bind the query batch, run the
/// engine's configured scheduler, charge payments, and feed the
/// purchased readings back into the engine's energy/privacy state. Live
/// and replayed runs execute the identical statements per slot, which is
/// what makes the replay differential tests meaningful — any schedule
/// drift is a real determinism bug, not a harness skew.
///
/// When the engine is recording (ServingConfig::trace_path), the server
/// stages each slot's query batch onto the open trace record; attaching
/// monitors or a recorder changes no selection bit.
class SlotServer {
 public:
  explicit SlotServer(ServingEngine* engine);

  /// Monitors observing this server's slots (may be null). Not owned.
  void set_monitors(MonitorSet* monitors) { monitors_ = monitors; }

  /// Serves one slot end to end. `delta` is the slot's churn; `queries`
  /// the slot's arrivals. The attached monitors see the outcome once,
  /// after its total_ms is set (MonitorSet::NotifySlot).
  SlotOutcome ServeSlot(int time, const SensorDelta& delta,
                        const SlotQueryBatch& queries);

 private:
  ServingEngine* engine_;
  MonitorSet* monitors_ = nullptr;
};

}  // namespace psens

#endif  // PSENS_TRACE_SLOT_SERVER_H_
