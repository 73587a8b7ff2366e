#ifndef PSENS_TRACE_TRACE_REPLAYER_H_
#define PSENS_TRACE_TRACE_REPLAYER_H_

#include <string>
#include <vector>

#include "core/sensor.h"
#include "engine/serving_config.h"
#include "trace/slot_server.h"
#include "trace/trace_reader.h"

namespace psens {

struct ReplayResult {
  bool ok = false;
  std::string error;
  std::vector<SlotOutcome> outcomes;
  /// Wall-clock of the serving loop over the records after the first, and
  /// the slot rate it achieved. The first record's BeginSlot is the fresh
  /// engine's O(n) cold build, so it is left out, as the closed loop
  /// leaves out its slot 0 (ClosedLoopResult::wall_ms); both are 0 for a
  /// trace of fewer than two records.
  double wall_ms = 0.0;
  double slots_per_sec = 0.0;
};

/// Re-drives a recorded serving run against a fresh engine: loads the
/// trace, refuses a registry whose checksum differs from the recorded
/// one, then decodes and serves one slot record at a time (delta + query
/// batch, with the recorded per-slot approx seed pinned) through the
/// same SlotServer the live loop used. The working region, dmax, epsilon
/// and base approx seed come from the trace header; the rest of the
/// replaying engine's ServingConfig (scheduler, index policy) is the
/// caller's. A header whose values the serving config refuses
/// (ServingConfig::Validate) returns that message in ReplayResult::error
/// before any engine is built. Monitors attach to replays exactly as to
/// live runs.
class TraceReplayer {
 public:
  explicit TraceReplayer(const ServingConfig& serving);

  /// Replays the trace at `path` over `registry` (the initial sensor
  /// population the trace was recorded against).
  ReplayResult Replay(const std::string& path,
                      const std::vector<Sensor>& registry,
                      MonitorSet* monitors = nullptr) const;

  /// Same, over an already-loaded trace file.
  ReplayResult Replay(const TraceFile& trace,
                      const std::vector<Sensor>& registry,
                      MonitorSet* monitors = nullptr) const;

 private:
  ServingConfig serving_;
};

}  // namespace psens

#endif  // PSENS_TRACE_TRACE_REPLAYER_H_
