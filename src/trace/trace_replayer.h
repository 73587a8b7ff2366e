#ifndef PSENS_TRACE_TRACE_REPLAYER_H_
#define PSENS_TRACE_TRACE_REPLAYER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/sensor.h"
#include "engine/serving_config.h"
#include "trace/slot_server.h"
#include "trace/trace_reader.h"

namespace psens {

struct ReplayConfig {
  /// Worker threads decoding slot records ahead of the serving loop.
  /// 1 decodes inline; N > 1 spawns N decoders that claim records by
  /// atomic counter while the caller's thread serves them strictly in
  /// recorded order — so schedules, payments, and valuation-call counts
  /// are bit-identical for every thread count (the decode is pure).
  int decode_threads = 1;
  /// Paced replay: serve at most this many slots per second (sleeping
  /// between slots). 0 replays at maximum speed.
  double target_slots_per_sec = 0.0;
  /// Impose each record's slot_seed via PinNextSlotSeed (default). Off,
  /// the replaying engine derives seeds from its own base seed — the
  /// knob the seed-persistence regression test flips.
  bool pin_slot_seeds = true;
  /// Serving stack for the replaying engine (scheduler, index policy,
  /// readings feedback). The working region, dmax, and the approx epsilon
  /// always come from the trace header; the base approx seed does too
  /// unless override_approx_seed imposes serving.approx.seed instead (see
  /// pin_slot_seeds).
  ServingConfig serving;
  bool override_approx_seed = false;
};

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
/// one, then serves every slot record (delta + query batch, recorded
/// per-slot approx seed and adaptive engine choice pinned) through the
/// same SlotServer the live loop used. A header whose dmax, region or
/// epsilon the serving config refuses (ServingConfig::Validate) returns
/// that message in ReplayResult::error before any engine is built. A
/// version-2 record carrying more than one engine choice (written by the
/// removed per-shard scheduler passes) is refused with an error naming
/// the slot. Monitors attach to replays exactly as to live runs.
class TraceReplayer {
 public:
  explicit TraceReplayer(const ReplayConfig& config);

  /// Replays the trace at `path` over `registry` (the initial sensor
  /// population the trace was recorded against).
  ReplayResult Replay(const std::string& path,
                      const std::vector<Sensor>& registry,
                      MonitorSet* monitors = nullptr);

  /// Same, over an already-loaded trace file.
  ReplayResult Replay(const TraceFile& trace,
                      const std::vector<Sensor>& registry,
                      MonitorSet* monitors = nullptr);

 private:
  ReplayConfig config_;
};

}  // namespace psens

#endif  // PSENS_TRACE_TRACE_REPLAYER_H_
