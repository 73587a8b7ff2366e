#ifndef PSENS_ENGINE_SERVING_CONFIG_H_
#define PSENS_ENGINE_SERVING_CONFIG_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/geometry.h"
#include "core/greedy.h"
#include "core/slot.h"

namespace psens {

/// The one configuration record for the serving stack — the knobs that
/// used to be scattered over `EngineConfig`, `SlotServer::Options`,
/// `ClosedLoopConfig`, and ad-hoc bench fields now live here, so a
/// serving run (live closed loop, trace replay, or bench) is described
/// by exactly one validated value, consumed by `MakeServingEngine`.
///
/// Every knob preserves the bit-identical-results discipline: for a
/// fixed input stream, `index_policy` (the engine's id-keyed grid, or
/// none) changes wall-clock only — selections, payments, and
/// valuation-call counts are bitwise invariant
/// (tests/pruning_equivalence_test.cc). Selection runs on the calling
/// thread.
struct ServingConfig {
  /// Working region filtering slot membership (same role as the
  /// `working_region` argument of BuildSlotContext).
  Rect working_region;
  double dmax = 5.0;
  /// Selection engine the serving loop runs each slot (SlotServer /
  /// AcquisitionEngine::Select): kLazy (exact CELF) or kSieve, which
  /// carries cross-slot bucket state. The paper's eager rescan is a
  /// reference function (EagerGreedySensorSelection), not a serving
  /// engine.
  GreedyEngine scheduler = GreedyEngine::kLazy;
  SlotIndexPolicy index_policy = SlotIndexPolicy::kGrid;
  /// Approximate-scheduler knobs, stamped onto every slot context.
  /// BeginSlot derives the per-slot RNG stream from (approx.seed, time)
  /// unless approx.slot_seed pins it, so a sieve selection re-run for the
  /// same slot is reproducible (ApproxSlotSeed, core/slot.h).
  ApproxParams approx;
  /// When non-empty, the serving engine records its input stream — every
  /// ApplyDelta/ApplyTrace change and every BeginSlot with its stamped
  /// per-slot approx seed — to a binary trace at this path
  /// (src/trace/trace_format.h). Recording never alters scheduling.
  std::string trace_path;
  /// Feed purchased readings back via RecordSlotReadings — the closed
  /// loop's cross-slot energy/privacy feedback. Replay uses the same
  /// default so the feedback path is replayed too.
  bool record_readings = true;
  /// Per-slot latency budget in milliseconds for the adaptive scheduler
  /// (src/engine/adaptive_policy.h). 0 (default): static scheduling —
  /// `scheduler` runs every slot exactly as configured. > 0:
  /// AcquisitionEngine::Select consults an AdaptivePolicy
  /// each slot, treating `scheduler` as the quality *ceiling* and
  /// degrading from lazy to the sieve when the policy's per-engine cost
  /// model predicts lazy would blow the remaining budget (slo_ms minus
  /// the slot's measured turnover time).
  /// Chosen engines are recorded per slot in version-2 traces, so an
  /// adaptive run — whose live choices depend on wall-clock observations —
  /// still replays bit-identically (the replayer pins the recorded
  /// choice via PinNextSelectEngine).
  double slo_ms = 0.0;

  // Builder-style setters, so call sites can assemble a config in one
  // expression (`ServingConfig().WithRegion(field).WithDmax(8.0)`).
  ServingConfig& WithRegion(const Rect& region) {
    working_region = region;
    return *this;
  }
  ServingConfig& WithDmax(double d) {
    dmax = d;
    return *this;
  }
  ServingConfig& WithScheduler(GreedyEngine engine) {
    scheduler = engine;
    return *this;
  }
  ServingConfig& WithIndexPolicy(SlotIndexPolicy policy) {
    index_policy = policy;
    return *this;
  }
  ServingConfig& WithApprox(const ApproxParams& params) {
    approx = params;
    return *this;
  }
  ServingConfig& WithEpsilon(double epsilon) {
    approx.epsilon = epsilon;
    return *this;
  }
  ServingConfig& WithApproxSeed(uint64_t seed) {
    approx.seed = seed;
    return *this;
  }
  ServingConfig& WithTracePath(std::string path) {
    trace_path = std::move(path);
    return *this;
  }
  ServingConfig& WithRecordReadings(bool on) {
    record_readings = on;
    return *this;
  }
  ServingConfig& WithSloMs(double ms) {
    slo_ms = ms;
    return *this;
  }

  /// Empty string when the config is serviceable; otherwise a
  /// human-readable description of the first problem found.
  /// MakeServingEngine refuses (asserts in debug, clamps nothing) on a
  /// non-empty result, so configuration mistakes surface at construction
  /// instead of as silent mis-serving.
  std::string Validate() const;
};

}  // namespace psens

#endif  // PSENS_ENGINE_SERVING_CONFIG_H_
