#ifndef PSENS_ENGINE_SERVING_CONFIG_H_
#define PSENS_ENGINE_SERVING_CONFIG_H_

#include <cstdint>
#include <string>

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
  /// and stamps it as SlotContext::slot_seed, so a sieve selection re-run
  /// for the same slot is reproducible (ApproxSlotSeed, core/slot.h).
  ApproxParams approx;
  /// When non-empty, the serving engine records its input stream — every
  /// ApplyDelta/ApplyTrace change and every BeginSlot with its stamped
  /// per-slot approx seed — to a binary trace at this path
  /// (src/trace/trace_format.h). Recording never alters scheduling.
  std::string trace_path;
  /// Purchased readings always feed back via RecordSlotReadings — the
  /// closed loop's cross-slot energy/privacy feedback, which replay
  /// re-runs too. A constant, not a knob: traces do not record it, so a
  /// run without feedback could not be replayed.
  static constexpr bool record_readings = true;

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
  ServingConfig& WithEpsilon(double epsilon) {
    approx.epsilon = epsilon;
    return *this;
  }
  ServingConfig& WithApproxSeed(uint64_t seed) {
    approx.seed = seed;
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
