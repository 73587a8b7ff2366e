#ifndef PSENS_CORE_SLOT_H_
#define PSENS_CORE_SLOT_H_

#include <memory>
#include <vector>

#include "common/geometry.h"
#include "core/sensor.h"

namespace psens {

class SlotArena;
class SpatialIndex;
class ThreadPool;

/// How (and whether) a slot's sensor locations are spatially indexed.
/// The index only ever *prunes* candidate scans — every valuation is
/// exactly zero beyond its radius, so indexed and unindexed runs produce
/// bit-identical selections and payments (tests/pruning_equivalence_test).
enum class SlotIndexPolicy {
  /// Build an index for populations of at least kSlotIndexAutoThreshold
  /// sensors, choosing grid vs. k-d tree by density (the default).
  kAuto,
  /// Never index: schedulers scan `sensors` end to end (the reference
  /// path, and the right call for tiny slots).
  kNone,
  kGrid,
  kKdTree,
};

/// Minimum population for which kAuto bothers building an index.
inline constexpr int kSlotIndexAutoThreshold = 32;

/// Knobs for the approximate schedulers (GreedyEngine::kStochastic and
/// kSieve, src/core/stochastic_greedy.h / sieve_streaming.h). Carried on
/// the SlotContext so schedulers see them the same way they see the pool
/// and the index; the exact engines ignore them entirely.
struct ApproxParams {
  /// Quality knob shared by both engines. Stochastic greedy sizes its
  /// per-round sample as ceil(ln(1/epsilon) * |candidates| / k_hint);
  /// sieve streaming spaces its threshold grid by factors of
  /// (1 + epsilon) and keeps buckets down to epsilon * max single net.
  double epsilon = 0.1;
  /// Base seed of the stochastic engine's per-slot RNG stream. The
  /// effective stream is derived from (seed, SlotContext::time) unless
  /// `slot_seed` pins it, so re-running a slot — on any thread count, and
  /// through either the incremental or the rebuild engine mode — samples
  /// identically. Sieve streaming is deterministic and ignores it.
  uint64_t seed = 0x5EEDC0DE5EEDC0DEULL;
  /// Pinned per-slot stream; 0 (default) derives it from seed and time.
  uint64_t slot_seed = 0;
  /// Floor on the stochastic per-round sample size.
  int min_sample = 32;
  /// Expected number of selections k used to size the stochastic sample;
  /// 0 (default) uses the number of participating queries, a natural
  /// proxy in this workload where each query wants at least one sensor.
  int sample_hint = 0;
  /// Sieve-streaming refinement pass (core/sieve_streaming.h): after
  /// the winning bucket commits, CELF-style re-greedy from scratch over
  /// a population-independent pool — bucket members, a persistent bench
  /// of top singleton-net candidates, and a seeded per-slot exploration
  /// sample — keeping the better of the bucket replay and the refined
  /// selection. Lifts the sieve's realized utility from the single-pass
  /// ~0.5x of exact to >= 0.8x while staying >= 20x faster (the pool is
  /// capped, not the population). false restores the single-pass
  /// behaviour (ablations and the valuation-call micro-tests).
  bool sieve_refine = true;
};

/// A sensor as announced to the aggregator at the beginning of a time slot
/// (Section 2.1): its location and its price for providing one measurement
/// now, plus the static quality attributes the aggregator knows.
struct SlotSensor {
  /// Index into the owning SlotContext::sensors (schedulers use this).
  int index = 0;
  /// Global sensor id (index into the aggregator's sensor registry).
  int sensor_id = 0;
  Point location;
  /// Announced cost c_s for this slot (Eq. 8).
  double cost = 0.0;
  double inaccuracy = 0.0;
  double trust = 1.0;
};

/// Structure-of-arrays view of SlotContext::sensors: one contiguous
/// column per field the valuation kernels read, row i mirroring
/// sensors[i] exactly. The delta kernels in the query classes and
/// batch_eval stream these columns instead of chasing 48-byte SlotSensor
/// records, which keeps the fp math loads contiguous and lets the
/// compiler auto-vectorize without intrinsics.
///
/// Invariant: a context with use_soa set and slabs.size() ==
/// sensors.size() has every column entry equal to the corresponding
/// SlotSensor field (x/y == location, cost/inaccuracy/trust verbatim).
/// Contexts built by BuildSlotContext or an engine's BeginSlot always
/// satisfy it; hand-assembled contexts that skip the slabs simply fall
/// back to the scalar AoS paths (SlotContext::SlabsSynced gates every
/// kernel).
struct SlotSlabs {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> cost;
  std::vector<double> inaccuracy;
  std::vector<double> trust;

  size_t size() const { return x.size(); }

  void Resize(size_t n) {
    x.resize(n);
    y.resize(n);
    cost.resize(n);
    inaccuracy.resize(n);
    trust.resize(n);
  }

  void Clear() { Resize(0); }

  /// Writes row i from a SlotSensor.
  void SetRow(size_t i, const SlotSensor& s) {
    x[i] = s.location.x;
    y[i] = s.location.y;
    cost[i] = s.cost;
    inaccuracy[i] = s.inaccuracy;
    trust[i] = s.trust;
  }
};

/// Everything schedulers need about the current time slot.
struct SlotContext {
  int time = 0;
  /// Maximum distance at which a sensor can serve a queried location
  /// (d_max of Eq. 4). Experiment-wide constant in the paper.
  double dmax = 5.0;
  std::vector<SlotSensor> sensors;
  SlotIndexPolicy index_policy = SlotIndexPolicy::kAuto;
  /// Minimum population for which kAuto builds an index (ablation knob;
  /// bench CLIs expose it as --index-threshold).
  int index_auto_threshold = kSlotIndexAutoThreshold;
  /// Spatial index over `sensors` locations (point index i == slot-sensor
  /// index i), or null when the policy/population says brute force.
  /// Schedulers treat null as "scan everything".
  std::shared_ptr<const SpatialIndex> index;
  /// Worker pool for intra-slot parallel selection (non-owning; typically
  /// the AcquisitionEngine's, attached by BeginSlot per
  /// ServingConfig::threads). Null means serial. Schedulers that use it —
  /// the greedy engines via core/batch_eval.h — produce bit-identical
  /// selections, payments, and ValuationCalls() for any pool size,
  /// including none.
  ThreadPool* pool = nullptr;
  /// Approximate-scheduler knobs (ignored by the exact engines).
  ApproxParams approx;
  /// Column view of `sensors` (see SlotSlabs). Kept in lockstep by
  /// BuildSlotContext and the engines' incremental repair; empty on
  /// hand-assembled contexts, which makes SlabsSynced() false and routes
  /// every kernel to its scalar reference path.
  SlotSlabs slabs;
  /// Slot-lifetime scratch arena (non-owning; the engine resets it at
  /// each BeginSlot). Null means scratch consumers fall back to owned
  /// heap buffers.
  SlotArena* arena = nullptr;
  /// Ablation/differential-test switch: false forces the scalar AoS
  /// valuation paths even when the slabs are populated. The two paths
  /// are bit-identical (tests/soa_kernel_equivalence_test).
  bool use_soa = true;

  /// True when the slab columns mirror `sensors` and kernels may use
  /// them (see SlotSlabs invariant).
  bool SlabsSynced() const {
    return use_soa && slabs.size() == sensors.size();
  }
};

/// (Re)builds `slot.index` from `slot.sensors` per `slot.index_policy`.
/// Defined in src/index/spatial_index.cc.
void AttachSlotIndex(SlotContext& slot);

/// Builds the slot context from the sensor registry: available sensors
/// inside `working_region` announce their location and cost. Attaches the
/// spatial index per `index_policy`.
inline SlotContext BuildSlotContext(const std::vector<Sensor>& sensors,
                                    const Rect& working_region, int time,
                                    double dmax,
                                    SlotIndexPolicy index_policy = SlotIndexPolicy::kAuto,
                                    int index_auto_threshold = kSlotIndexAutoThreshold) {
  SlotContext ctx;
  ctx.time = time;
  ctx.dmax = dmax;
  ctx.index_policy = index_policy;
  ctx.index_auto_threshold = index_auto_threshold;
  for (const Sensor& s : sensors) {
    if (!s.available()) continue;
    if (!working_region.Contains(s.position())) continue;
    SlotSensor slot_sensor;
    slot_sensor.index = static_cast<int>(ctx.sensors.size());
    slot_sensor.sensor_id = s.id();
    slot_sensor.location = s.position();
    slot_sensor.cost = s.Cost(time);
    slot_sensor.inaccuracy = s.profile().inaccuracy;
    slot_sensor.trust = s.profile().trust;
    ctx.sensors.push_back(slot_sensor);
  }
  ctx.slabs.Resize(ctx.sensors.size());
  for (const SlotSensor& ss : ctx.sensors) {
    ctx.slabs.SetRow(static_cast<size_t>(ss.index), ss);
  }
  AttachSlotIndex(ctx);
  return ctx;
}

/// Quality (Eq. 4) of slot sensor `s` for queried location `lq`.
inline double SlotQuality(const SlotSensor& s, const Point& lq, double dmax) {
  return ReadingQuality(s.inaccuracy, s.trust, Distance(s.location, lq), dmax);
}

}  // namespace psens

#endif  // PSENS_CORE_SLOT_H_
