#ifndef PSENS_CORE_SLOT_H_
#define PSENS_CORE_SLOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/geometry.h"
#include "core/sensor.h"
#include "index/spatial_index.h"

namespace psens {

class SlotArena;

/// Whether a slot's sensor locations are spatially indexed. The index
/// only ever *prunes* candidate scans — every valuation is exactly zero
/// beyond its radius, so indexed and unindexed runs produce bit-identical
/// selections and payments (tests/pruning_equivalence_test).
enum class SlotIndexPolicy {
  /// Index every non-empty slot with a uniform grid (the default): the
  /// CSR `UniformGridIndex` on a built slot, the engine's id-keyed
  /// `DynamicGridIndex` on a served one.
  kGrid,
  /// Never index: schedulers scan `sensors` end to end (the reference
  /// path).
  kNone,
};

/// Knobs for the approximate scheduler (GreedyEngine::kSieve,
/// src/core/sieve_streaming.h). Carried on the SlotContext so the
/// scheduler sees them the same way it sees the index; the exact engines
/// ignore them entirely.
struct ApproxParams {
  /// Sieve streaming spaces its threshold grid by factors of
  /// (1 + epsilon) and keeps buckets down to epsilon * max single net.
  double epsilon = 0.1;
  /// Base seed of the per-slot RNG stream the sieve's refinement pass
  /// draws its exploration sample from. The effective stream is derived
  /// from (seed, SlotContext::time) unless `slot_seed` pins it, so
  /// re-running a slot samples identically (ApproxSlotSeed).
  uint64_t seed = 0x5EEDC0DE5EEDC0DEULL;
  /// Pinned per-slot stream; 0 (default) derives it from seed and time.
  uint64_t slot_seed = 0;
};

/// The per-slot sampling stream: ApproxParams::slot_seed when set, else a
/// splitmix64-style mix of ApproxParams::seed and `time`. The engine
/// stamps it onto each slot context and traces record it, so a replay
/// can pin the stream without knowing the base seed.
inline uint64_t ApproxSlotSeed(const ApproxParams& params, int time) {
  if (params.slot_seed != 0) return params.slot_seed;
  // splitmix64 finalizer over seed xor a time-derived odd constant: slots
  // get well-separated streams from one base seed.
  uint64_t z = params.seed + 0x9E3779B97F4A7C15ULL *
                                 (static_cast<uint64_t>(time) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z != 0 ? z : 1;  // 0 means "derive", never emit it
}

/// A sensor as announced to the aggregator at the beginning of a time slot
/// (Section 2.1): its location and its price for providing one measurement
/// now, plus the static quality attributes the aggregator knows. A plain
/// value type: SlotContext stores the announcements as columns
/// (SlotSensorTable), and scalar code assembles one with Row(i).
struct SlotSensor {
  /// Global sensor id (index into the aggregator's sensor registry).
  int sensor_id = 0;
  Point location;
  /// Announced cost c_s for this slot (Eq. 8).
  double cost = 0.0;
  double inaccuracy = 0.0;
  double trust = 1.0;
};

/// The slot's announcements, stored once, as columns: row i is slot
/// sensor i (the index schedulers use), and rows ascend by sensor_id.
/// Each row is 44 bytes (a 4-byte id plus five 8-byte fields). The
/// valuation kernels in the query classes and batch_eval stream the
/// columns, which keeps their fp loads contiguous and lets the compiler
/// auto-vectorize without intrinsics; the counted sensor-addressed
/// references (MultiQuery::MarginalValue) read whole rows through Row(i).
struct SlotSensorTable {
  std::vector<int> sensor_id;
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> cost;
  std::vector<double> inaccuracy;
  std::vector<double> trust;

  size_t size() const { return sensor_id.size(); }

  /// Resizes every column; shrinking keeps the capacity.
  void Resize(size_t n) {
    sensor_id.resize(n);
    x.resize(n);
    y.resize(n);
    cost.resize(n);
    inaccuracy.resize(n);
    trust.resize(n);
  }

  /// Row i assembled as a value.
  SlotSensor Row(size_t i) const {
    return SlotSensor{sensor_id[i], Point{x[i], y[i]}, cost[i], inaccuracy[i],
                      trust[i]};
  }

  /// Appends `s` as the next row.
  void Append(const SlotSensor& s) {
    sensor_id.push_back(s.sensor_id);
    x.push_back(s.location.x);
    y.push_back(s.location.y);
    cost.push_back(s.cost);
    inaccuracy.push_back(s.inaccuracy);
    trust.push_back(s.trust);
  }
};

/// Everything schedulers need about the current time slot.
struct SlotContext {
  int time = 0;
  /// Maximum distance at which a sensor can serve a queried location
  /// (d_max of Eq. 4). Experiment-wide constant in the paper.
  double dmax = 5.0;
  /// The announcements of the slot's participating sensors.
  SlotSensorTable sensors;
  SlotIndexPolicy index_policy = SlotIndexPolicy::kGrid;
  /// Spatial index over `sensors` locations (point index i == slot-sensor
  /// index i), or null when the policy is kNone or the slot is empty.
  /// Schedulers treat null as "scan everything".
  std::shared_ptr<const SpatialIndex> index;
  /// Approximate-scheduler knobs (ignored by the exact engines).
  ApproxParams approx;
  /// Slot-lifetime scratch arena (non-owning; the engine resets it at
  /// each BeginSlot). Null means scratch consumers fall back to owned
  /// heap buffers.
  SlotArena* arena = nullptr;
};

/// (Re)builds `slot.index` from `slot.sensors` per `slot.index_policy`.
/// Defined in src/index/spatial_index.cc.
void AttachSlotIndex(SlotContext& slot);

/// Writes to `out` (cleared first) the slot rows whose location lies in
/// `rect` (inclusive bounds, Rect::Contains), ascending: one probe of the
/// slot index, or a Contains scan of the columns when the slot is
/// unindexed. The index returns exactly what the scan accepts, so the
/// two agree bit for bit.
inline void SlotRowsInRect(const SlotContext& slot, const Rect& rect,
                           std::vector<int>* out) {
  if (slot.index != nullptr) {
    slot.index->RectQuery(rect, out);
    return;
  }
  out->clear();
  const SlotSensorTable& table = slot.sensors;
  for (int si = 0; si < static_cast<int>(table.size()); ++si) {
    if (rect.Contains(Point{table.x[si], table.y[si]})) out->push_back(si);
  }
}

/// Builds the slot context from the sensor registry: available sensors
/// inside `working_region` announce their location and cost. Attaches the
/// spatial index per `index_policy`.
inline SlotContext BuildSlotContext(const std::vector<Sensor>& sensors,
                                    const Rect& working_region, int time,
                                    double dmax,
                                    SlotIndexPolicy index_policy = SlotIndexPolicy::kGrid) {
  SlotContext ctx;
  ctx.time = time;
  ctx.dmax = dmax;
  ctx.index_policy = index_policy;
  for (const Sensor& s : sensors) {
    if (!s.available()) continue;
    if (!working_region.Contains(s.position())) continue;
    ctx.sensors.Append(SlotSensor{s.id(), s.position(), s.Cost(time),
                                  s.profile().inaccuracy, s.profile().trust});
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
