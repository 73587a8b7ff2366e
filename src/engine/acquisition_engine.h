#ifndef PSENS_ENGINE_ACQUISITION_ENGINE_H_
#define PSENS_ENGINE_ACQUISITION_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/arena.h"
#include "core/greedy.h"
#include "core/sensor.h"
#include "core/sensor_delta.h"
#include "core/slot.h"
#include "engine/membership_merge.h"
#include "engine/serving_config.h"
#include "index/dynamic_index.h"
#include "mobility/trace.h"

namespace psens {

class SieveStreamingScheduler;
class TraceWriter;

/// The serving engine: owns the sensor registry, the current slot
/// context, a dynamic grid index, and the cross-slot selection state,
/// carrying all of them across time slots. It is the one surface the
/// serving layer (SlotServer, the closed loop, the trace replayer, the
/// fig benches) programs against (engine/serving_engine.h names it
/// ServingEngine). One slot's lifecycle:
///
///   engine.ApplyDelta(delta);                   // or ApplyTrace
///   const SlotContext& slot = engine.BeginSlot(t);
///   ... bind the slot's queries against `slot` ...
///   SelectionResult r = engine.Select(queries, slot, delta);
///   engine.RecordSlotReadings(r.selected_sensors, t);
///
/// BeginSlot only touches what the deltas invalidated:
/// membership changes merge into the sorted slot-sensor table, moved
/// sensors patch their location in place, the index takes the slot's
/// membership and position changes as cell-ordered batches, and announced
/// costs are recomputed only for sensors whose cost can actually have
/// changed (price re-announcements, readings taken, and the privacy decay
/// set — see below). The resulting context is bit-identical to a from-
/// scratch BuildSlotContext over the same registry.
///
/// Select runs the configured scheduler (ServingConfig::scheduler) and
/// commits Algorithm 1's proportional payments through
/// CommitWithProportionalPayments; for GreedyEngine::kSieve it owns the
/// one cross-slot sieve bucket state, which is part of the run's
/// determinism and therefore lives with the engine, not with any one
/// serving loop.
///
/// Contract: for a fixed input stream (registry, deltas, query batches,
/// per-slot seeds), selections, payments and valuation calls are
/// bit-identical regardless of index policy (an unindexed slot finds the
/// grid's candidates by a column scan), and every slot context equals
/// BuildSlotContext over the current registry (the reference the
/// streaming-equivalence suite checks it against), so the two select
/// alike down to their valuation calls. SameOutcome()
/// (trace/slot_server.h) is the comparator; the streaming-equivalence
/// and replay differential suites enforce it.
///
/// The registry must be id-dense: sensors_[i].id() == i (what
/// GenerateSensors produces). Asserted at construction.
class AcquisitionEngine {
 public:
  AcquisitionEngine(std::vector<Sensor> sensors, const ServingConfig& config);
  ~AcquisitionEngine();  // out-of-line: the sieve_ type is incomplete

  // Pinned: the slot context's index view holds pointers into this
  // object (ranks_, the dynamic index), so a moved-from or copied
  // engine would hand schedulers dangling state.
  AcquisitionEngine(const AcquisitionEngine&) = delete;
  AcquisitionEngine& operator=(const AcquisitionEngine&) = delete;
  AcquisitionEngine(AcquisitionEngine&&) = delete;
  AcquisitionEngine& operator=(AcquisitionEngine&&) = delete;

  /// Streams one mobility-trace slot in as a delta: only sensors whose
  /// position or presence actually changed are touched. Sensors beyond the
  /// trace width are marked absent (same convention as ApplyTraceSlot).
  void ApplyTrace(const Trace& trace, int slot);

  /// Applies a churn delta (arrivals/departures/moves/price changes).
  /// A delta ValidateSensorDelta refuses (an id outside the registry, a
  /// non-finite coordinate, a NaN, infinite or negative price) is refused
  /// whole: nothing is applied or recorded, refused_deltas() counts it,
  /// and the call returns false with the reason in `*error` when given.
  bool ApplyDelta(const SensorDelta& delta, std::string* error = nullptr);

  /// Deltas ApplyDelta has refused so far.
  int64_t refused_deltas() const { return refused_deltas_; }

  /// Finalizes announcements for slot `time` and returns the context.
  /// Valid until the next BeginSlot call or engine destruction.
  const SlotContext& BeginSlot(int time);

  /// Charges one reading each to the given *global sensor ids* at slot
  /// `time` (energy + privacy history), flagging their announcements for
  /// refresh at the next BeginSlot.
  void RecordReadings(const std::vector<int>& sensor_ids, int time);

  /// Same, addressed by the current context's slot-sensor indices (the
  /// form scheduler results use).
  void RecordSlotReadings(const std::vector<int>& slot_indices, int time);

  /// Runs the configured scheduler over the bound queries and commits
  /// proportional payments. `delta` is the slot's churn delta (the sieve
  /// absorbs it instead of re-streaming the population; lazy ignores it).
  SelectionResult Select(const std::vector<MultiQuery*>& queries,
                         const SlotContext& slot, const SensorDelta& delta);

  /// Does nothing. It took the slot's turnover time for the removed
  /// adaptive SLO scheduler; perfbench's traced serving loop still calls
  /// it, so it stays until that loop is deleted.
  void NoteTurnoverMs(double /*ms*/) {}

  const std::vector<Sensor>& sensors() const { return sensors_; }
  const ServingConfig& config() const { return config_; }
  /// Name of the index attached to the current slot: "dynamic-grid", or
  /// "none" under SlotIndexPolicy::kNone and on an empty slot.
  const char* IndexBackendName() const;

  /// Pins the approx slot seed the *next* BeginSlot stamps, overriding
  /// the (approx.seed, time) derivation for that one slot. The trace
  /// replayer uses this to impose each recorded slot's seed, which is
  /// what lets a replayed sieve run reproduce the live run's
  /// selections without knowing the original base seed.
  void PinNextSlotSeed(uint64_t slot_seed);

  /// The live trace recorder, or null when ServingConfig::trace_path is
  /// empty (or the file could not be created). The serving layer stages
  /// each slot's query batch here after BeginSlot.
  TraceWriter* trace_writer() { return trace_.get(); }

  /// Finalizes the trace (patches the slot count, closes the file).
  /// Called automatically on destruction; call it explicitly to read the
  /// trace back while the engine lives. Returns false if recording was
  /// off or any write failed.
  bool FinishTrace();

 private:
  /// Adapter presenting the engine's id-keyed dynamic index as the
  /// slot-indexed SpatialIndex schedulers expect: each id becomes its
  /// member rank (ranks_). Ranks ascend with ids, so translated results
  /// stay ascending.
  class SlotIndexView;

  void MarkChanged(int id, bool cost_dirty);
  bool IsChanged(int id) const {
    return (changed_bits_[static_cast<size_t>(id) >> 6] >> (id & 63)) & 1;
  }
  void NoteReading(int id, int time);
  void RefreshMember(int id, int time);
  /// Queues one grid op for the slot's batch, applying the batch once it
  /// holds grid_batch_ ops.
  void QueueGridOp(int id, const Point& position, bool live);
  void FlushGridOps();
  void RebuildMembership(int time);
  void AttachIndex();

  ServingConfig config_;
  std::vector<Sensor> sensors_;
  SlotContext ctx_;
  /// The members of ctx_.sensors by id; a member's row is its rank.
  MemberRanks ranks_;
  /// Id-keyed grid over the members, laid out once for the registry size
  /// over the working region; null under SlotIndexPolicy::kNone.
  std::unique_ptr<DynamicGridIndex> index_;
  /// The grid ops BeginSlot's sweep has queued and not yet applied.
  std::vector<GridOp> grid_ops_;
  /// Ops per grid batch: max(4096, n / 16) for an n-sensor registry. The
  /// batch's op and touch buffers grow with it; the bound keeps them to
  /// 1/16 of a cold build's, where all n sensors arrive at once.
  const size_t grid_batch_;
  std::shared_ptr<SlotIndexView> view_;
  /// One bit per registry id: sensors touched since the last BeginSlot.
  /// BeginSlot sweeps the set bits in ascending id order, clearing each
  /// word as it goes, so turnover costs O(changed + n/64), not a sort.
  std::vector<uint64_t> changed_bits_;
  /// Changed sensors whose announced cost must be recomputed.
  std::vector<char> cost_dirty_;
  /// Sensors whose privacy cost decays with wall-clock time (privacy
  /// multiplier > 0 and non-empty report history): refreshed every slot.
  std::vector<int> privacy_refresh_;
  std::vector<char> privacy_flag_;
  /// Membership changes discovered by BeginSlot, merged in one pass.
  std::vector<int> pending_insert_;
  std::vector<int> pending_remove_;
  /// The membership merge's run plan (engine/membership_merge.h).
  MembershipMergePlan merge_plan_;
  /// Slot-lifetime scratch arena handed to schedulers through
  /// SlotContext::arena; reset at every BeginSlot.
  SlotArena arena_;
  /// Live trace recorder (ServingConfig::trace_path); null when off.
  std::unique_ptr<TraceWriter> trace_;
  int64_t refused_deltas_ = 0;
  /// One-shot approx-seed override for the next BeginSlot (replay).
  uint64_t pinned_slot_seed_ = 0;
  bool has_pinned_slot_seed_ = false;

  /// Cross-slot sieve bucket state (GreedyEngine::kSieve only), built
  /// lazily from config().approx on the first Select and carried across
  /// every later slot.
  std::unique_ptr<SieveStreamingScheduler> sieve_;
};

}  // namespace psens

#endif  // PSENS_ENGINE_ACQUISITION_ENGINE_H_
