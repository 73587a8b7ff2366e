#include "engine/acquisition_engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "core/sieve_streaming.h"
#include "engine/adaptive_policy.h"
#include "engine/membership_merge.h"
#include "engine/serving_engine.h"
#include "trace/trace_writer.h"

namespace psens {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

/// Presents the engine's id-keyed dynamic index as the slot-indexed
/// SpatialIndex the schedulers consume: an id's slot index is its member
/// rank. Ranks are monotone in id, so translated result lists stay
/// ascending — the tie-break/accumulation-order half of the exactness
/// contract survives the translation for free.
class AcquisitionEngine::SlotIndexView : public SpatialIndex {
 public:
  SlotIndexView(const SpatialIndex* base, const MemberRanks* ranks)
      : base_(base), ranks_(ranks) {}

  void RangeQuery(const Point& center, double radius,
                  std::vector<int>* out) const override {
    base_->RangeQuery(center, radius, out);
    for (int& v : *out) v = static_cast<int>(ranks_->Row(v));
  }
  void RectQuery(const Rect& rect, std::vector<int>* out) const override {
    base_->RectQuery(rect, out);
    for (int& v : *out) v = static_cast<int>(ranks_->Row(v));
  }
  const char* Name() const override { return base_->Name(); }

 private:
  const SpatialIndex* base_;
  const MemberRanks* ranks_;
};

AcquisitionEngine::AcquisitionEngine(std::vector<Sensor> sensors,
                                     const ServingConfig& config)
    : config_(config),
      sensors_(std::move(sensors)),
      ranks_(sensors_.size()),
      grid_batch_(std::max<size_t>(4096, sensors_.size() / 16)),
      last_select_engine_(config.scheduler) {
  const int n = static_cast<int>(sensors_.size());
  for (int i = 0; i < n; ++i) {
    assert(sensors_[i].id() == i && "registry must be id-dense");
    (void)i;
  }
  ctx_.dmax = config_.dmax;
  ctx_.index_policy = config_.index_policy;
  if (!config_.trace_path.empty()) {
    TraceHeader header;
    // Adaptive runs record their per-slot engine choices, which needs the
    // version-2 record layout; plain runs keep writing version-1 bytes.
    header.version =
        config_.slo_ms > 0.0 ? kTraceVersionAdaptive : kTraceVersion;
    header.registry_count = static_cast<uint32_t>(n);
    header.registry_checksum = RegistryChecksum(sensors_);
    header.dmax = config_.dmax;
    header.working_region = config_.working_region;
    header.approx_seed = config_.approx.seed;
    header.epsilon = config_.approx.epsilon;
    trace_ = TraceWriter::Open(config_.trace_path, header);
  }
  changed_bits_.assign((static_cast<size_t>(n) + 63) / 64, 0);
  cost_dirty_.assign(static_cast<size_t>(n), 0);
  privacy_flag_.assign(static_cast<size_t>(n), 0);
  if (config_.index_policy != SlotIndexPolicy::kNone) {
    index_ = std::make_unique<DynamicGridIndex>(config_.working_region, n);
  }
  for (int id = 0; id < n; ++id) {
    MarkChanged(id, /*cost_dirty=*/true);
    if (PrivacyLevelValue(sensors_[id].profile().privacy) > 0.0 &&
        !sensors_[id].report_history().empty()) {
      privacy_flag_[id] = 1;
      privacy_refresh_.push_back(id);
    }
  }
}

AcquisitionEngine::~AcquisitionEngine() = default;

void AcquisitionEngine::PinNextSlotSeed(uint64_t slot_seed) {
  pinned_slot_seed_ = slot_seed;
  has_pinned_slot_seed_ = true;
}

bool AcquisitionEngine::FinishTrace() {
  return trace_ != nullptr && trace_->Finish();
}

void AcquisitionEngine::MarkChanged(int id, bool cost_dirty) {
  if (cost_dirty) cost_dirty_[id] = 1;
  changed_bits_[static_cast<size_t>(id) >> 6] |= uint64_t{1} << (id & 63);
}

void AcquisitionEngine::ApplyTrace(const Trace& trace, int slot) {
  const int n = static_cast<int>(sensors_.size());
  const int tn = trace.NumSensors();
  // When recording, the mobility slot is journaled as the SensorDelta it
  // is equivalent to, so one replay path serves both churn- and
  // trace-driven runs.
  SensorDelta recorded;
  for (int id = 0; id < n; ++id) {
    Sensor& s = sensors_[id];
    const Point p = id < tn ? trace.Position(slot, id) : Point{0, 0};
    const bool present = id < tn && trace.Present(slot, id);
    if (s.present() == present && s.position() == p) continue;
    if (trace_ != nullptr) {
      if (!present) {
        recorded.departures.push_back(id);
      } else if (!s.present()) {
        recorded.arrivals.push_back(SensorDelta::Placement{id, p});
      } else {
        recorded.moves.push_back(SensorDelta::Placement{id, p});
      }
    }
    s.SetPosition(p, present);
    MarkChanged(id, /*cost_dirty=*/false);
  }
  if (trace_ != nullptr && !recorded.empty()) trace_->StageDelta(recorded);
}

bool AcquisitionEngine::ApplyDelta(const SensorDelta& delta,
                                   std::string* error) {
  std::string why;
  if (!ValidateSensorDelta(delta, sensors_.size(), &why)) {
    ++refused_deltas_;
    if (error != nullptr) *error = std::move(why);
    return false;
  }
  if (trace_ != nullptr) trace_->StageDelta(delta);
  for (const SensorDelta::Placement& a : delta.arrivals) {
    sensors_[a.sensor_id].SetPosition(a.position, true);
    MarkChanged(a.sensor_id, /*cost_dirty=*/false);
  }
  for (int id : delta.departures) {
    sensors_[id].SetPosition(sensors_[id].position(), false);
    MarkChanged(id, /*cost_dirty=*/false);
  }
  for (const SensorDelta::Placement& m : delta.moves) {
    sensors_[m.sensor_id].SetPosition(m.position, true);
    MarkChanged(m.sensor_id, /*cost_dirty=*/false);
  }
  for (const SensorDelta::PriceChange& pc : delta.price_changes) {
    sensors_[pc.sensor_id].SetBasePrice(pc.base_price);
    MarkChanged(pc.sensor_id, /*cost_dirty=*/true);
  }
  return true;
}

void AcquisitionEngine::RefreshMember(int id, int time) {
  const Sensor& s = sensors_[id];
  const bool member =
      s.available() && config_.working_region.Contains(s.position());
  const bool was_member = ranks_.Contains(id);
  if (member != was_member) {
    (member ? pending_insert_ : pending_remove_).push_back(id);
    QueueGridOp(id, s.position(), member);
    return;
  }
  if (!member) return;
  // Continuing member: patch its row in place.
  const size_t row = ranks_.Row(id);
  SlotSensorTable& table = ctx_.sensors;
  if (!(Point{table.x[row], table.y[row]} == s.position())) {
    table.x[row] = s.position().x;
    table.y[row] = s.position().y;
    QueueGridOp(id, s.position(), /*live=*/true);
  }
  if (cost_dirty_[id] || privacy_flag_[id]) table.cost[row] = s.Cost(time);
}

void AcquisitionEngine::QueueGridOp(int id, const Point& position,
                                    bool live) {
  if (index_ == nullptr) return;
  grid_ops_.push_back(GridOp{position, id, live});
  if (grid_ops_.size() >= grid_batch_) FlushGridOps();
}

void AcquisitionEngine::FlushGridOps() {
  index_->Apply(grid_ops_);
  grid_ops_.clear();
}

void AcquisitionEngine::RebuildMembership(int time) {
  // BeginSlot's ascending changed-bit sweep queues both lists in id order.
  assert(std::is_sorted(pending_insert_.begin(), pending_insert_.end()));
  assert(std::is_sorted(pending_remove_.begin(), pending_remove_.end()));
  MergeSortedMembership(
      &ctx_.sensors, &ranks_, pending_insert_, pending_remove_,
      [&](int id) {
        const Sensor& s = sensors_[id];
        return SlotSensor{id, s.position(), s.Cost(time),
                          s.profile().inaccuracy, s.profile().trust};
      },
      &merge_plan_);
  pending_insert_.clear();
  pending_remove_.clear();
}

void AcquisitionEngine::AttachIndex() {
  if (index_ == nullptr || ctx_.sensors.size() == 0) {
    ctx_.index.reset();
    return;
  }
  if (view_ == nullptr) {
    view_ = std::make_shared<SlotIndexView>(index_.get(), &ranks_);
  }
  ctx_.index = view_;
}

const SlotContext& AcquisitionEngine::BeginSlot(int time) {
  // Per-slot scratch dies here: everything the previous slot's selection
  // carved from the arena (candidate plans, evaluator buffers, gain
  // scratch) is invalidated in one pointer reset.
  arena_.Reset();
  ctx_.time = time;
  ctx_.arena = &arena_;
  // Pin the sieve's per-slot sample stream: every re-run of this slot
  // (a replay, or a rebuilt reference context in the tests) stamps the
  // same derived seed, so its sieve selections agree bit for bit.
  ctx_.approx = config_.approx;
  ctx_.approx.slot_seed = ApproxSlotSeed(config_.approx, time);
  if (has_pinned_slot_seed_) {
    ctx_.approx.slot_seed = pinned_slot_seed_;
    has_pinned_slot_seed_ = false;
  }
  if (trace_ != nullptr) trace_->BeginSlot(time, ctx_.approx.slot_seed);
  // Privacy-decay set: announced cost drifts with wall-clock time even
  // without any event; membership never changes from it. Changed sensors
  // get the full refresh below instead. Once every history
  // entry has aged past the privacy window the cost is constant until
  // the next reading (which re-enrolls the sensor via NoteReading), so
  // the set is compacted after writing that final constant value —
  // otherwise every sensor ever read would be refreshed forever and the
  // O(churn) turnover claim would erode with run age.
  size_t keep = 0;
  for (int id : privacy_refresh_) {
    if (IsChanged(id)) {
      privacy_refresh_[keep++] = id;  // full refresh below; re-evaluate next slot
      continue;
    }
    const Sensor& s = sensors_[id];
    if (ranks_.Contains(id)) ctx_.sensors.cost[ranks_.Row(id)] = s.Cost(time);
    const bool decaying =
        !s.report_history().empty() &&
        time - s.report_history().back() < s.profile().privacy_window;
    if (decaying) {
      privacy_refresh_[keep++] = id;
    } else {
      privacy_flag_[id] = 0;
    }
  }
  privacy_refresh_.resize(keep);
  // Sweeping the changed bits visits ids in ascending order, which turns
  // the refresh loop's registry, context, and rank accesses into forward
  // sweeps (and hands RebuildMembership pre-sorted pending lists). Each id
  // is visited once, so no id repeats within a grid batch.
  for (size_t w = 0; w < changed_bits_.size(); ++w) {
    uint64_t bits = changed_bits_[w];
    if (bits == 0) continue;
    changed_bits_[w] = 0;
    for (; bits != 0; bits &= bits - 1) {
      const int id = static_cast<int>(w * 64) + std::countr_zero(bits);
      RefreshMember(id, time);
      cost_dirty_[id] = 0;
    }
  }
  if (!grid_ops_.empty()) FlushGridOps();
  if (!pending_insert_.empty() || !pending_remove_.empty()) {
    RebuildMembership(time);
  }
  AttachIndex();
  return ctx_;
}

void AcquisitionEngine::NoteReading(int id, int time) {
  Sensor& s = sensors_[id];
  s.RecordReading(time);
  MarkChanged(id, /*cost_dirty=*/true);
  if (!privacy_flag_[id] &&
      PrivacyLevelValue(s.profile().privacy) > 0.0) {
    privacy_flag_[id] = 1;
    privacy_refresh_.push_back(id);
  }
}

void AcquisitionEngine::RecordReadings(const std::vector<int>& sensor_ids,
                                       int time) {
  for (int id : sensor_ids) NoteReading(id, time);
}

void AcquisitionEngine::RecordSlotReadings(const std::vector<int>& slot_indices,
                                           int time) {
  for (int si : slot_indices) {
    NoteReading(ctx_.sensors.sensor_id[static_cast<size_t>(si)], time);
  }
}

const char* AcquisitionEngine::IndexBackendName() const {
  if (ctx_.index == nullptr) return "none";
  return ctx_.index->Name();
}

void AcquisitionEngine::PinNextSelectEngine(GreedyEngine engine) {
  pinned_engine_ = engine;
  has_pinned_engine_ = true;
}

SelectionResult AcquisitionEngine::Select(
    const std::vector<MultiQuery*>& queries, const SlotContext& slot,
    const SensorDelta& delta) {
  // Replay pinning overrides everything: the recorded run already made
  // the (wall-clock-dependent) choice, and re-deriving it would diverge.
  if (has_pinned_engine_) {
    has_pinned_engine_ = false;
    SelectionResult r = SelectWith(queries, slot, delta, pinned_engine_);
    if (trace_ != nullptr) trace_->StageEngineChoices({pinned_engine_});
    return r;
  }
  if (config_.slo_ms <= 0.0) {
    return SelectWith(queries, slot, delta, config_.scheduler);
  }
  // Adaptive path (ServingConfig::slo_ms > 0): choose, run self-timed,
  // feed a lazy slot's realized latency back, and record the choice.
  if (policy_ == nullptr) {
    policy_ = std::make_unique<AdaptivePolicy>(config_.slo_ms,
                                               config_.scheduler);
  }
  AdaptivePolicy::SlotFeatures features;
  features.members = static_cast<int>(slot.sensors.size());
  features.queries = static_cast<int>(queries.size());
  const GreedyEngine engine = policy_->Choose(features, last_turnover_ms_);
  const auto start = std::chrono::steady_clock::now();
  SelectionResult r = SelectWith(queries, slot, delta, engine);
  if (engine == GreedyEngine::kLazy) {
    policy_->Observe(features, MsSince(start));
  }
  if (trace_ != nullptr) trace_->StageEngineChoices({engine});
  return r;
}

SelectionResult AcquisitionEngine::SelectWith(
    const std::vector<MultiQuery*>& queries, const SlotContext& slot,
    const SensorDelta& delta, GreedyEngine engine) {
  // Re-entering the sieve after another engine's slots: the carried
  // buckets missed those slots' deltas, so the state is stale — rebuild
  // (SelectDelta falls back to a full re-stream). Keyed purely on the
  // choice sequence, so pinned replay choices reproduce the same resets.
  // A static all-sieve run never transitions, so its buckets carry across
  // every slot. (Before the first Select sieve_ is still null, so the
  // initial last_select_engine_ value does not matter.)
  const bool stale = last_select_engine_ != GreedyEngine::kSieve;
  last_select_engine_ = engine;
  if (engine != GreedyEngine::kSieve) {
    return GreedySensorSelection(queries, slot);
  }
  if (sieve_ == nullptr || stale) {
    sieve_ = std::make_unique<SieveStreamingScheduler>(config_.approx);
  }
  return sieve_->SelectDelta(queries, slot, delta);
}

std::unique_ptr<ServingEngine> MakeServingEngine(std::vector<Sensor> sensors,
                                                 const ServingConfig& config) {
  const std::string problem = config.Validate();
  if (!problem.empty()) {
    std::fprintf(stderr, "MakeServingEngine: invalid config: %s\n",
                 problem.c_str());
    std::abort();
  }
  return std::make_unique<AcquisitionEngine>(std::move(sensors), config);
}

}  // namespace psens
