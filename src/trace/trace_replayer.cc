#include "trace/trace_replayer.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "engine/serving_engine.h"
#include "trace/trace_format.h"

namespace psens {
namespace {

/// Decodes slot records ahead of the serving loop. Workers claim record
/// indices from one atomic counter; each decoded record is published
/// through a per-record ready flag (release) that the serving thread
/// acquires — the only cross-thread handoff, so serving order (and thus
/// every engine outcome) is independent of worker count and scheduling.
class ParallelDecoder {
 public:
  ParallelDecoder(const TraceFile& trace, int threads)
      : trace_(trace),
        slots_(static_cast<size_t>(trace.num_slots())),
        ready_(std::make_unique<std::atomic<uint8_t>[]>(slots_.size())) {
    for (size_t i = 0; i < slots_.size(); ++i) {
      ready_[i].store(0, std::memory_order_relaxed);
    }
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { DecodeLoop(); });
    }
  }

  ~ParallelDecoder() {
    // Unblock workers still claiming indices, then join.
    next_.store(slots_.size(), std::memory_order_relaxed);
    for (std::thread& w : workers_) w.join();
  }

  /// The serving thread's in-order take. Returns false on decode error.
  bool Wait(size_t i, TraceSlotRecord** record, std::string* error) {
    while (ready_[i].load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    {
      std::lock_guard<std::mutex> lock(error_mutex_);
      if (!error_.empty()) {
        *error = error_;
        return false;
      }
    }
    *record = &slots_[i];
    return true;
  }

 private:
  void DecodeLoop() {
    for (;;) {
      const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= slots_.size()) return;
      std::string error;
      if (!trace_.DecodeSlot(static_cast<int>(i), &slots_[i], &error)) {
        std::lock_guard<std::mutex> lock(error_mutex_);
        if (error_.empty()) error_ = error;
      }
      ready_[i].store(1, std::memory_order_release);
    }
  }

  const TraceFile& trace_;
  std::vector<TraceSlotRecord> slots_;
  std::unique_ptr<std::atomic<uint8_t>[]> ready_;
  std::atomic<size_t> next_{0};
  std::mutex error_mutex_;
  std::string error_;
  std::vector<std::thread> workers_;
};

}  // namespace

TraceReplayer::TraceReplayer(const ReplayConfig& config) : config_(config) {}

ReplayResult TraceReplayer::Replay(const std::string& path,
                                   const std::vector<Sensor>& registry,
                                   MonitorSet* monitors) {
  ReplayResult result;
  TraceFile trace;
  if (!trace.Load(path, &result.error)) return result;
  return Replay(trace, registry, monitors);
}

ReplayResult TraceReplayer::Replay(const TraceFile& trace,
                                   const std::vector<Sensor>& registry,
                                   MonitorSet* monitors) {
  ReplayResult result;
  const TraceHeader& header = trace.header();
  if (registry.size() != header.registry_count) {
    result.error = "registry mismatch: trace recorded " +
                   std::to_string(header.registry_count) + " sensors, got " +
                   std::to_string(registry.size());
    return result;
  }
  if (RegistryChecksum(registry) != header.registry_checksum) {
    result.error =
        "registry mismatch: checksum differs from the recorded registry "
        "(replaying against a different population would silently diverge)";
    return result;
  }

  ServingConfig scfg = config_.serving;
  scfg.working_region = header.working_region;
  scfg.dmax = header.dmax;
  scfg.approx.epsilon = header.epsilon;
  if (!config_.override_approx_seed) scfg.approx.seed = header.approx_seed;
  // The header passed TraceFile::Load's layout checks, not the serving
  // config's rules; MakeServingEngine aborts on a config they refuse.
  const std::string problem = scfg.Validate();
  if (!problem.empty()) {
    result.error = "trace header: " + problem;
    return result;
  }
  std::unique_ptr<ServingEngine> engine = MakeServingEngine(registry, scfg);
  SlotServer server(engine.get());
  server.set_monitors(monitors);

  const size_t n = static_cast<size_t>(trace.num_slots());
  result.outcomes.reserve(n);
  const int decode_threads = config_.decode_threads;
  std::unique_ptr<ParallelDecoder> decoder;
  if (decode_threads > 1 && n > 0) {
    decoder = std::make_unique<ParallelDecoder>(trace, decode_threads);
  }

  // Pacing is anchored at the loop's start; the reported rate is timed
  // from the end of the first record (the cold build) instead.
  const auto start = std::chrono::steady_clock::now();
  auto timed_start = start;
  TraceSlotRecord inline_record;
  for (size_t i = 0; i < n; ++i) {
    TraceSlotRecord* record = nullptr;
    if (decoder != nullptr) {
      if (!decoder->Wait(i, &record, &result.error)) return result;
    } else {
      if (!trace.DecodeSlot(static_cast<int>(i), &inline_record,
                            &result.error)) {
        return result;
      }
      record = &inline_record;
    }
    if (record->engine_choices.size() > 1) {
      // Only per-shard scheduler passes (no longer supported) recorded
      // more than one engine per slot; serving the first choice alone
      // would silently diverge from the recorded run.
      result.error = "slot " + std::to_string(i) + ": records " +
                     std::to_string(record->engine_choices.size()) +
                     " engine choices (a per-shard scheduler run); only "
                     "single-engine traces can be replayed";
      return result;
    }
    if (config_.target_slots_per_sec > 0.0) {
      const auto due =
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) /
                          config_.target_slots_per_sec));
      std::this_thread::sleep_until(due);
    }
    if (config_.pin_slot_seeds) engine->PinNextSlotSeed(record->slot_seed);
    if (!record->engine_choices.empty()) {
      engine->PinNextSelectEngine(record->engine_choices[0]);
    }
    SlotQueryBatch batch;
    batch.points = std::move(record->point_queries);
    batch.aggregates = std::move(record->aggregate_queries);
    result.outcomes.push_back(
        server.ServeSlot(record->time, record->delta, batch));
    if (i == 0) timed_start = std::chrono::steady_clock::now();
  }
  if (n > 1) {
    result.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - timed_start)
                         .count();
  }
  result.slots_per_sec = result.wall_ms > 0.0
                             ? 1000.0 * static_cast<double>(n - 1) /
                                   result.wall_ms
                             : 0.0;
  result.ok = true;
  return result;
}

}  // namespace psens
