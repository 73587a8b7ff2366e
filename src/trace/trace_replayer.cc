#include "trace/trace_replayer.h"

#include <chrono>
#include <memory>
#include <string>

#include "engine/serving_engine.h"
#include "trace/trace_format.h"

namespace psens {

TraceReplayer::TraceReplayer(const ServingConfig& serving)
    : serving_(serving) {}

ReplayResult TraceReplayer::Replay(const std::string& path,
                                   const std::vector<Sensor>& registry,
                                   MonitorSet* monitors) const {
  ReplayResult result;
  TraceFile trace;
  if (!trace.Load(path, &result.error)) return result;
  return Replay(trace, registry, monitors);
}

ReplayResult TraceReplayer::Replay(const TraceFile& trace,
                                   const std::vector<Sensor>& registry,
                                   MonitorSet* monitors) const {
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

  ServingConfig scfg = serving_;
  scfg.working_region = header.working_region;
  scfg.dmax = header.dmax;
  scfg.approx.epsilon = header.epsilon;
  scfg.approx.seed = header.approx_seed;
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
  // The rate is timed from the end of the first record (the cold build).
  auto timed_start = std::chrono::steady_clock::now();
  TraceSlotRecord record;
  for (size_t i = 0; i < n; ++i) {
    if (!trace.DecodeSlot(static_cast<int>(i), &record, &result.error)) {
      return result;
    }
    engine->PinNextSlotSeed(record.slot_seed);
    SlotQueryBatch batch;
    batch.points = std::move(record.point_queries);
    batch.aggregates = std::move(record.aggregate_queries);
    result.outcomes.push_back(
        server.ServeSlot(record.time, record.delta, batch));
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
