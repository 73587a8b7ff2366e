#ifndef PSENS_TRACE_TRACE_WRITER_H_
#define PSENS_TRACE_TRACE_WRITER_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace_format.h"

namespace psens {

/// Appends a serving run's input stream to a trace file. One writer
/// records one run; the engine drives it (ServingConfig::trace_path) and
/// the workload/bench layer stages each slot's query batch through the
/// engine's trace_writer() accessor:
///
///   deltas staged by ApplyDelta/ApplyTrace accumulate until the next
///   BeginSlot, which opens the slot record they belong to; queries
///   staged after BeginSlot attach to that open record; the record is
///   flushed by the following BeginSlot or by Finish().
///
/// The header's slot_count is kSlotCountOpen while recording and patched
/// in place by Finish(), so a crash mid-run leaves a trace the reader
/// recognizes as unfinalized rather than silently short.
class TraceWriter {
 public:
  /// Opens `path` and writes the header. The header's `version` picks
  /// the record layout (kTraceVersion for plain runs, a value up to
  /// kTraceVersionMax for extended layouts; out-of-range versions are
  /// clamped into that range). Returns null (with a message on stderr)
  /// when the file cannot be created.
  static std::unique_ptr<TraceWriter> Open(const std::string& path,
                                           const TraceHeader& header);

  /// Finishes (flushing the open slot record) and closes.
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Accumulates a delta onto the not-yet-begun slot.
  void StageDelta(const SensorDelta& delta);

  /// Flushes the open slot record (if any) and opens the record for slot
  /// `time`, adopting the staged deltas and the engine's stamped
  /// per-slot approx seed.
  void BeginSlot(int time, uint64_t slot_seed);

  /// Attach queries to the open slot record. No-ops (with a stderr
  /// warning once) before the first BeginSlot — queries without a slot
  /// are a caller bug, not a reason to corrupt the trace.
  void StagePointQueries(const std::vector<PointQuery>& queries);
  void StageAggregateQueries(
      const std::vector<AggregateQuery::Params>& queries);

  /// Attach the adaptive policy's engine choices to the open slot record
  /// (AcquisitionEngine::Select calls this as it dispatches). Recorded only
  /// when the trace was opened at kTraceVersionAdaptive or later — on a
  /// version-1 writer this is a no-op, keeping v1 bytes choice-free.
  void StageEngineChoices(const std::vector<GreedyEngine>& engines);

  /// Flushes the open record, patches the header's slot count, and
  /// closes the file. Idempotent. Returns false if any write failed.
  bool Finish();

  int slots_written() const { return slots_written_; }
  const std::string& path() const { return path_; }
  uint32_t version() const { return version_; }

 private:
  TraceWriter(std::FILE* file, std::string path, uint32_t version);

  void FlushOpenSlot();

  std::FILE* file_ = nullptr;
  std::string path_;
  uint32_t version_ = kTraceVersion;
  std::string scratch_;
  TraceSlotRecord open_;
  SensorDelta staged_delta_;
  bool slot_open_ = false;
  bool warned_no_slot_ = false;
  bool write_failed_ = false;
  int slots_written_ = 0;
};

/// Writes a fully materialized trace in one call (golden-file tooling and
/// the round-trip tests; live recording goes through TraceWriter).
/// `data.header.slot_count` is ignored — the actual record count is
/// written. Returns false on I/O failure.
bool WriteTraceFile(const std::string& path, const TraceData& data);

}  // namespace psens

#endif  // PSENS_TRACE_TRACE_WRITER_H_
