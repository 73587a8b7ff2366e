#ifndef PSENS_TRACE_TRACE_READER_H_
#define PSENS_TRACE_TRACE_READER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "trace/trace_format.h"

namespace psens {

/// A loaded-but-not-decoded trace: the validated header plus the byte
/// span of every slot record (offsets into the owned file image). The
/// structural scan — header fields, record length chain, finalized slot
/// count vs records actually present — happens here; per-record field
/// decoding is deferred so the replayer can fan it out across threads
/// (records are independently decodable by construction).
class TraceFile {
 public:
  /// Reads and structurally validates `path`. On failure returns false
  /// and sets `*error` to a one-line diagnosis (bad magic, version skew,
  /// truncation, record-length corruption, slot-count mismatch).
  bool Load(const std::string& path, std::string* error);

  const TraceHeader& header() const { return header_; }
  int num_slots() const { return static_cast<int>(records_.size()); }

  /// Decodes slot record `i`. Thread-safe (reads the immutable image).
  /// Besides DecodeSlotRecord's field checks, refuses any delta
  /// ValidateSensorDelta refuses against header().registry_count (ids
  /// outside the registry, non-finite positions, NaN, infinite or
  /// negative prices) — the check AcquisitionEngine::ApplyDelta applies.
  bool DecodeSlot(int i, TraceSlotRecord* record, std::string* error) const;

  /// Total on-disk size, for bench reporting.
  size_t file_bytes() const { return bytes_.size(); }

 private:
  struct RecordSpan {
    size_t offset = 0;
    size_t size = 0;
  };

  std::string bytes_;
  TraceHeader header_;
  std::vector<RecordSpan> records_;
};

/// Loads and fully decodes a trace in one call (tests, tooling). Returns
/// false and sets `*error` on any structural or field-level corruption.
bool ReadTraceFile(const std::string& path, TraceData* data,
                   std::string* error);

}  // namespace psens

#endif  // PSENS_TRACE_TRACE_READER_H_
