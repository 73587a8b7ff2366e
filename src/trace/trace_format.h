#ifndef PSENS_TRACE_TRACE_FORMAT_H_
#define PSENS_TRACE_TRACE_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "core/aggregate_query.h"
#include "core/point_query.h"
#include "core/sensor.h"
#include "core/sensor_delta.h"
#include "core/slot.h"

namespace psens {

/// Compact versioned binary trace of an acquisition serving run: one
/// header plus one record per time slot carrying everything needed to
/// re-drive an engine — the slot's SensorDelta, its query batch (point
/// queries and aggregate params), and the ApproxSlotSeed the engine
/// stamped. Together with the initial sensor registry (identified by a
/// checksum, not stored), a trace makes a serving run a replayable,
/// diffable artifact: the replayer reproduces every schedule, payment,
/// and valuation-call count bit for bit (tests/trace_replay_test.cc).
///
/// Encoding: little-endian, fixed-width fields, no alignment padding.
/// Layout (docs/ARCHITECTURE.md, "Trace layer", has the full spec table):
///
///   header   magic "PSENSTRC" | u32 version | u32 header_bytes |
///            u32 registry_count | u32 slot_count | u64 registry_checksum |
///            f64 dmax | f64 region{x_min,y_min,x_max,y_max} |
///            u64 approx_seed | f64 epsilon | i32 min_sample |
///            i32 sample_hint
///   slot     u32 payload_bytes | u32 slot_magic | i32 time |
///            u64 slot_seed |
///            u32 n + entries for: arrivals, departures, moves,
///            price_changes, point queries, aggregate queries
///
/// Version 2 appended to every slot record the engines the adaptive SLO
/// scheduler chose. That scheduler was removed, and a replay without its
/// choices would silently diverge, so DecodeHeader refuses a version-2
/// trace and names it. Version 1 is the only layout written or read (the
/// golden v1 fixture pins its bytes).
///
/// The header's min_sample and sample_hint fields sized the removed
/// stochastic-greedy engine's samples. They stay in the layout, are
/// written as 32 and 0, and are ignored on read.
///
/// `slot_count` is written as kSlotCountOpen while the writer is live and
/// patched by Finish(); a reader seeing kSlotCountOpen knows the trace
/// was never finalized (crash mid-record) and counts records itself.
inline constexpr char kTraceMagic[8] = {'P', 'S', 'E', 'N', 'S', 'T', 'R', 'C'};
inline constexpr uint32_t kTraceVersion = 1;
inline constexpr uint32_t kTraceHeaderBytes = 96;
inline constexpr uint32_t kSlotRecordMagic = 0x544F4C53u;  // "SLOT"
inline constexpr uint32_t kSlotCountOpen = 0xFFFFFFFFu;

/// Decoded trace header.
struct TraceHeader {
  uint32_t version = kTraceVersion;
  uint32_t registry_count = 0;
  uint32_t slot_count = 0;
  /// RegistryChecksum() of the initial sensor registry the trace was
  /// recorded against. Replay refuses a registry whose checksum differs —
  /// the schedules would silently diverge otherwise.
  uint64_t registry_checksum = 0;
  double dmax = 5.0;
  Rect working_region;
  /// ServingConfig::approx at record time. The per-slot seed the engine
  /// derived from it is recorded on every slot record.
  uint64_t approx_seed = 0;
  double epsilon = 0.1;
  /// Format fields only: written as these defaults, ignored on read.
  int32_t min_sample = 32;
  int32_t sample_hint = 0;
};

/// Decoded per-slot record: the full input side of one engine slot.
struct TraceSlotRecord {
  int32_t time = 0;
  /// The ApproxSlotSeed the recording engine stamped onto the slot
  /// context. Replay pins it (AcquisitionEngine::PinNextSlotSeed), so a
  /// sieve run's exploration sample reproduces even when the replaying
  /// config carries a different base seed.
  uint64_t slot_seed = 0;
  SensorDelta delta;
  std::vector<PointQuery> point_queries;
  std::vector<AggregateQuery::Params> aggregate_queries;
};

/// Fully decoded trace.
struct TraceData {
  TraceHeader header;
  std::vector<TraceSlotRecord> slots;
};

/// Order- and content-sensitive checksum of a sensor registry (FNV-1a
/// over id, position, announced base price, presence, and the static
/// quality profile). Two registries with equal checksums drive a replay
/// to the recorded schedules; mismatch is a hard replay error.
uint64_t RegistryChecksum(const std::vector<Sensor>& sensors);

/// Serializes `record` (without the leading payload_bytes field) onto
/// `out`. Deterministic byte-for-byte: the same record always encodes to
/// the same bytes, which is what the golden round-trip test pins.
void EncodeSlotRecord(const TraceSlotRecord& record, std::string* out);

/// Decodes one slot-record payload (the bytes after payload_bytes).
/// Returns false and sets `*error` on any malformed input — bad magic,
/// counts exceeding the payload, trailing bytes, aggregate params that
/// AggregateQuery cannot bind (non-finite, non-positive cell size,
/// negative range, inverted region, grid above AggregateQuery::kMaxCells)
/// — without reading out of bounds. The delta's values and ids are checked
/// separately, by ValidateSensorDelta in TraceFile::DecodeSlot.
bool DecodeSlotRecord(const char* data, size_t size, TraceSlotRecord* record,
                      std::string* error);

/// Serializes the 96-byte header.
void EncodeHeader(const TraceHeader& header, std::string* out);

/// Appends one u32 in the trace's on-disk (little-endian) byte order —
/// the framing primitive the writer uses for record length prefixes and
/// the in-place slot-count patch.
void AppendU32LE(uint32_t v, std::string* out);

/// Decodes and validates a header. Any version but kTraceVersion is
/// refused (version 2 with a message naming the removed adaptive SLO
/// scheduler). `file_size` bounds the slot count sanity check: a
/// finalized slot_count no record stream of `file_size` bytes could hold
/// is rejected as corruption.
bool DecodeHeader(const char* data, size_t size, uint64_t file_size,
                  TraceHeader* header, std::string* error);

}  // namespace psens

#endif  // PSENS_TRACE_TRACE_FORMAT_H_
