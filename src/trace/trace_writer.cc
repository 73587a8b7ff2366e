#include "trace/trace_writer.h"

#include <cstring>

namespace psens {
namespace {

void AppendDelta(const SensorDelta& src, SensorDelta* dst) {
  dst->arrivals.insert(dst->arrivals.end(), src.arrivals.begin(),
                       src.arrivals.end());
  dst->departures.insert(dst->departures.end(), src.departures.begin(),
                         src.departures.end());
  dst->moves.insert(dst->moves.end(), src.moves.begin(), src.moves.end());
  dst->price_changes.insert(dst->price_changes.end(),
                            src.price_changes.begin(),
                            src.price_changes.end());
}

void ClearRecord(TraceSlotRecord* record) {
  record->time = 0;
  record->slot_seed = 0;
  record->delta.arrivals.clear();
  record->delta.departures.clear();
  record->delta.moves.clear();
  record->delta.price_changes.clear();
  record->point_queries.clear();
  record->aggregate_queries.clear();
}

bool WriteRecord(std::FILE* file, const TraceSlotRecord& record,
                 std::string* scratch) {
  scratch->clear();
  EncodeSlotRecord(record, scratch);
  std::string framed;
  framed.reserve(scratch->size() + sizeof(uint32_t));
  // Length prefix first: the reader walks records by it and validates it
  // against the bytes actually present.
  AppendU32LE(static_cast<uint32_t>(scratch->size()), &framed);
  framed.append(*scratch);
  return std::fwrite(framed.data(), 1, framed.size(), file) == framed.size();
}

}  // namespace

std::unique_ptr<TraceWriter> TraceWriter::Open(const std::string& path,
                                               const TraceHeader& header) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "TraceWriter: cannot create %s\n", path.c_str());
    return nullptr;
  }
  TraceHeader open_header = header;
  open_header.slot_count = kSlotCountOpen;
  std::string bytes;
  EncodeHeader(open_header, &bytes);
  if (std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
    std::fprintf(stderr, "TraceWriter: header write failed for %s\n",
                 path.c_str());
    std::fclose(file);
    return nullptr;
  }
  return std::unique_ptr<TraceWriter>(new TraceWriter(file, path));
}

TraceWriter::TraceWriter(std::FILE* file, std::string path)
    : file_(file), path_(std::move(path)) {}

TraceWriter::~TraceWriter() { Finish(); }

void TraceWriter::StageDelta(const SensorDelta& delta) {
  if (file_ == nullptr) return;
  AppendDelta(delta, &staged_delta_);
}

void TraceWriter::BeginSlot(int time, uint64_t slot_seed) {
  if (file_ == nullptr) return;
  FlushOpenSlot();
  ClearRecord(&open_);
  open_.time = time;
  open_.slot_seed = slot_seed;
  std::swap(open_.delta, staged_delta_);
  staged_delta_ = SensorDelta{};
  slot_open_ = true;
}

void TraceWriter::StagePointQueries(const std::vector<PointQuery>& queries) {
  if (file_ == nullptr) return;
  if (!slot_open_) {
    if (!warned_no_slot_) {
      std::fprintf(stderr,
                   "TraceWriter: queries staged before the first BeginSlot "
                   "are dropped\n");
      warned_no_slot_ = true;
    }
    return;
  }
  open_.point_queries.insert(open_.point_queries.end(), queries.begin(),
                             queries.end());
}

void TraceWriter::StageAggregateQueries(
    const std::vector<AggregateQuery::Params>& queries) {
  if (file_ == nullptr) return;
  if (!slot_open_) {
    if (!warned_no_slot_) {
      std::fprintf(stderr,
                   "TraceWriter: queries staged before the first BeginSlot "
                   "are dropped\n");
      warned_no_slot_ = true;
    }
    return;
  }
  open_.aggregate_queries.insert(open_.aggregate_queries.end(),
                                 queries.begin(), queries.end());
}

void TraceWriter::FlushOpenSlot() {
  if (!slot_open_) return;
  if (!WriteRecord(file_, open_, &scratch_)) write_failed_ = true;
  slot_open_ = false;
  ++slots_written_;
}

bool TraceWriter::Finish() {
  if (file_ == nullptr) return !write_failed_;
  FlushOpenSlot();
  // Patch the slot count in place (offset: magic + version + header_bytes).
  const long slot_count_offset = 8 + 4 + 4 + 4;
  bool ok = !write_failed_;
  if (std::fseek(file_, slot_count_offset, SEEK_SET) == 0) {
    std::string bytes;
    AppendU32LE(static_cast<uint32_t>(slots_written_), &bytes);
    if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
      ok = false;
    }
  } else {
    ok = false;
  }
  if (std::fclose(file_) != 0) ok = false;
  file_ = nullptr;
  if (!ok) {
    std::fprintf(stderr, "TraceWriter: finalize failed for %s\n",
                 path_.c_str());
  }
  return ok;
}

bool WriteTraceFile(const std::string& path, const TraceData& data) {
  std::unique_ptr<TraceWriter> writer = TraceWriter::Open(path, data.header);
  if (writer == nullptr) return false;
  for (const TraceSlotRecord& slot : data.slots) {
    writer->StageDelta(slot.delta);
    writer->BeginSlot(slot.time, slot.slot_seed);
    writer->StagePointQueries(slot.point_queries);
    writer->StageAggregateQueries(slot.aggregate_queries);
  }
  return writer->Finish();
}

}  // namespace psens
