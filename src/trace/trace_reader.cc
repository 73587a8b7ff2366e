#include "trace/trace_reader.h"

#include <cstdio>
#include <cstring>
#include <string>

namespace psens {
namespace {

bool ReadWholeFile(const std::string& path, std::string* out,
                   std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  out->clear();
  char buffer[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out->append(buffer, got);
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!ok) *error = "read error on " + path;
  return ok;
}

uint32_t ReadU32LE(const char* data) {
  uint32_t v;
  std::memcpy(&v, data, sizeof(v));
  const uint32_t probe = 1;
  unsigned char little;
  std::memcpy(&little, &probe, 1);
  if (!little) {
    v = ((v & 0x00FF00FFu) << 8) | ((v >> 8) & 0x00FF00FFu);
    v = (v << 16) | (v >> 16);
  }
  return v;
}

}  // namespace

bool TraceFile::Load(const std::string& path, std::string* error) {
  if (!ReadWholeFile(path, &bytes_, error)) return false;
  if (!DecodeHeader(bytes_.data(), bytes_.size(), bytes_.size(), &header_,
                    error)) {
    return false;
  }
  records_.clear();
  size_t pos = kTraceHeaderBytes;
  while (pos < bytes_.size()) {
    if (bytes_.size() - pos < sizeof(uint32_t)) {
      *error = "trace truncated: dangling record length prefix at byte " +
               std::to_string(pos);
      return false;
    }
    const uint32_t payload = ReadU32LE(bytes_.data() + pos);
    pos += sizeof(uint32_t);
    if (payload > bytes_.size() - pos) {
      *error = "trace truncated: record at byte " + std::to_string(pos) +
               " claims " + std::to_string(payload) + " bytes, " +
               std::to_string(bytes_.size() - pos) + " remain";
      return false;
    }
    records_.push_back(RecordSpan{pos, payload});
    pos += payload;
  }
  if (header_.slot_count == kSlotCountOpen) {
    // Unfinalized trace (writer crashed before Finish). The record chain
    // validated above is still usable; surface the real count.
    header_.slot_count = static_cast<uint32_t>(records_.size());
  } else if (header_.slot_count != records_.size()) {
    *error = "corrupt trace: header says " +
             std::to_string(header_.slot_count) + " slots, file holds " +
             std::to_string(records_.size());
    return false;
  }
  return true;
}

bool TraceFile::DecodeSlot(int i, TraceSlotRecord* record,
                           std::string* error) const {
  const RecordSpan& span = records_[static_cast<size_t>(i)];
  if (!DecodeSlotRecord(bytes_.data() + span.offset, span.size, record,
                        error, header_.version)) {
    *error = "slot " + std::to_string(i) + ": " + *error;
    return false;
  }
  std::string why;
  if (!ValidateSensorDelta(record->delta, header_.registry_count, &why)) {
    *error = "slot " + std::to_string(i) + ": corrupt slot record: " + why;
    return false;
  }
  return true;
}

bool ReadTraceFile(const std::string& path, TraceData* data,
                   std::string* error) {
  TraceFile file;
  if (!file.Load(path, error)) return false;
  data->header = file.header();
  data->slots.resize(static_cast<size_t>(file.num_slots()));
  for (int i = 0; i < file.num_slots(); ++i) {
    if (!file.DecodeSlot(i, &data->slots[static_cast<size_t>(i)], error)) {
      return false;
    }
  }
  return true;
}

}  // namespace psens
