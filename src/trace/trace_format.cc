#include "trace/trace_format.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

namespace psens {
namespace {

/// The engine-choice value version-2 traces used for stochastic greedy
/// before that engine was removed. Decode refuses it by name: serving the
/// slot with another engine would silently diverge from the recording.
constexpr int32_t kRemovedStochasticEngine = 2;

// ---------------------------------------------------------------------------
// Little-endian primitive encoding. memcpy through fixed-width integers
// keeps every access aligned and UB-free; on big-endian hosts the byte
// swap below makes the on-disk format identical.
// ---------------------------------------------------------------------------

inline bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  unsigned char byte;
  std::memcpy(&byte, &probe, 1);
  return byte == 1;
}

inline uint64_t ByteSwap64(uint64_t v) {
  v = ((v & 0x00FF00FF00FF00FFULL) << 8) | ((v >> 8) & 0x00FF00FF00FF00FFULL);
  v = ((v & 0x0000FFFF0000FFFFULL) << 16) |
      ((v >> 16) & 0x0000FFFF0000FFFFULL);
  return (v << 32) | (v >> 32);
}

inline uint32_t ByteSwap32(uint32_t v) {
  v = ((v & 0x00FF00FFu) << 8) | ((v >> 8) & 0x00FF00FFu);
  return (v << 16) | (v >> 16);
}

inline uint64_t ToLittle64(uint64_t v) {
  return HostIsLittleEndian() ? v : ByteSwap64(v);
}
inline uint32_t ToLittle32(uint32_t v) {
  return HostIsLittleEndian() ? v : ByteSwap32(v);
}

void PutU32(uint32_t v, std::string* out) {
  v = ToLittle32(v);
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutI32(int32_t v, std::string* out) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(bits, out);
}

void PutU64(uint64_t v, std::string* out) {
  v = ToLittle64(v);
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutF64(double v, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

/// Bounds-checked sequential reader over a byte span. Every Get* refuses
/// to read past the end, so a truncated or lying record fails with a
/// clean error instead of undefined behaviour.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  bool GetU32(uint32_t* v) {
    if (remaining() < sizeof(*v)) return false;
    std::memcpy(v, data_ + pos_, sizeof(*v));
    *v = ToLittle32(*v);
    pos_ += sizeof(*v);
    return true;
  }

  bool GetI32(int32_t* v) {
    uint32_t bits;
    if (!GetU32(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool GetU64(uint64_t* v) {
    if (remaining() < sizeof(*v)) return false;
    std::memcpy(v, data_ + pos_, sizeof(*v));
    *v = ToLittle64(*v);
    pos_ += sizeof(*v);
    return true;
  }

  bool GetF64(double* v) {
    uint64_t bits;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  /// Reads an element count and verifies that `count * element_bytes`
  /// still fits in the remaining payload — the single check that defuses
  /// both hostile counts and integer-overflow tricks (count is 32-bit,
  /// the product is computed in 64 bits).
  bool GetCount(size_t element_bytes, uint32_t* count) {
    if (!GetU32(count)) return false;
    const uint64_t need =
        static_cast<uint64_t>(*count) * static_cast<uint64_t>(element_bytes);
    return need <= remaining();
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

uint64_t Fnv1a(uint64_t hash, const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

uint64_t Fnv1aF64(uint64_t hash, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  bits = ToLittle64(bits);
  return Fnv1a(hash, &bits, sizeof(bits));
}

uint64_t Fnv1aI32(uint64_t hash, int32_t v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  bits = ToLittle32(bits);
  return Fnv1a(hash, &bits, sizeof(bits));
}

// Per-element encoded sizes (used for count validation on decode).
constexpr size_t kPlacementBytes = 4 + 8 + 8;
constexpr size_t kDepartureBytes = 4;
constexpr size_t kPriceChangeBytes = 4 + 8;
constexpr size_t kPointQueryBytes = 4 + 8 + 8 + 8 + 8 + 4;
constexpr size_t kAggregateBytes = 4 + 4 * 8 + 8 + 8 + 8;

std::string FormatF64(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

/// Sets *error to a decode refusal naming the record entry (e.g.
/// "point query 1001"), the field, and its value; returns false.
bool RefuseValue(const std::string& entry, const char* field, double value,
                 const std::string& why, std::string* error) {
  *error = "corrupt slot record: " + entry + " " + field + " " +
           FormatF64(value) + " " + why;
  return false;
}

/// Point queries bind their location, budget and threshold straight into
/// the valuation (Eq. 3-4); refuse any that is not finite.
bool CheckPointQuery(const PointQuery& q, std::string* error) {
  const std::pair<const char*, double> fields[] = {
      {"location.x", q.location.x},
      {"location.y", q.location.y},
      {"budget", q.budget},
      {"theta_min", q.theta_min}};
  for (const auto& [field, value] : fields) {
    if (std::isfinite(value)) continue;
    return RefuseValue("point query " + std::to_string(q.id), field, value,
                       "is not finite", error);
  }
  return true;
}

/// Replay binds decoded aggregate params straight into AggregateQuery,
/// whose grid arithmetic converts region extents over the cell size to
/// int; refuse every input that would make that undefined or ask for an
/// absurd grid (see AggregateQuery::kMaxCells).
bool CheckAggregateParams(const AggregateQuery::Params& p,
                          std::string* error) {
  const auto refuse = [&](const char* field, double value,
                          const std::string& why) {
    return RefuseValue("aggregate query " + std::to_string(p.id), field,
                       value, why, error);
  };
  const std::pair<const char*, double> fields[] = {
      {"region.x_min", p.region.x_min}, {"region.y_min", p.region.y_min},
      {"region.x_max", p.region.x_max}, {"region.y_max", p.region.y_max},
      {"budget", p.budget},             {"sensing_range", p.sensing_range},
      {"cell_size", p.cell_size}};
  for (const auto& [field, value] : fields) {
    if (!std::isfinite(value)) return refuse(field, value, "is not finite");
  }
  if (p.cell_size <= 0.0) {
    return refuse("cell_size", p.cell_size, "is not positive");
  }
  if (p.sensing_range < 0.0) {
    return refuse("sensing_range", p.sensing_range, "is negative");
  }
  if (p.region.x_min > p.region.x_max) {
    return refuse("region.x_min", p.region.x_min,
                  "exceeds region.x_max " + FormatF64(p.region.x_max));
  }
  if (p.region.y_min > p.region.y_max) {
    return refuse("region.y_min", p.region.y_min,
                  "exceeds region.y_max " + FormatF64(p.region.y_max));
  }
  // In double, so no extent can overflow; an infinite quotient fails too.
  const double cells =
      std::max(1.0, std::ceil(p.region.Width() / p.cell_size)) *
      std::max(1.0, std::ceil(p.region.Height() / p.cell_size));
  if (!(cells <= AggregateQuery::kMaxCells)) {
    return refuse("cell_size", p.cell_size,
                  "asks for a grid of " + FormatF64(cells) +
                      " cells, above the cap of " +
                      std::to_string(AggregateQuery::kMaxCells));
  }
  return true;
}

}  // namespace

uint64_t RegistryChecksum(const std::vector<Sensor>& sensors) {
  uint64_t hash = 0xCBF29CE484222325ULL;  // FNV offset basis
  hash = Fnv1aI32(hash, static_cast<int32_t>(sensors.size()));
  for (const Sensor& s : sensors) {
    hash = Fnv1aI32(hash, s.id());
    hash = Fnv1aF64(hash, s.position().x);
    hash = Fnv1aF64(hash, s.position().y);
    hash = Fnv1aI32(hash, s.present() ? 1 : 0);
    const SensorProfile& p = s.profile();
    hash = Fnv1aF64(hash, p.base_price);
    hash = Fnv1aF64(hash, p.inaccuracy);
    hash = Fnv1aF64(hash, p.trust);
    hash = Fnv1aF64(hash, p.energy_beta);
    hash = Fnv1aI32(hash, static_cast<int32_t>(p.energy_model));
    hash = Fnv1aI32(hash, static_cast<int32_t>(p.privacy));
    hash = Fnv1aI32(hash, p.privacy_window);
    hash = Fnv1aI32(hash, p.lifetime);
  }
  return hash;
}

void AppendU32LE(uint32_t v, std::string* out) { PutU32(v, out); }

void EncodeHeader(const TraceHeader& header, std::string* out) {
  out->append(kTraceMagic, sizeof(kTraceMagic));
  PutU32(header.version, out);
  PutU32(kTraceHeaderBytes, out);
  PutU32(header.registry_count, out);
  PutU32(header.slot_count, out);
  PutU64(header.registry_checksum, out);
  PutF64(header.dmax, out);
  PutF64(header.working_region.x_min, out);
  PutF64(header.working_region.y_min, out);
  PutF64(header.working_region.x_max, out);
  PutF64(header.working_region.y_max, out);
  PutU64(header.approx_seed, out);
  PutF64(header.epsilon, out);
  PutI32(header.min_sample, out);
  PutI32(header.sample_hint, out);
}

bool DecodeHeader(const char* data, size_t size, uint64_t file_size,
                  TraceHeader* header, std::string* error) {
  if (size < kTraceHeaderBytes) {
    *error = "trace truncated: file shorter than the 96-byte header";
    return false;
  }
  if (std::memcmp(data, kTraceMagic, sizeof(kTraceMagic)) != 0) {
    *error = "bad magic: not a psens trace file";
    return false;
  }
  Cursor c(data + sizeof(kTraceMagic), size - sizeof(kTraceMagic));
  uint32_t header_bytes = 0;
  if (!c.GetU32(&header->version) || !c.GetU32(&header_bytes) ||
      !c.GetU32(&header->registry_count) || !c.GetU32(&header->slot_count) ||
      !c.GetU64(&header->registry_checksum) || !c.GetF64(&header->dmax) ||
      !c.GetF64(&header->working_region.x_min) ||
      !c.GetF64(&header->working_region.y_min) ||
      !c.GetF64(&header->working_region.x_max) ||
      !c.GetF64(&header->working_region.y_max) ||
      !c.GetU64(&header->approx_seed) || !c.GetF64(&header->epsilon) ||
      !c.GetI32(&header->min_sample) || !c.GetI32(&header->sample_hint)) {
    *error = "trace truncated: header fields incomplete";
    return false;
  }
  if (header->version < kTraceVersion || header->version > kTraceVersionMax) {
    *error = "version skew: trace version " + std::to_string(header->version) +
             ", reader supports versions " + std::to_string(kTraceVersion) +
             ".." + std::to_string(kTraceVersionMax);
    return false;
  }
  if (header_bytes != kTraceHeaderBytes) {
    *error = "corrupt header: header_bytes " + std::to_string(header_bytes) +
             " != " + std::to_string(kTraceHeaderBytes);
    return false;
  }
  // The smallest possible slot record is payload_bytes + magic + time +
  // slot_seed + six zero counts; a finalized slot_count claiming more
  // records than the file could physically hold is corruption, not a big
  // trace.
  constexpr uint64_t kMinRecordBytes = 4 + 4 + 4 + 8 + 6 * 4;
  if (header->slot_count != kSlotCountOpen &&
      static_cast<uint64_t>(header->slot_count) * kMinRecordBytes >
          file_size - kTraceHeaderBytes) {
    *error = "out-of-range slot count: header claims " +
             std::to_string(header->slot_count) + " slots, file can hold at "
             "most " +
             std::to_string((file_size - kTraceHeaderBytes) / kMinRecordBytes);
    return false;
  }
  return true;
}

void EncodeSlotRecord(const TraceSlotRecord& record, std::string* out,
                      uint32_t version) {
  PutU32(kSlotRecordMagic, out);
  PutI32(record.time, out);
  PutU64(record.slot_seed, out);
  PutU32(static_cast<uint32_t>(record.delta.arrivals.size()), out);
  for (const SensorDelta::Placement& a : record.delta.arrivals) {
    PutI32(a.sensor_id, out);
    PutF64(a.position.x, out);
    PutF64(a.position.y, out);
  }
  PutU32(static_cast<uint32_t>(record.delta.departures.size()), out);
  for (int id : record.delta.departures) PutI32(id, out);
  PutU32(static_cast<uint32_t>(record.delta.moves.size()), out);
  for (const SensorDelta::Placement& m : record.delta.moves) {
    PutI32(m.sensor_id, out);
    PutF64(m.position.x, out);
    PutF64(m.position.y, out);
  }
  PutU32(static_cast<uint32_t>(record.delta.price_changes.size()), out);
  for (const SensorDelta::PriceChange& pc : record.delta.price_changes) {
    PutI32(pc.sensor_id, out);
    PutF64(pc.base_price, out);
  }
  PutU32(static_cast<uint32_t>(record.point_queries.size()), out);
  for (const PointQuery& q : record.point_queries) {
    PutI32(q.id, out);
    PutF64(q.location.x, out);
    PutF64(q.location.y, out);
    PutF64(q.budget, out);
    PutF64(q.theta_min, out);
    PutI32(q.parent, out);
  }
  PutU32(static_cast<uint32_t>(record.aggregate_queries.size()), out);
  for (const AggregateQuery::Params& p : record.aggregate_queries) {
    PutI32(p.id, out);
    PutF64(p.region.x_min, out);
    PutF64(p.region.y_min, out);
    PutF64(p.region.x_max, out);
    PutF64(p.region.y_max, out);
    PutF64(p.budget, out);
    PutF64(p.sensing_range, out);
    PutF64(p.cell_size, out);
  }
  // Version >= 2: the adaptive engine-choice section. Version-gated so
  // every v1 record byte stays exactly what the golden fixture pins.
  if (version >= kTraceVersionAdaptive) {
    PutU32(static_cast<uint32_t>(record.engine_choices.size()), out);
    for (GreedyEngine e : record.engine_choices) {
      PutI32(static_cast<int32_t>(e), out);
    }
  }
}

bool DecodeSlotRecord(const char* data, size_t size, TraceSlotRecord* record,
                      std::string* error, uint32_t version) {
  Cursor c(data, size);
  uint32_t magic = 0;
  if (!c.GetU32(&magic) || magic != kSlotRecordMagic) {
    *error = "corrupt slot record: bad record magic";
    return false;
  }
  if (!c.GetI32(&record->time) || !c.GetU64(&record->slot_seed)) {
    *error = "trace truncated: slot record header incomplete";
    return false;
  }
  uint32_t n = 0;
  if (!c.GetCount(kPlacementBytes, &n)) {
    *error = "corrupt slot record: arrival count exceeds record payload";
    return false;
  }
  record->delta.arrivals.resize(n);
  for (SensorDelta::Placement& a : record->delta.arrivals) {
    c.GetI32(&a.sensor_id);
    c.GetF64(&a.position.x);
    c.GetF64(&a.position.y);
  }
  if (!c.GetCount(kDepartureBytes, &n)) {
    *error = "corrupt slot record: departure count exceeds record payload";
    return false;
  }
  record->delta.departures.resize(n);
  for (int& id : record->delta.departures) c.GetI32(&id);
  if (!c.GetCount(kPlacementBytes, &n)) {
    *error = "corrupt slot record: move count exceeds record payload";
    return false;
  }
  record->delta.moves.resize(n);
  for (SensorDelta::Placement& m : record->delta.moves) {
    c.GetI32(&m.sensor_id);
    c.GetF64(&m.position.x);
    c.GetF64(&m.position.y);
  }
  if (!c.GetCount(kPriceChangeBytes, &n)) {
    *error = "corrupt slot record: price-change count exceeds record payload";
    return false;
  }
  record->delta.price_changes.resize(n);
  for (SensorDelta::PriceChange& pc : record->delta.price_changes) {
    c.GetI32(&pc.sensor_id);
    c.GetF64(&pc.base_price);
  }
  if (!c.GetCount(kPointQueryBytes, &n)) {
    *error = "corrupt slot record: point-query count exceeds record payload";
    return false;
  }
  record->point_queries.resize(n);
  for (PointQuery& q : record->point_queries) {
    c.GetI32(&q.id);
    c.GetF64(&q.location.x);
    c.GetF64(&q.location.y);
    c.GetF64(&q.budget);
    c.GetF64(&q.theta_min);
    c.GetI32(&q.parent);
    if (!CheckPointQuery(q, error)) return false;
  }
  if (!c.GetCount(kAggregateBytes, &n)) {
    *error = "corrupt slot record: aggregate count exceeds record payload";
    return false;
  }
  record->aggregate_queries.resize(n);
  for (AggregateQuery::Params& p : record->aggregate_queries) {
    c.GetI32(&p.id);
    c.GetF64(&p.region.x_min);
    c.GetF64(&p.region.y_min);
    c.GetF64(&p.region.x_max);
    c.GetF64(&p.region.y_max);
    c.GetF64(&p.budget);
    c.GetF64(&p.sensing_range);
    c.GetF64(&p.cell_size);
    if (!CheckAggregateParams(p, error)) return false;
  }
  record->engine_choices.clear();
  if (version >= kTraceVersionAdaptive) {
    if (!c.GetCount(sizeof(int32_t), &n)) {
      *error = "corrupt slot record: engine-choice count exceeds record "
               "payload";
      return false;
    }
    record->engine_choices.resize(n);
    for (GreedyEngine& e : record->engine_choices) {
      int32_t raw = 0;
      c.GetI32(&raw);
      if (raw == kRemovedStochasticEngine) {
        *error = "engine choice 2 names the stochastic-greedy engine, which "
                 "was removed; this trace cannot be replayed";
        return false;
      }
      if (raw < static_cast<int32_t>(GreedyEngine::kLazy) ||
          raw > static_cast<int32_t>(GreedyEngine::kSieve)) {
        *error = "corrupt slot record: engine choice " + std::to_string(raw) +
                 " out of range";
        return false;
      }
      e = static_cast<GreedyEngine>(raw);
    }
  }
  if (!c.AtEnd()) {
    *error = "corrupt slot record: " + std::to_string(c.remaining()) +
             " trailing bytes after the last field";
    return false;
  }
  return true;
}

}  // namespace psens
