// Trace-format pinning and decoder hardening. The golden trace under
// tests/data/ is a committed byte-for-byte fixture: encoding is defined
// little-endian with fixed-width fields, so the writer must reproduce it
// on every platform, and any format change must bump kTraceVersion and
// regenerate the fixture deliberately (see MakeGoldenData). The
// corruption tests feed the decoder truncated, magic-less, version-
// skewed, and count-overflowing inputs; every one must come back as a
// clean error — no crash, no out-of-bounds read (the CI sanitizer jobs
// run this file under ASan/UBSan).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "trace/trace_format.h"
#include "trace/trace_reader.h"
#include "trace/trace_writer.h"

namespace psens {
namespace {

std::string GoldenPath() {
  return std::string(PSENS_TEST_DATA_DIR) + "/golden_v1.trace";
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buffer[4096];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    out->append(buffer, got);
  }
  std::fclose(f);
  return true;
}

bool WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  return ok;
}

/// The fixture's content — every field type and every record section
/// exercised, all values fixed literals so the encoding is identical on
/// any host. Regenerate the committed file by flipping
/// kRegenerateGolden below and running this test once from the repo.
TraceData MakeGoldenData() {
  TraceData data;
  data.header.registry_count = 64;
  data.header.registry_checksum = 0x0123456789ABCDEFull;
  data.header.dmax = 5.0;
  data.header.working_region = Rect{0.0, 0.0, 40.0, 40.0};
  data.header.approx_seed = 0x5EEDC0DE5EEDC0DEull;
  data.header.epsilon = 0.1;
  data.header.min_sample = 32;
  data.header.sample_hint = 0;

  TraceSlotRecord s0;
  s0.time = 0;
  s0.slot_seed = 0x1111111111111111ull;
  data.slots.push_back(s0);  // empty cold-build slot

  TraceSlotRecord s1;
  s1.time = 1;
  s1.slot_seed = 0x2222222222222222ull;
  s1.delta.arrivals.push_back(SensorDelta::Placement{3, Point{1.5, 2.5}});
  s1.delta.arrivals.push_back(SensorDelta::Placement{9, Point{10.0, 0.25}});
  s1.delta.departures.push_back(12);
  s1.delta.moves.push_back(SensorDelta::Placement{5, Point{7.75, 31.5}});
  s1.delta.price_changes.push_back(SensorDelta::PriceChange{8, 11.5});
  PointQuery q;
  q.id = 1001;
  q.location = Point{20.0, 21.0};
  q.budget = 15.0;
  q.theta_min = 0.2;
  q.parent = -1;
  s1.point_queries.push_back(q);
  q.id = 1002;
  q.location = Point{3.5, 38.0};
  q.parent = 77;
  s1.point_queries.push_back(q);
  AggregateQuery::Params a;
  a.id = 2001;
  a.region = Rect{5.0, 5.0, 30.0, 35.0};
  a.budget = 100.0;
  a.sensing_range = 10.0;
  a.cell_size = 5.0;
  s1.aggregate_queries.push_back(a);
  data.slots.push_back(s1);

  TraceSlotRecord s2;
  s2.time = 2;
  s2.slot_seed = 0x3333333333333333ull;
  s2.delta.departures.push_back(3);
  data.slots.push_back(s2);
  return data;
}

constexpr bool kRegenerateGolden = false;

void ExpectSameData(const TraceData& a, const TraceData& b) {
  EXPECT_EQ(a.header.registry_count, b.header.registry_count);
  EXPECT_EQ(a.header.registry_checksum, b.header.registry_checksum);
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (size_t i = 0; i < a.slots.size(); ++i) {
    const TraceSlotRecord& x = a.slots[i];
    const TraceSlotRecord& y = b.slots[i];
    EXPECT_EQ(x.time, y.time);
    EXPECT_EQ(x.slot_seed, y.slot_seed);
    EXPECT_EQ(x.delta.arrivals.size(), y.delta.arrivals.size());
    EXPECT_EQ(x.delta.departures, y.delta.departures);
    EXPECT_EQ(x.point_queries.size(), y.point_queries.size());
    EXPECT_EQ(x.aggregate_queries.size(), y.aggregate_queries.size());
  }
}

TEST(TraceFormatTest, WriterReproducesCommittedGoldenBytes) {
  if (kRegenerateGolden) {
    ASSERT_TRUE(WriteTraceFile(GoldenPath(), MakeGoldenData()));
  }
  const std::string tmp = TempPath("golden_rewrite.trace");
  ASSERT_TRUE(WriteTraceFile(tmp, MakeGoldenData()));
  std::string golden_bytes;
  std::string written_bytes;
  ASSERT_TRUE(ReadFileBytes(GoldenPath(), &golden_bytes))
      << "missing fixture " << GoldenPath();
  ASSERT_TRUE(ReadFileBytes(tmp, &written_bytes));
  EXPECT_EQ(golden_bytes.size(), written_bytes.size());
  EXPECT_TRUE(golden_bytes == written_bytes)
      << "the encoder no longer reproduces the committed v1 fixture — a "
         "format change must bump kTraceVersion and regenerate the golden "
         "trace deliberately";
  std::remove(tmp.c_str());
}

TEST(TraceFormatTest, GoldenReadRewriteRoundTripIsByteIdentical) {
  TraceData decoded;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(GoldenPath(), &decoded, &error)) << error;
  ExpectSameData(MakeGoldenData(), decoded);

  const std::string tmp = TempPath("golden_roundtrip.trace");
  ASSERT_TRUE(WriteTraceFile(tmp, decoded));
  std::string golden_bytes;
  std::string rewritten_bytes;
  ASSERT_TRUE(ReadFileBytes(GoldenPath(), &golden_bytes));
  ASSERT_TRUE(ReadFileBytes(tmp, &rewritten_bytes));
  EXPECT_TRUE(golden_bytes == rewritten_bytes);
  std::remove(tmp.c_str());
}

TEST(TraceFormatTest, LiveWriterMatchesBatchWriter) {
  // TraceWriter (streaming, Finish-patched slot count) and WriteTraceFile
  // (batch) must agree byte for byte on the same content.
  const TraceData data = MakeGoldenData();
  const std::string tmp = TempPath("golden_live.trace");
  {
    auto writer = TraceWriter::Open(tmp, data.header);
    ASSERT_NE(writer, nullptr);
    for (const TraceSlotRecord& slot : data.slots) {
      writer->StageDelta(slot.delta);
      writer->BeginSlot(slot.time, slot.slot_seed);
      writer->StagePointQueries(slot.point_queries);
      writer->StageAggregateQueries(slot.aggregate_queries);
    }
    ASSERT_TRUE(writer->Finish());
    EXPECT_EQ(writer->slots_written(), static_cast<int>(data.slots.size()));
  }
  std::string golden_bytes;
  std::string live_bytes;
  ASSERT_TRUE(ReadFileBytes(GoldenPath(), &golden_bytes));
  ASSERT_TRUE(ReadFileBytes(tmp, &live_bytes));
  EXPECT_TRUE(golden_bytes == live_bytes);
  std::remove(tmp.c_str());
}

// ---------------------------------------------------------------------------
// Decoder hardening
// ---------------------------------------------------------------------------

class TraceCorruptionTest : public testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(ReadFileBytes(GoldenPath(), &bytes_));
    ASSERT_GT(bytes_.size(), kTraceHeaderBytes);
  }

  /// Writes `bytes` to a temp file and expects Load to fail cleanly with
  /// a message containing `expect_substr`.
  void ExpectLoadError(const std::string& bytes,
                       const std::string& expect_substr) {
    const std::string tmp = TempPath("corrupt.trace");
    ASSERT_TRUE(WriteFileBytes(tmp, bytes));
    TraceFile trace;
    std::string error;
    EXPECT_FALSE(trace.Load(tmp, &error));
    EXPECT_FALSE(error.empty());
    if (!expect_substr.empty()) {
      EXPECT_NE(error.find(expect_substr), std::string::npos)
          << "error was: " << error;
    }
    std::remove(tmp.c_str());
  }

  void PatchU32(std::string* bytes, size_t offset, uint32_t value) {
    std::string enc;
    AppendU32LE(value, &enc);
    std::memcpy(bytes->data() + offset, enc.data(), sizeof(uint32_t));
  }

  std::string bytes_;
};

TEST_F(TraceCorruptionTest, TruncatedAtEveryHeaderLength) {
  for (size_t len = 0; len < kTraceHeaderBytes; len += 7) {
    ExpectLoadError(bytes_.substr(0, len), "");
  }
}

TEST_F(TraceCorruptionTest, TruncatedInsideRecordStream) {
  // Cut mid-length-prefix: the header's slot-count bound check already
  // rejects it (3 claimed slots cannot fit in 2 bytes).
  ExpectLoadError(bytes_.substr(0, kTraceHeaderBytes + 2), "slot count");
  // Cut mid-record: reported as truncation, never read past the end.
  ExpectLoadError(bytes_.substr(0, bytes_.size() - 5), "truncated");
}

TEST_F(TraceCorruptionTest, BadMagicRejected) {
  std::string bad = bytes_;
  bad[0] = 'X';
  ExpectLoadError(bad, "magic");
}

TEST_F(TraceCorruptionTest, VersionSkewRejectedWithClearMessage) {
  std::string bad = bytes_;
  PatchU32(&bad, 8, kTraceVersionMax + 1);
  ExpectLoadError(bad, "version");
}

TEST_F(TraceCorruptionTest, OutOfRangeSlotCountRejected) {
  // A finalized header claiming more slots than any record stream of
  // this file size could hold.
  std::string bad = bytes_;
  PatchU32(&bad, 20, 0x10000000u);
  ExpectLoadError(bad, "slot");
}

TEST_F(TraceCorruptionTest, SlotCountRecordMismatchRejected) {
  std::string bad = bytes_;
  PatchU32(&bad, 20, 2);  // file holds 3 records
  ExpectLoadError(bad, "");
}

TEST_F(TraceCorruptionTest, BadSlotMagicRejected) {
  std::string bad = bytes_;
  PatchU32(&bad, kTraceHeaderBytes + 4, 0x41414141u);
  const std::string tmp = TempPath("corrupt_slotmagic.trace");
  ASSERT_TRUE(WriteFileBytes(tmp, bad));
  TraceFile trace;
  std::string error;
  // The frame chain is intact, so Load succeeds; decoding the record
  // reports the bad magic.
  ASSERT_TRUE(trace.Load(tmp, &error)) << error;
  TraceSlotRecord record;
  EXPECT_FALSE(trace.DecodeSlot(0, &record, &error));
  EXPECT_NE(error.find("slot 0"), std::string::npos) << error;
  std::remove(tmp.c_str());
}

TEST_F(TraceCorruptionTest, CountOverflowInsideRecordRejected) {
  // Patch the first record's arrival count to a value whose byte size
  // overflows 32 bits — the decoder's 64-bit bound check must catch it
  // without allocating or reading out of bounds.
  std::string bad = bytes_;
  PatchU32(&bad, kTraceHeaderBytes + 4 + 4 + 4 + 8, 0xFFFFFFFFu);
  const std::string tmp = TempPath("corrupt_count.trace");
  ASSERT_TRUE(WriteFileBytes(tmp, bad));
  TraceFile trace;
  std::string error;
  ASSERT_TRUE(trace.Load(tmp, &error)) << error;
  TraceSlotRecord record;
  EXPECT_FALSE(trace.DecodeSlot(0, &record, &error));
  EXPECT_FALSE(error.empty());
  std::remove(tmp.c_str());
}

TEST_F(TraceCorruptionTest, UnfinalizedTraceIsAcceptedWithCountedRecords) {
  // A writer that crashed before Finish leaves slot_count = kSlotCountOpen;
  // the reader must accept the trace and count the records itself.
  std::string unfinalized = bytes_;
  PatchU32(&unfinalized, 20, kSlotCountOpen);
  const std::string tmp = TempPath("unfinalized.trace");
  ASSERT_TRUE(WriteFileBytes(tmp, unfinalized));
  TraceFile trace;
  std::string error;
  ASSERT_TRUE(trace.Load(tmp, &error)) << error;
  EXPECT_EQ(trace.num_slots(), 3);
  std::remove(tmp.c_str());
}

TEST_F(TraceCorruptionTest, HeaderOnlyTraceHasZeroSlots) {
  std::string header_only = bytes_.substr(0, kTraceHeaderBytes);
  PatchU32(&header_only, 20, 0);
  const std::string tmp = TempPath("empty.trace");
  ASSERT_TRUE(WriteFileBytes(tmp, header_only));
  TraceFile trace;
  std::string error;
  ASSERT_TRUE(trace.Load(tmp, &error)) << error;
  EXPECT_EQ(trace.num_slots(), 0);
  TraceData data;
  ASSERT_TRUE(ReadTraceFile(tmp, &data, &error)) << error;
  EXPECT_TRUE(data.slots.empty());
  std::remove(tmp.c_str());
}

/// Overwrites the first `kind` entry of `record`'s delta with sensor `id`.
void CorruptDeltaId(TraceSlotRecord* record, const std::string& kind,
                    int32_t id) {
  SensorDelta& d = record->delta;
  if (kind == "arrival") d.arrivals[0].sensor_id = id;
  if (kind == "departure") d.departures[0] = id;
  if (kind == "move") d.moves[0].sensor_id = id;
  if (kind == "price-change") d.price_changes[0].sensor_id = id;
}

// Delta sensor ids index the replaying engine's registry, so a record
// whose framing is intact but whose ids fall outside [0, registry_count)
// must fail at decode with a clean error, never reach the engine.
TEST(TraceFormatStandaloneTest, OutOfRangeDeltaSensorIdsRejected) {
  const int32_t registry = 64;  // MakeGoldenData's registry_count
  const std::string tmp = TempPath("corrupt_ids.trace");
  for (const char* kind : {"arrival", "departure", "move", "price-change"}) {
    for (int32_t bad_id : {-1, registry}) {
      SCOPED_TRACE(testing::Message() << kind << " id " << bad_id);
      TraceData data = MakeGoldenData();
      CorruptDeltaId(&data.slots[1], kind, bad_id);
      ASSERT_TRUE(WriteTraceFile(tmp, data));
      TraceFile trace;
      std::string error;
      ASSERT_TRUE(trace.Load(tmp, &error)) << error;
      TraceSlotRecord record;
      EXPECT_TRUE(trace.DecodeSlot(0, &record, &error)) << error;
      EXPECT_FALSE(trace.DecodeSlot(1, &record, &error));
      EXPECT_NE(error.find("slot 1"), std::string::npos) << error;
      EXPECT_NE(error.find(std::string(kind) + " sensor id " +
                           std::to_string(bad_id)),
                std::string::npos)
          << error;
      TraceData decoded;
      EXPECT_FALSE(ReadTraceFile(tmp, &decoded, &error));
    }
  }
  std::remove(tmp.c_str());
}

/// The aggregate param a MalformedAggregateParamsRejected case overwrites.
double* AggregateField(AggregateQuery::Params* p, const std::string& field) {
  if (field == "region.x_min") return &p->region.x_min;
  if (field == "region.y_min") return &p->region.y_min;
  if (field == "region.x_max") return &p->region.x_max;
  if (field == "region.y_max") return &p->region.y_max;
  if (field == "budget") return &p->budget;
  if (field == "sensing_range") return &p->sensing_range;
  if (field == "cell_size") return &p->cell_size;
  return nullptr;
}

// Replay binds decoded aggregate params straight into AggregateQuery,
// whose grid arithmetic converts region / cell to int: a record whose
// framing is intact but whose params cannot be bound must fail at decode,
// naming the slot and the field.
TEST(TraceFormatStandaloneTest, MalformedAggregateParamsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // The golden aggregate has region {5, 5, 30, 35}, cell 5, range 10.
  const struct {
    const char* field;
    double value;
  } cases[] = {
      {"region.x_min", nan},   {"region.y_min", -inf},
      {"region.x_max", inf},   {"region.y_max", nan},
      {"budget", inf},         {"sensing_range", nan},
      {"cell_size", inf},      {"cell_size", 0.0},
      {"cell_size", -5.0},     {"sensing_range", -1.0},
      {"region.x_min", 31.0},  // inverted: x_max is 30
      {"region.y_min", 36.0},  // inverted: y_max is 35
      {"cell_size", 1e-3},     // 25000 x 30000 cells, above the cap
  };
  const std::string tmp = TempPath("corrupt_aggregate.trace");
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << c.field << " = " << c.value);
    TraceData data = MakeGoldenData();
    double* field =
        AggregateField(&data.slots[1].aggregate_queries[0], c.field);
    ASSERT_NE(field, nullptr);
    *field = c.value;
    ASSERT_TRUE(WriteTraceFile(tmp, data));
    TraceFile trace;
    std::string error;
    ASSERT_TRUE(trace.Load(tmp, &error)) << error;
    TraceSlotRecord record;
    EXPECT_TRUE(trace.DecodeSlot(0, &record, &error)) << error;
    EXPECT_FALSE(trace.DecodeSlot(1, &record, &error));
    EXPECT_NE(error.find("slot 1"), std::string::npos) << error;
    EXPECT_NE(error.find("aggregate query 2001 " + std::string(c.field) + " "),
              std::string::npos)
        << error;
    TraceData decoded;
    EXPECT_FALSE(ReadTraceFile(tmp, &decoded, &error));
  }
  std::remove(tmp.c_str());
}

// Replay feeds decoded delta and point-query values straight into the
// engine: a non-finite coordinate, budget, threshold or price, or a
// negative price, must fail at decode, naming the slot, entry and field.
TEST(TraceFormatStandaloneTest, MalformedSlotValuesRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Slot 1 of the golden data has arrivals of sensors 3 and 9, a move of
  // sensor 5, a price change of sensor 8, and point queries 1001 and 1002.
  const struct {
    const char* expect;
    double value;
    double* (*field)(TraceSlotRecord*);
  } cases[] = {
      {"arrival 0 (sensor 3) position.x nan is not finite", nan,
       [](TraceSlotRecord* r) { return &r->delta.arrivals[0].position.x; }},
      {"arrival 1 (sensor 9) position.y inf is not finite", inf,
       [](TraceSlotRecord* r) { return &r->delta.arrivals[1].position.y; }},
      {"move 0 (sensor 5) position.x -inf is not finite", -inf,
       [](TraceSlotRecord* r) { return &r->delta.moves[0].position.x; }},
      {"move 0 (sensor 5) position.y nan is not finite", nan,
       [](TraceSlotRecord* r) { return &r->delta.moves[0].position.y; }},
      {"price change 0 (sensor 8) base_price nan is not finite", nan,
       [](TraceSlotRecord* r) {
         return &r->delta.price_changes[0].base_price;
       }},
      {"price change 0 (sensor 8) base_price inf is not finite", inf,
       [](TraceSlotRecord* r) {
         return &r->delta.price_changes[0].base_price;
       }},
      {"price change 0 (sensor 8) base_price -0.5 is negative", -0.5,
       [](TraceSlotRecord* r) {
         return &r->delta.price_changes[0].base_price;
       }},
      {"point query 1001 location.x nan is not finite", nan,
       [](TraceSlotRecord* r) { return &r->point_queries[0].location.x; }},
      {"point query 1002 location.y -inf is not finite", -inf,
       [](TraceSlotRecord* r) { return &r->point_queries[1].location.y; }},
      {"point query 1001 budget inf is not finite", inf,
       [](TraceSlotRecord* r) { return &r->point_queries[0].budget; }},
      {"point query 1002 theta_min nan is not finite", nan,
       [](TraceSlotRecord* r) { return &r->point_queries[1].theta_min; }},
  };
  const std::string tmp = TempPath("corrupt_slot_values.trace");
  for (const auto& c : cases) {
    SCOPED_TRACE(c.expect);
    TraceData data = MakeGoldenData();
    *c.field(&data.slots[1]) = c.value;
    ASSERT_TRUE(WriteTraceFile(tmp, data));
    TraceFile trace;
    std::string error;
    ASSERT_TRUE(trace.Load(tmp, &error)) << error;
    TraceSlotRecord record;
    EXPECT_TRUE(trace.DecodeSlot(0, &record, &error)) << error;
    EXPECT_FALSE(trace.DecodeSlot(1, &record, &error));
    EXPECT_NE(error.find("slot 1"), std::string::npos) << error;
    EXPECT_NE(error.find(c.expect), std::string::npos) << error;
    TraceData decoded;
    EXPECT_FALSE(ReadTraceFile(tmp, &decoded, &error));
  }
  // A zero price is a valid announcement, not a malformed one.
  TraceData data = MakeGoldenData();
  data.slots[1].delta.price_changes[0].base_price = 0.0;
  ASSERT_TRUE(WriteTraceFile(tmp, data));
  TraceData decoded;
  std::string error;
  EXPECT_TRUE(ReadTraceFile(tmp, &decoded, &error)) << error;
  std::remove(tmp.c_str());
}

TEST(TraceFormatStandaloneTest, MissingFileIsACleanError) {
  TraceFile trace;
  std::string error;
  EXPECT_FALSE(trace.Load(TempPath("does_not_exist.trace"), &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

}  // namespace
}  // namespace psens
