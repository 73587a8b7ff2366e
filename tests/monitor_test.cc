// Monitor hook contract: bucket math of the latency histogram, what each
// monitor folds from the one OnSlot hook (SlotOutcome::total_ms,
// turnover_ms, selection), MonitorSet dispatch and JSON, a zero-slot
// trace replayed under monitors, and the substrate's core passivity
// promise — a monitored replay schedules bit-identically to an
// unmonitored one, and the monitors see every served slot.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/workload.h"
#include "trace/closed_loop.h"
#include "trace/monitor.h"
#include "trace/trace_replayer.h"
#include "trace/trace_writer.h"

namespace psens {
namespace {

TEST(LatencyHistogramTest, BucketBoundaries) {
  using M = LatencyHistogramMonitor;
  // Bucket i spans [2^i, 2^(i+1)) microseconds; sub-microsecond samples
  // clamp into bucket 0, overflows into the last bucket.
  EXPECT_EQ(M::BucketIndex(0.0), 0);
  EXPECT_EQ(M::BucketIndex(0.0005), 0);   // 0.5 us
  EXPECT_EQ(M::BucketIndex(0.001), 0);    // exactly 1 us
  EXPECT_EQ(M::BucketIndex(0.0019), 0);   // 1.9 us
  EXPECT_EQ(M::BucketIndex(0.002), 1);    // exactly 2 us
  EXPECT_EQ(M::BucketIndex(0.003), 1);
  EXPECT_EQ(M::BucketIndex(0.004), 2);    // exactly 4 us
  EXPECT_EQ(M::BucketIndex(1.0), 9);      // 1000 us in [512, 1024)
  EXPECT_EQ(M::BucketIndex(1.024), 10);   // exactly 1024 us
  EXPECT_EQ(M::BucketIndex(1e12), M::kNumBuckets - 1);

  EXPECT_DOUBLE_EQ(M::BucketLowMs(0), 0.0);
  EXPECT_DOUBLE_EQ(M::BucketLowMs(1), 0.002);
  EXPECT_DOUBLE_EQ(M::BucketLowMs(10), 1.024);
  // Every sample lands in the bucket whose range contains it.
  for (int i = 1; i < M::kNumBuckets; ++i) {
    EXPECT_EQ(M::BucketIndex(M::BucketLowMs(i)), i);
  }
}

SlotOutcome Outcome(int time, double turnover_ms, double total_ms) {
  SlotOutcome out;
  out.time = time;
  out.turnover_ms = turnover_ms;
  out.total_ms = total_ms;
  return out;
}

TEST(LatencyHistogramTest, Accumulate) {
  LatencyHistogramMonitor a;
  a.OnSlot(Outcome(0, 0.1, 0.5));
  a.OnSlot(Outcome(1, 0.1, 1.5));
  a.OnSlot(Outcome(2, 0.1, 0.003));
  EXPECT_EQ(a.count(), 3);
  EXPECT_DOUBLE_EQ(a.total_ms(), 2.003);
  EXPECT_DOUBLE_EQ(a.min_ms(), 0.003);
  EXPECT_DOUBLE_EQ(a.max_ms(), 1.5);
  EXPECT_EQ(a.bucket_count(LatencyHistogramMonitor::BucketIndex(1.5)), 1);

  std::string json;
  a.AppendJson(&json);
  EXPECT_NE(json.find("\"count\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\": ["), std::string::npos) << json;
}

TEST(MonitorTest, IndexRepairStats) {
  IndexRepairMonitor m;
  m.OnSlot(Outcome(1, 2.0, 9.0));
  m.OnSlot(Outcome(2, 4.0, 9.0));
  m.OnSlot(Outcome(3, 0.5, 9.0));
  EXPECT_EQ(m.count(), 3);
  EXPECT_DOUBLE_EQ(m.min_ms(), 0.5);
  EXPECT_DOUBLE_EQ(m.max_ms(), 4.0);
  EXPECT_DOUBLE_EQ(m.mean_ms(), 6.5 / 3.0);
}

TEST(MonitorTest, ValuationCountersCountEverySlot) {
  // A query-free slot (the cold build) selects nothing and still counts
  // one selection, as every served slot does.
  ValuationCounterMonitor m;
  MonitorSet set;
  set.Attach(&m);
  SlotOutcome busy = Outcome(1, 1.0, 2.0);
  busy.selection.valuation_calls = 100;
  busy.selection.selected_sensors = {1, 2, 3};
  set.NotifySlot(Outcome(0, 5.0, 5.0));
  set.NotifySlot(busy);
  busy.selection.valuation_calls = 40;
  set.NotifySlot(busy);
  EXPECT_EQ(m.total_calls(), 140);
  EXPECT_EQ(m.max_slot_calls(), 100);
  EXPECT_EQ(m.selections(), 3);
  EXPECT_EQ(m.selected_sensors(), 6);
  EXPECT_EQ(m.slots(), 3);
}

TEST(MonitorSetTest, JsonIsKeyedByMonitorName) {
  LatencyHistogramMonitor latency;
  ValuationCounterMonitor calls;
  IndexRepairMonitor repair;
  MonitorSet set;
  set.Attach(&latency);
  set.Attach(&calls);
  set.Attach(&repair);
  set.NotifySlot(Outcome(0, 1.0, 3.0));
  std::string json;
  set.AppendJson(&json);
  EXPECT_NE(json.find("\"latency_histogram\": {"), std::string::npos) << json;
  EXPECT_NE(json.find("\"valuation_counters\": {"), std::string::npos) << json;
  EXPECT_NE(json.find("\"index_repair\": {"), std::string::npos) << json;
}

TEST(MonitorReplayTest, ZeroSlotTraceUnderMonitors) {
  const std::string path = testing::TempDir() + "/zero_slot.trace";
  const int n = 16;
  SensorPopulationConfig profile;
  profile.count = n;
  Rng rng(7);
  const std::vector<Sensor> sensors = GenerateSensors(profile, rng);
  {
    TraceHeader header;
    header.registry_count = n;
    header.registry_checksum = RegistryChecksum(sensors);
    header.working_region = Rect{0, 0, 10, 10};
    auto writer = TraceWriter::Open(path, header);
    ASSERT_NE(writer, nullptr);
    ASSERT_TRUE(writer->Finish());
    EXPECT_EQ(writer->slots_written(), 0);
  }
  LatencyHistogramMonitor latency;
  MonitorSet set;
  set.Attach(&latency);
  const ReplayResult result =
      TraceReplayer(ServingConfig{}).Replay(path, sensors, &set);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.outcomes.empty());
  EXPECT_EQ(latency.count(), 0);
  std::string json;
  latency.AppendJson(&json);
  EXPECT_NE(json.find("\"count\": 0"), std::string::npos) << json;
  std::remove(path.c_str());
}

TEST(MonitorReplayTest, MonitoredReplayEqualsUnmonitoredReplay) {
  const ChurnScenarioSetup setup =
      MakeChurnScenario(300, 0.05, 42, /*with_mobility=*/true);
  const std::string path = testing::TempDir() + "/monitored.trace";
  ClosedLoopConfig config;
  config.slots = 8;
  config.queries.queries_per_slot = 16;
  config.queries.aggregates_per_slot = 2;
  config.serving.trace_path = path;
  config.serving.approx.seed = 42;
  RunChurnClosedLoop(setup, config);

  const ReplayResult bare =
      TraceReplayer(ServingConfig{}).Replay(path, setup.scenario.sensors);
  ASSERT_TRUE(bare.ok) << bare.error;

  LatencyHistogramMonitor latency;
  ValuationCounterMonitor calls;
  IndexRepairMonitor repair;
  MonitorSet set;
  set.Attach(&latency);
  set.Attach(&calls);
  set.Attach(&repair);
  const ReplayResult monitored =
      TraceReplayer(ServingConfig{}).Replay(path, setup.scenario.sensors, &set);
  ASSERT_TRUE(monitored.ok) << monitored.error;

  ASSERT_EQ(bare.outcomes.size(), monitored.outcomes.size());
  for (size_t i = 0; i < bare.outcomes.size(); ++i) {
    EXPECT_TRUE(SameOutcome(bare.outcomes[i], monitored.outcomes[i]))
        << "attaching monitors changed slot " << bare.outcomes[i].time;
  }
  // The monitors saw every served slot and the real work totals.
  const int64_t slots = static_cast<int64_t>(monitored.outcomes.size());
  EXPECT_EQ(latency.count(), slots);
  EXPECT_EQ(repair.count(), slots);
  EXPECT_EQ(calls.slots(), slots);
  EXPECT_EQ(calls.selections(), slots);
  int64_t total_calls = 0;
  double total_ms = 0.0;
  double turnover_ms = 0.0;
  for (const SlotOutcome& o : monitored.outcomes) {
    total_calls += o.selection.valuation_calls;
    total_ms += o.total_ms;
    turnover_ms += o.turnover_ms;
  }
  EXPECT_EQ(calls.total_calls(), total_calls);
  EXPECT_DOUBLE_EQ(latency.total_ms(), total_ms);
  EXPECT_DOUBLE_EQ(repair.total_ms(), turnover_ms);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace psens
