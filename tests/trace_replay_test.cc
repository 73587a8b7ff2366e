// Replay-based differential suite (the record/replay harness's reason to
// exist): a live closed-loop churn run records itself, the replayer
// re-drives the trace through a fresh engine, and every schedule,
// payment, and valuation-call count must match bit for bit — for both
// serving engines, and for a sieve trace rewritten with a different
// header base seed (the per-slot seeds persisted in the records carry
// reproduction; perturbing them must show). Also: a header the serving
// config refuses, and a version-2 trace of the removed adaptive SLO
// scheduler, fail with an error instead of aborting or diverging; a delta
// the live engine refuses selects as its replay does; the replay rate
// leaves out the cold-build record.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/serving_engine.h"
#include "sim/workload.h"
#include "trace/closed_loop.h"
#include "trace/trace_reader.h"
#include "trace/trace_replayer.h"
#include "trace/trace_writer.h"

namespace psens {
namespace {

constexpr int kSensors = 400;
constexpr int kSlots = 20;
constexpr uint64_t kSeed = 20260807;

ChurnScenarioSetup MakeSetup() {
  // Energy + privacy feedback on, so RecordSlotReadings actually changes
  // later slots' announcements and the replayed feedback path is load-
  // bearing, not a no-op.
  SensorPopulationConfig profile;
  profile.linear_energy = true;
  profile.random_privacy = true;
  return MakeChurnScenario(kSensors, /*churn_fraction=*/0.05, kSeed,
                           /*with_mobility=*/true, profile);
}

ClosedLoopConfig MakeLoopConfig(GreedyEngine engine,
                                const std::string& trace_path) {
  ClosedLoopConfig config;
  config.slots = kSlots;
  config.serving.scheduler = engine;
  config.queries.queries_per_slot = 24;
  config.queries.aggregates_per_slot = 4;
  config.serving.trace_path = trace_path;
  config.serving.approx.seed = kSeed;
  return config;
}

std::string TracePath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void ExpectSameOutcomes(const std::vector<SlotOutcome>& live,
                        const std::vector<SlotOutcome>& replayed) {
  ASSERT_EQ(live.size(), replayed.size());
  for (size_t i = 0; i < live.size(); ++i) {
    EXPECT_TRUE(SameOutcome(live[i], replayed[i]))
        << "slot " << live[i].time << " diverged: live selected "
        << live[i].selection.selected_sensors.size() << " sensors (value "
        << live[i].selection.total_value << ", payment "
        << live[i].total_payment << ", "
        << live[i].selection.valuation_calls << " calls), replay selected "
        << replayed[i].selection.selected_sensors.size() << " (value "
        << replayed[i].selection.total_value << ", payment "
        << replayed[i].total_payment << ", "
        << replayed[i].selection.valuation_calls << " calls)";
  }
}

struct EngineCase {
  const char* name;
  GreedyEngine engine;
};

class TraceReplayEngineTest : public testing::TestWithParam<EngineCase> {};

TEST_P(TraceReplayEngineTest, ReplayReproducesLiveRunBitForBit) {
  const EngineCase& c = GetParam();
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string path = TracePath(std::string("replay_") + c.name + ".trc");
  const ClosedLoopResult live =
      RunChurnClosedLoop(setup, MakeLoopConfig(c.engine, path));
  ASSERT_EQ(static_cast<int>(live.outcomes.size()), kSlots + 1);

  const ReplayResult replayed =
      TraceReplayer(ServingConfig().WithScheduler(c.engine))
          .Replay(path, setup.scenario.sensors);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  ExpectSameOutcomes(live.outcomes, replayed.outcomes);
  // The run did real work; a trivially empty schedule would vacuously
  // pass the bit-equality above.
  EXPECT_GT(live.total_payment, 0.0);
  EXPECT_GT(live.valuation_calls, 0);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, TraceReplayEngineTest,
    testing::Values(EngineCase{"lazy", GreedyEngine::kLazy},
                    EngineCase{"sieve", GreedyEngine::kSieve}),
    [](const testing::TestParamInfo<EngineCase>& info) {
      return info.param.name;
    });

// The ApproxSlotSeed persistence regression: every slot record carries
// the seed the recording engine stamped, and the replayer pins it, so a
// sieve replay reproduces the live selections even when the trace
// header's base seed is different — the sieve's refinement pass draws
// its exploration sample from the slot seed. Perturbing the recorded
// slot seeds must actually show, otherwise this test would pass
// vacuously. The sample is kRefineSampleSize (1536) sensors of the
// candidate scan, so the population here is large enough for the draw to
// leave sensors out; on a smaller scan the sample is the whole scan and
// the seed cannot matter.
TEST(TraceReplayTest, SieveReplayReproducesAcrossBaseSeeds) {
  const ChurnScenarioSetup setup = MakeChurnScenario(
      4000, /*churn_fraction=*/0.02, kSeed, /*with_mobility=*/true);
  const std::string path = TracePath("replay_seed.trc");
  ClosedLoopConfig config = MakeLoopConfig(GreedyEngine::kSieve, path);
  config.slots = 6;
  config.queries.aggregates_per_slot = 8;
  const ClosedLoopResult live = RunChurnClosedLoop(setup, config);
  TraceData data;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(path, &data, &error)) << error;
  std::remove(path.c_str());
  const TraceReplayer replayer(
      ServingConfig().WithScheduler(GreedyEngine::kSieve));

  data.header.approx_seed ^= 0xDEADBEEF;
  const std::string reseeded_path = TracePath("replay_seed_header.trc");
  ASSERT_TRUE(WriteTraceFile(reseeded_path, data));
  const ReplayResult reseeded =
      replayer.Replay(reseeded_path, setup.scenario.sensors);
  ASSERT_TRUE(reseeded.ok) << reseeded.error;
  ExpectSameOutcomes(live.outcomes, reseeded.outcomes);
  std::remove(reseeded_path.c_str());

  for (TraceSlotRecord& slot : data.slots) {
    slot.slot_seed ^= 0x9E3779B97F4A7C15ULL;
  }
  const std::string perturbed_path = TracePath("replay_seed_slots.trc");
  ASSERT_TRUE(WriteTraceFile(perturbed_path, data));
  const ReplayResult perturbed =
      replayer.Replay(perturbed_path, setup.scenario.sensors);
  ASSERT_TRUE(perturbed.ok) << perturbed.error;
  ASSERT_EQ(perturbed.outcomes.size(), live.outcomes.size());
  bool any_diverged = false;
  for (size_t i = 0; i < live.outcomes.size(); ++i) {
    if (!SameOutcome(live.outcomes[i], perturbed.outcomes[i])) {
      any_diverged = true;
      break;
    }
  }
  EXPECT_TRUE(any_diverged)
      << "replay with every recorded slot seed perturbed reproduced the "
         "live run anyway — the seed-persistence test has lost its teeth";
  std::remove(perturbed_path.c_str());
}

TEST(TraceReplayTest, MismatchedRegistryIsRefused) {
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string path = TracePath("replay_registry.trc");
  RunChurnClosedLoop(setup, MakeLoopConfig(GreedyEngine::kLazy, path));

  std::vector<Sensor> tampered = setup.scenario.sensors;
  tampered[7].SetBasePrice(tampered[7].profile().base_price + 1.0);
  const ReplayResult result =
      TraceReplayer(ServingConfig{}).Replay(path, tampered);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("registry mismatch"), std::string::npos)
      << result.error;

  std::vector<Sensor> short_registry = setup.scenario.sensors;
  short_registry.pop_back();
  const ReplayResult short_result =
      TraceReplayer(ServingConfig{}).Replay(path, short_registry);
  EXPECT_FALSE(short_result.ok);
  std::remove(path.c_str());
}

// Version-2 traces recorded the engine choices of the adaptive SLO
// scheduler, since removed. Load refuses one and names that scheduler;
// replaying it without the choices would silently diverge.
TEST(TraceReplayTest, AdaptiveSloTraceIsRefusedAtLoad) {
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string live_path = TracePath("replay_v2_live.trc");
  ClosedLoopConfig config = MakeLoopConfig(GreedyEngine::kLazy, live_path);
  config.slots = 2;
  RunChurnClosedLoop(setup, config);
  TraceData data;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(live_path, &data, &error)) << error;
  std::remove(live_path.c_str());

  data.header.version = 2;
  const std::string path = TracePath("replay_v2.trc");
  ASSERT_TRUE(WriteTraceFile(path, data));
  TraceFile trace;
  EXPECT_FALSE(trace.Load(path, &error));
  EXPECT_NE(error.find("adaptive SLO scheduler"), std::string::npos)
      << error;
  const ReplayResult replayed =
      TraceReplayer(ServingConfig{}).Replay(path, setup.scenario.sensors);
  EXPECT_FALSE(replayed.ok);
  EXPECT_NE(replayed.error.find("adaptive SLO scheduler"), std::string::npos)
      << replayed.error;
  std::remove(path.c_str());
}

// TraceFile::Load checks the header's layout, not its values. A header
// whose dmax, epsilon or working region the serving config refuses must
// come back as a replay error naming the field — building the engine
// from it would abort the process.
TEST(TraceReplayTest, InvalidHeaderValuesReturnAnError) {
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string live_path = TracePath("replay_header_live.trc");
  ClosedLoopConfig config = MakeLoopConfig(GreedyEngine::kLazy, live_path);
  config.slots = 2;
  RunChurnClosedLoop(setup, config);
  TraceData data;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(live_path, &data, &error)) << error;
  std::remove(live_path.c_str());

  struct BadHeader {
    const char* field;
    void (*corrupt)(TraceHeader*);
  };
  const BadHeader cases[] = {
      {"dmax", [](TraceHeader* h) { h->dmax = 0.0; }},
      {"epsilon",
       [](TraceHeader* h) {
         h->epsilon = std::numeric_limits<double>::quiet_NaN();
       }},
      {"working_region",
       [](TraceHeader* h) {
         std::swap(h->working_region.x_min, h->working_region.x_max);
       }},
      {"working_region",
       [](TraceHeader* h) {
         h->working_region.x_min = std::numeric_limits<double>::quiet_NaN();
       }},
      {"dmax",
       [](TraceHeader* h) {
         h->dmax = std::numeric_limits<double>::infinity();
       }},
  };
  for (const BadHeader& c : cases) {
    TraceData bad = data;
    c.corrupt(&bad.header);
    const std::string path = TracePath("replay_header_bad.trc");
    ASSERT_TRUE(WriteTraceFile(path, bad));
    const ReplayResult result =
        TraceReplayer(ServingConfig{}).Replay(path, setup.scenario.sensors);
    EXPECT_FALSE(result.ok) << c.field;
    EXPECT_NE(result.error.find(c.field), std::string::npos)
        << c.field << ": " << result.error;
    std::remove(path.c_str());
  }
}

// ApplyDelta refuses a malformed delta whole and does not journal it, so
// the slot must select as if it had no delta: the replay serves the
// journaled (empty) delta. A sieve run is the sharp case, since the sieve
// re-offers a delta's moved sensors. Slot 3 of the live run receives 40
// moves of present sensors plus one NaN price; every replayed slot,
// including the later ones the sieve's carried state feeds, must match.
TEST(TraceReplayTest, RefusedDeltaSelectsLikeItsReplay) {
  SensorPopulationConfig profile;
  profile.linear_energy = true;
  profile.random_privacy = true;
  const ChurnScenarioSetup setup = MakeChurnScenario(
      600, /*churn_fraction=*/0.05, kSeed, /*with_mobility=*/true, profile);
  const std::string path = TracePath("replay_refused_delta.trc");
  const ClosedLoopConfig loop = MakeLoopConfig(GreedyEngine::kSieve, path);
  ServingConfig scfg = loop.serving;
  scfg.working_region = setup.field;
  scfg.dmax = setup.dmax;
  std::vector<SlotOutcome> live;
  {
    const std::unique_ptr<ServingEngine> engine =
        MakeServingEngine(setup.scenario.sensors, scfg);
    ChurnWorkload workload(&setup, loop.queries);
    SlotServer server(engine.get());
    live.push_back(server.ServeSlot(0, SensorDelta{}, SlotQueryBatch{}));
    for (int t = 1; t <= 6; ++t) {
      SensorDelta delta;
      if (t == 3) {
        for (int id = 0; static_cast<int>(delta.moves.size()) < 40; ++id) {
          const Sensor& s = engine->sensors()[static_cast<size_t>(id)];
          if (!s.present()) continue;
          delta.moves.push_back(SensorDelta::Placement{
              id, Point{s.position().y, s.position().x}});
        }
        delta.price_changes.push_back(
            {7, std::numeric_limits<double>::quiet_NaN()});
      } else {
        delta = workload.NextDelta();
      }
      live.push_back(server.ServeSlot(t, delta, workload.NextQueries(t)));
    }
    EXPECT_EQ(engine->refused_deltas(), 1);
    ASSERT_TRUE(engine->FinishTrace());
  }
  TraceData data;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(path, &data, &error)) << error;
  ASSERT_EQ(data.slots.size(), 7u);
  EXPECT_TRUE(data.slots[3].delta.empty());

  const ReplayResult replayed =
      TraceReplayer(ServingConfig().WithScheduler(GreedyEngine::kSieve))
          .Replay(path, setup.scenario.sensors);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  ExpectSameOutcomes(live, replayed.outcomes);
  EXPECT_FALSE(live[3].selection.selected_sensors.empty());
  std::remove(path.c_str());
}

TEST(TraceReplayTest, ReplayRateLeavesOutTheColdBuildRecord) {
  // The first record's BeginSlot is the fresh engine's cold build, so the
  // replay clock starts after it: a trace of slot 0 alone times nothing,
  // and a longer one reports kSlots slots over its wall time.
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string path = TracePath("replay_rate.trc");
  ClosedLoopConfig config = MakeLoopConfig(GreedyEngine::kLazy, path);
  config.slots = 0;
  RunChurnClosedLoop(setup, config);
  ReplayResult cold = TraceReplayer(ServingConfig{}).Replay(
      path, setup.scenario.sensors);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.outcomes.size(), 1u);
  EXPECT_EQ(cold.wall_ms, 0.0);
  EXPECT_EQ(cold.slots_per_sec, 0.0);

  RunChurnClosedLoop(setup, MakeLoopConfig(GreedyEngine::kLazy, path));
  ReplayResult steady = TraceReplayer(ServingConfig{}).Replay(
      path, setup.scenario.sensors);
  ASSERT_TRUE(steady.ok) << steady.error;
  EXPECT_EQ(steady.outcomes.size(), static_cast<size_t>(kSlots) + 1);
  ASSERT_GT(steady.wall_ms, 0.0);
  EXPECT_DOUBLE_EQ(steady.slots_per_sec, 1000.0 * kSlots / steady.wall_ms);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, RecordedTraceHasOneRecordPerServedSlot) {
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string path = TracePath("replay_shape.trc");
  RunChurnClosedLoop(setup, MakeLoopConfig(GreedyEngine::kLazy, path));
  TraceFile trace;
  std::string error;
  ASSERT_TRUE(trace.Load(path, &error)) << error;
  EXPECT_EQ(trace.header().version, kTraceVersion);
  EXPECT_EQ(trace.num_slots(), kSlots + 1);
  EXPECT_EQ(trace.header().registry_count,
            static_cast<uint32_t>(setup.scenario.sensors.size()));
  EXPECT_EQ(trace.header().registry_checksum,
            RegistryChecksum(setup.scenario.sensors));
  // Steady-state records carry real churn and the slot's query batch.
  TraceSlotRecord record;
  ASSERT_TRUE(trace.DecodeSlot(1, &record, &error)) << error;
  EXPECT_EQ(record.time, 1);
  EXPECT_EQ(static_cast<int>(record.point_queries.size()), 24);
  EXPECT_EQ(static_cast<int>(record.aggregate_queries.size()), 4);
  EXPECT_FALSE(record.delta.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace psens
