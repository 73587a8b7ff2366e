// Replay-based differential suite (the record/replay harness's reason to
// exist): a live closed-loop churn run records itself, the replayer
// re-drives the trace through a fresh engine, and every schedule,
// payment, and valuation-call count must match bit for bit — for all
// three selection engines, for any replayer decode-thread count, and for
// a sieve replay whose base seed differs from the recorded run's (the
// per-slot seeds persisted in the trace carry reproduction). Also: a
// header the serving config refuses, and records naming an engine the
// replayer cannot serve, fail with an error instead of aborting or
// diverging; a delta the live engine refuses selects as its replay does;
// the replay rate leaves out the cold-build record.

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

  ReplayConfig rcfg;
  rcfg.serving.scheduler = c.engine;
  TraceReplayer replayer(rcfg);
  const ReplayResult replayed = replayer.Replay(path, setup.scenario.sensors);
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
    testing::Values(EngineCase{"exact", GreedyEngine::kEager},
                    EngineCase{"lazy", GreedyEngine::kLazy},
                    EngineCase{"sieve", GreedyEngine::kSieve}),
    [](const testing::TestParamInfo<EngineCase>& info) {
      return info.param.name;
    });

TEST(TraceReplayTest, DecodeThreadCountDoesNotChangeOutcomes) {
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string path = TracePath("replay_threads.trc");
  const ClosedLoopResult live =
      RunChurnClosedLoop(setup, MakeLoopConfig(GreedyEngine::kLazy, path));

  ReplayConfig serial_cfg;
  serial_cfg.decode_threads = 1;
  ReplayConfig parallel_cfg;
  parallel_cfg.decode_threads = 8;
  const ReplayResult serial =
      TraceReplayer(serial_cfg).Replay(path, setup.scenario.sensors);
  const ReplayResult parallel =
      TraceReplayer(parallel_cfg).Replay(path, setup.scenario.sensors);
  ASSERT_TRUE(serial.ok) << serial.error;
  ASSERT_TRUE(parallel.ok) << parallel.error;
  ExpectSameOutcomes(live.outcomes, serial.outcomes);
  ExpectSameOutcomes(serial.outcomes, parallel.outcomes);
  std::remove(path.c_str());
}

// The ApproxSlotSeed persistence regression: every slot record carries
// the seed the recording engine stamped, and the replayer pins it, so a
// sieve replay reproduces the live selections even when the replaying
// config's base seed is different — the sieve's refinement pass draws its
// exploration sample from that seed. With pinning disabled the mismatched
// base seed must actually show, otherwise this test would pass vacuously.
// The sample is kRefineSampleSize (1536) sensors of the candidate scan,
// so the population here is large enough for the draw to leave sensors
// out; on a smaller scan the sample is the whole scan and the seed
// cannot matter.
TEST(TraceReplayTest, SieveReplayReproducesAcrossBaseSeeds) {
  const ChurnScenarioSetup setup = MakeChurnScenario(
      4000, /*churn_fraction=*/0.02, kSeed, /*with_mobility=*/true);
  const std::string path = TracePath("replay_seed.trc");
  ClosedLoopConfig config = MakeLoopConfig(GreedyEngine::kSieve, path);
  config.slots = 6;
  config.queries.aggregates_per_slot = 8;
  const ClosedLoopResult live = RunChurnClosedLoop(setup, config);

  ReplayConfig pinned_cfg;
  pinned_cfg.serving.scheduler = GreedyEngine::kSieve;
  pinned_cfg.override_approx_seed = true;
  pinned_cfg.serving.approx.seed = kSeed ^ 0xDEADBEEF;
  pinned_cfg.pin_slot_seeds = true;
  const ReplayResult pinned =
      TraceReplayer(pinned_cfg).Replay(path, setup.scenario.sensors);
  ASSERT_TRUE(pinned.ok) << pinned.error;
  ExpectSameOutcomes(live.outcomes, pinned.outcomes);

  ReplayConfig unpinned_cfg = pinned_cfg;
  unpinned_cfg.pin_slot_seeds = false;
  const ReplayResult unpinned =
      TraceReplayer(unpinned_cfg).Replay(path, setup.scenario.sensors);
  ASSERT_TRUE(unpinned.ok) << unpinned.error;
  ASSERT_EQ(unpinned.outcomes.size(), live.outcomes.size());
  bool any_diverged = false;
  for (size_t i = 0; i < live.outcomes.size(); ++i) {
    if (!SameOutcome(live.outcomes[i], unpinned.outcomes[i])) {
      any_diverged = true;
      break;
    }
  }
  EXPECT_TRUE(any_diverged)
      << "replay with a different base seed and no per-slot pinning "
         "reproduced the live run anyway — the seed-persistence test has "
         "lost its teeth";
  std::remove(path.c_str());
}

TEST(TraceReplayTest, MismatchedRegistryIsRefused) {
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string path = TracePath("replay_registry.trc");
  RunChurnClosedLoop(setup, MakeLoopConfig(GreedyEngine::kLazy, path));

  std::vector<Sensor> tampered = setup.scenario.sensors;
  tampered[7].SetBasePrice(tampered[7].profile().base_price + 1.0);
  const ReplayResult result =
      TraceReplayer(ReplayConfig{}).Replay(path, tampered);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("registry mismatch"), std::string::npos)
      << result.error;

  std::vector<Sensor> short_registry = setup.scenario.sensors;
  short_registry.pop_back();
  const ReplayResult short_result =
      TraceReplayer(ReplayConfig{}).Replay(path, short_registry);
  EXPECT_FALSE(short_result.ok);
  std::remove(path.c_str());
}

// Version-2 slot records carry a list of engine choices. A single choice
// (the adaptive policy's) is pinned and replays bit-identically; more
// than one came from per-shard scheduler passes, which the single engine
// cannot reproduce, so the replayer refuses the trace and names the slot
// instead of silently serving the first choice.
TEST(TraceReplayTest, MultiEngineChoiceRecordsAreRefused) {
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string live_path = TracePath("replay_choices_live.trc");
  const ClosedLoopResult live =
      RunChurnClosedLoop(setup, MakeLoopConfig(GreedyEngine::kLazy, live_path));
  TraceData data;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(live_path, &data, &error)) << error;
  std::remove(live_path.c_str());

  data.header.version = kTraceVersionAdaptive;
  for (TraceSlotRecord& slot : data.slots) {
    if (!slot.point_queries.empty() || !slot.aggregate_queries.empty()) {
      slot.engine_choices = {GreedyEngine::kLazy};
    }
  }
  const std::string single_path = TracePath("replay_choices_single.trc");
  ASSERT_TRUE(WriteTraceFile(single_path, data));
  ReplayConfig rcfg;
  rcfg.serving.scheduler = GreedyEngine::kLazy;
  const ReplayResult single =
      TraceReplayer(rcfg).Replay(single_path, setup.scenario.sensors);
  ASSERT_TRUE(single.ok) << single.error;
  ExpectSameOutcomes(live.outcomes, single.outcomes);
  std::remove(single_path.c_str());

  data.slots[3].engine_choices = {GreedyEngine::kLazy, GreedyEngine::kEager};
  const std::string multi_path = TracePath("replay_choices_multi.trc");
  ASSERT_TRUE(WriteTraceFile(multi_path, data));
  const ReplayResult multi =
      TraceReplayer(rcfg).Replay(multi_path, setup.scenario.sensors);
  EXPECT_FALSE(multi.ok);
  EXPECT_NE(multi.error.find("slot 3"), std::string::npos) << multi.error;
  EXPECT_NE(multi.error.find("engine choices"), std::string::npos)
      << multi.error;
  std::remove(multi_path.c_str());
}

// Version-2 engine choices are GreedyEngine values. 2 named the removed
// stochastic-greedy engine: decode refuses it, naming the slot, rather
// than serve the slot with some other engine. Lazy (0), eager (1) and
// sieve (3) choices still decode.
TEST(TraceReplayTest, RemovedEngineChoiceIsRefused) {
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string live_path = TracePath("replay_removed_live.trc");
  RunChurnClosedLoop(setup, MakeLoopConfig(GreedyEngine::kLazy, live_path));
  TraceData data;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(live_path, &data, &error)) << error;
  std::remove(live_path.c_str());
  ASSERT_GT(data.slots.size(), 4u);

  data.header.version = kTraceVersionAdaptive;
  data.slots[1].engine_choices = {GreedyEngine::kLazy};
  data.slots[2].engine_choices = {GreedyEngine::kEager};
  data.slots[4].engine_choices = {GreedyEngine::kSieve};
  const std::string kept_path = TracePath("replay_removed_kept.trc");
  ASSERT_TRUE(WriteTraceFile(kept_path, data));
  TraceData kept;
  ASSERT_TRUE(ReadTraceFile(kept_path, &kept, &error)) << error;
  EXPECT_EQ(kept.slots[1].engine_choices,
            std::vector<GreedyEngine>{GreedyEngine::kLazy});
  EXPECT_EQ(kept.slots[2].engine_choices,
            std::vector<GreedyEngine>{GreedyEngine::kEager});
  EXPECT_EQ(kept.slots[4].engine_choices,
            std::vector<GreedyEngine>{GreedyEngine::kSieve});
  std::remove(kept_path.c_str());

  data.slots[3].engine_choices = {static_cast<GreedyEngine>(2)};
  const std::string removed_path = TracePath("replay_removed_engine.trc");
  ASSERT_TRUE(WriteTraceFile(removed_path, data));
  TraceFile trace;
  ASSERT_TRUE(trace.Load(removed_path, &error)) << error;
  TraceSlotRecord record;
  EXPECT_FALSE(trace.DecodeSlot(3, &record, &error));
  EXPECT_NE(error.find("slot 3"), std::string::npos) << error;
  EXPECT_NE(error.find("removed"), std::string::npos) << error;

  const ReplayResult replayed =
      TraceReplayer(ReplayConfig{}).Replay(removed_path,
                                           setup.scenario.sensors);
  EXPECT_FALSE(replayed.ok);
  EXPECT_NE(replayed.error.find("slot 3"), std::string::npos)
      << replayed.error;
  EXPECT_NE(replayed.error.find("removed"), std::string::npos)
      << replayed.error;
  std::remove(removed_path.c_str());
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
        TraceReplayer(ReplayConfig{}).Replay(path, setup.scenario.sensors);
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

  ReplayConfig rcfg;
  rcfg.serving.scheduler = GreedyEngine::kSieve;
  const ReplayResult replayed =
      TraceReplayer(rcfg).Replay(path, setup.scenario.sensors);
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
  ReplayResult cold = TraceReplayer(ReplayConfig{}).Replay(
      path, setup.scenario.sensors);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.outcomes.size(), 1u);
  EXPECT_EQ(cold.wall_ms, 0.0);
  EXPECT_EQ(cold.slots_per_sec, 0.0);

  RunChurnClosedLoop(setup, MakeLoopConfig(GreedyEngine::kLazy, path));
  ReplayResult steady = TraceReplayer(ReplayConfig{}).Replay(
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
