// Tests of the latency-SLO adaptive scheduler (src/engine/adaptive_policy.h,
// ServingConfig::slo_ms): the policy's deterministic choice function, its
// degrade-under-spike / recover-after-spike ladder walk, the optimistic
// first trial that seeds lazy's cost coefficient, version-2 trace
// recording of the per-slot engine choices, bit-identical replay of an
// adaptive run through a static engine, and the sieve refinement pass's
// utility floor against eager Algorithm 1 on submodular coverage
// instances.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/greedy.h"
#include "core/multi_query.h"
#include "core/sieve_streaming.h"
#include "engine/adaptive_policy.h"
#include "sim/experiments.h"
#include "sim/workload.h"
#include "trace/closed_loop.h"
#include "trace/trace_format.h"
#include "trace/trace_reader.h"
#include "trace/trace_replayer.h"

namespace psens {
namespace {

using Features = AdaptivePolicy::SlotFeatures;

// ---------------------------------------------------------------------------
// Policy unit tests
// ---------------------------------------------------------------------------

TEST(AdaptivePolicyTest, ChoiceIsDeterministicGivenObservationHistory) {
  // Choose is a pure function of (features, turnover, observation
  // history): two policies fed the same history agree everywhere. This
  // is the property the trace-pinned replay path rests on.
  const auto feed = [](AdaptivePolicy& p) {
    p.Observe(Features{1000, 20}, 8.0);
    p.Observe(Features{2000, 40}, 21.0);
  };
  AdaptivePolicy a(10.0, GreedyEngine::kLazy);
  AdaptivePolicy b(10.0, GreedyEngine::kLazy);
  feed(a);
  feed(b);
  for (int members : {100, 1000, 5000}) {
    for (double turnover : {0.0, 2.0, 9.0}) {
      const Features f{members, 20};
      EXPECT_EQ(a.Choose(f, turnover), b.Choose(f, turnover))
          << members << " members, turnover " << turnover;
    }
  }
}

TEST(AdaptivePolicyTest, UnobservedEngineGetsOneOptimisticTrial) {
  // Lazy is trialed once before its predicted cost can disqualify it —
  // otherwise it could never be costed at all. The ladder has two rungs:
  // lazy, then the sieve.
  const Features f{4000, 32};
  AdaptivePolicy p(1.0, GreedyEngine::kLazy);
  EXPECT_FALSE(p.observed());
  EXPECT_EQ(p.Choose(f, 0.0), GreedyEngine::kLazy);
  p.Observe(f, 50.0);  // 50 ms against a 1 ms SLO
  EXPECT_TRUE(p.observed());
  // The floor runs although nothing says it fits: the SLO degrades
  // quality, never correctness.
  EXPECT_EQ(p.Choose(f, 0.0), GreedyEngine::kSieve);
  // A sieve ceiling is a one-rung ladder.
  AdaptivePolicy sieve_only(1.0, GreedyEngine::kSieve);
  EXPECT_EQ(sieve_only.Choose(f, 0.0), GreedyEngine::kSieve);
}

TEST(AdaptivePolicyTest, DegradesUnderSpikeAndRecovers) {
  AdaptivePolicy p(10.0, GreedyEngine::kLazy);
  const Features base{1000, 16};
  const Features spike{1000, 96};  // 6x query fan-out
  p.Observe(base, 4.0);
  // Base load: lazy fits (4 ms <= 0.9 * 10 ms).
  EXPECT_EQ(p.Choose(base, 0.0), GreedyEngine::kLazy);
  // Spike: lazy's predicted cost scales with the 6x query count past
  // the budget, so the floor runs.
  EXPECT_EQ(p.Choose(spike, 0.0), GreedyEngine::kSieve);
  // Turnover spends the same budget selection has to fit into.
  EXPECT_EQ(p.Choose(base, 9.9), GreedyEngine::kSieve);
  // Recovery is symmetric: the spike passed, nothing to un-learn.
  EXPECT_EQ(p.Choose(base, 0.0), GreedyEngine::kLazy);
}

TEST(AdaptivePolicyTest, EwmaTracksDrift) {
  AdaptivePolicy p(100.0, GreedyEngine::kLazy);
  const Features f{100, 1};
  p.Observe(f, 10.0);
  // The first observation seeds the coefficient exactly.
  EXPECT_NEAR(p.PredictMs(f), 10.0, 1e-9);
  // A sustained 2x slowdown (contention, thermal) is absorbed.
  for (int i = 0; i < 50; ++i) p.Observe(f, 20.0);
  EXPECT_NEAR(p.PredictMs(f), 20.0, 0.1);
}

// ---------------------------------------------------------------------------
// Adaptive trace recording + replay bit-identity
// ---------------------------------------------------------------------------

constexpr uint64_t kSeed = 20260807;

ChurnScenarioSetup MakeSetup() {
  SensorPopulationConfig profile;
  profile.linear_energy = true;
  profile.random_privacy = true;
  return MakeChurnScenario(400, /*churn_fraction=*/0.05, kSeed,
                           /*with_mobility=*/true, profile);
}

ClosedLoopConfig MakeAdaptiveLoopConfig(double slo_ms,
                                        const std::string& trace_path) {
  ClosedLoopConfig config;
  config.slots = 12;
  config.serving.scheduler = GreedyEngine::kLazy;
  config.serving.slo_ms = slo_ms;
  config.serving.trace_path = trace_path;
  config.serving.approx.seed = kSeed;
  config.queries.queries_per_slot = 16;
  config.queries.aggregates_per_slot = 2;
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
        << live[i].selection.total_value << "), replay selected "
        << replayed[i].selection.selected_sensors.size() << " (value "
        << replayed[i].selection.total_value << ")";
  }
}

TEST(AdaptiveTraceTest, AdaptiveRunRecordsVersion2WithPerSlotChoices) {
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string path = TracePath("adaptive_v2.trc");
  RunChurnClosedLoop(setup, MakeAdaptiveLoopConfig(1e9, path));

  TraceFile trace;
  std::string error;
  ASSERT_TRUE(trace.Load(path, &error)) << error;
  EXPECT_EQ(trace.header().version, kTraceVersionAdaptive);
  ASSERT_EQ(trace.num_slots(), 13);  // cold slot 0 + 12 served
  for (int i = 0; i < trace.num_slots(); ++i) {
    TraceSlotRecord record;
    ASSERT_TRUE(trace.DecodeSlot(i, &record, &error)) << error;
    if (i == 0) {
      // The cold build binds no queries, so no engine ran.
      EXPECT_TRUE(record.engine_choices.empty());
    } else {
      ASSERT_EQ(record.engine_choices.size(), 1u) << "slot " << i;
      // A generous SLO never leaves the configured ceiling.
      EXPECT_EQ(record.engine_choices[0], GreedyEngine::kLazy)
          << "slot " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(AdaptiveTraceTest, StaticRunStillRecordsVersion1) {
  // slo_ms == 0 must keep emitting version-1 bytes — the golden-trace
  // compatibility contract.
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string path = TracePath("static_v1.trc");
  ClosedLoopConfig config = MakeAdaptiveLoopConfig(0.0, path);
  RunChurnClosedLoop(setup, config);

  TraceFile trace;
  std::string error;
  ASSERT_TRUE(trace.Load(path, &error)) << error;
  EXPECT_EQ(trace.header().version, kTraceVersion);
  TraceSlotRecord record;
  ASSERT_TRUE(trace.DecodeSlot(1, &record, &error)) << error;
  EXPECT_TRUE(record.engine_choices.empty());
  std::remove(path.c_str());
}

TEST(AdaptiveTraceTest, ReplayReproducesAdaptiveRunBitForBit) {
  // A tight SLO walks the ladder (trial, floor) mid-run; a
  // generous one never degrades. Either way the recorded choices pin the
  // replay to the live schedule — through a replayer whose own engine is
  // static (slo_ms == 0), since choices are replayed, not re-derived.
  const ChurnScenarioSetup setup = MakeSetup();
  for (const double slo_ms : {1e-3, 1e9}) {
    const std::string path = TracePath("adaptive_replay.trc");
    const ClosedLoopResult live =
        RunChurnClosedLoop(setup, MakeAdaptiveLoopConfig(slo_ms, path));

    const ReplayResult replayed =
        TraceReplayer(ServingConfig().WithScheduler(GreedyEngine::kLazy))
            .Replay(path, setup.scenario.sensors);
    ASSERT_TRUE(replayed.ok) << replayed.error;
    ExpectSameOutcomes(live.outcomes, replayed.outcomes);
    std::remove(path.c_str());
  }
}

TEST(AdaptiveTraceTest, TightSloDegradesToTheSieveFloor) {
  // With a microsecond SLO lazy over-budgets after its one optimistic
  // trial, so the run must settle on the sieve. The ladder has no rung
  // between them: every recorded choice is one of the two.
  const ChurnScenarioSetup setup = MakeSetup();
  const std::string path = TracePath("adaptive_tight.trc");
  RunChurnClosedLoop(setup, MakeAdaptiveLoopConfig(1e-3, path));

  TraceFile trace;
  std::string error;
  ASSERT_TRUE(trace.Load(path, &error)) << error;
  TraceSlotRecord record;
  for (int i = 0; i < trace.num_slots(); ++i) {
    ASSERT_TRUE(trace.DecodeSlot(i, &record, &error)) << error;
    for (GreedyEngine e : record.engine_choices) {
      EXPECT_TRUE(e == GreedyEngine::kLazy || e == GreedyEngine::kSieve)
          << "slot " << i << " chose engine " << static_cast<int>(e);
    }
  }
  ASSERT_EQ(record.engine_choices.size(), 1u);
  EXPECT_EQ(record.engine_choices[0], GreedyEngine::kSieve);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Sieve refinement utility floor
// ---------------------------------------------------------------------------

/// Uniform-theta coverage slot (see approx_scheduler_test.cc): theta = 1
/// everywhere makes the Eq. 5 valuation monotone submodular, the regime
/// the refinement floor is stated for.
SlotContext MakeUniformThetaSlot(int num_sensors, uint64_t seed) {
  Rng rng(seed);
  SlotContext slot;
  slot.time = 0;
  slot.dmax = 10.0;
  for (int i = 0; i < num_sensors; ++i) {
    SlotSensor s;
    s.sensor_id = i;
    s.location = Point{rng.Uniform(0.0, 40.0), rng.Uniform(0.0, 40.0)};
    s.cost = rng.Uniform(1.0, 4.0);
    s.inaccuracy = 0.0;
    s.trust = 1.0;
    slot.sensors.Append(s);
  }
  return slot;
}

double RunUtility(const SlotContext& slot, int num_queries, uint64_t seed,
                  decltype(&EagerGreedySensorSelection) select) {
  Rng rng(seed);
  std::vector<std::unique_ptr<AggregateQuery>> queries;
  for (int i = 0; i < num_queries; ++i) {
    AggregateQuery::Params params;
    params.id = i;
    params.region = RandomRect(Rect{0, 0, 40, 40}, 10.0, rng);
    params.budget = rng.Uniform(60.0, 120.0);
    params.sensing_range = 10.0;
    queries.push_back(std::make_unique<AggregateQuery>(params, slot));
  }
  std::vector<MultiQuery*> ptrs;
  for (auto& q : queries) ptrs.push_back(q.get());
  return select(ptrs, slot, nullptr).Utility();
}

TEST(SieveRefinementTest, RefinedSieveClearsTheFloor) {
  double sum_refined = 0.0;
  double sum_exact = 0.0;
  for (int trial = 0; trial < 8; ++trial) {
    const SlotContext slot = MakeUniformThetaSlot(60, 2500 + trial);
    const double exact =
        RunUtility(slot, 10, 2900 + trial, EagerGreedySensorSelection);
    ASSERT_GT(exact, 0.0) << "degenerate trial " << trial;
    const double refined =
        RunUtility(slot, 10, 2900 + trial, SieveStreamingSensorSelection);
    // Per-instance floor, below the 0.8 fig13 aggregate gate to absorb
    // single-instance variance.
    EXPECT_GE(refined, 0.7 * exact) << "trial " << trial;
    sum_refined += refined;
    sum_exact += exact;
  }
  // The fig13 quality gate's target, averaged over the trials.
  EXPECT_GE(sum_refined, 0.8 * sum_exact);
}

}  // namespace
}  // namespace psens
