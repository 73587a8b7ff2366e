// Tests of ParallelFor and the parallel slot execution of the
// experiment runners: sharding independent slots over workers must be a
// pure performance knob — any parallelism value yields the bit-identical
// ExperimentResult for the same seed.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel_for.h"
#include "mobility/random_waypoint.h"
#include "sim/experiments.h"
#include "sim/workload.h"

namespace psens {
namespace {

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  for (int n : {0, 1, 3, 257}) {
    for (int threads : {0, 1, 2, 4}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
      for (auto& h : hits) h = 0;
      ParallelFor(n, threads, [&](int i) { ++hits[i]; });
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << ", n " << n << ", threads " << threads;
      }
    }
  }
}

TEST(ParallelForTest, OneThreadRunsInlineInAscendingOrder) {
  // RunSlots' feedback path relies on this: its slots must run in order
  // on the caller, each seeing the readings of the one before.
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  std::vector<std::thread::id> ran_on;
  ParallelFor(257, 1, [&](int i) {
    order.push_back(i);
    ran_on.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(order.size(), 257u);
  for (int i = 0; i < 257; ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(ran_on[i], caller) << "index " << i;
  }
}

TEST(ParallelForTest, RethrowsABodyExceptionAfterJoining) {
  std::atomic<int> ran{0};
  EXPECT_THROW(ParallelFor(257, 4,
                           [&](int i) {
                             ++ran;
                             if (i == 100) throw std::runtime_error("slot 100");
                           }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 101);
}

TEST(ParallelForTest, ResolveParallelism) {
  EXPECT_EQ(ResolveParallelism(3), 3);
  EXPECT_EQ(ResolveParallelism(1), 1);
  EXPECT_GE(ResolveParallelism(0), 1);
  EXPECT_GE(ResolveParallelism(-2), 1);
}

TEST(HasCrossSlotFeedbackTest, DetectsFeedbackSources) {
  SensorPopulationConfig config;
  config.lifetime = 20;
  EXPECT_FALSE(HasCrossSlotFeedback(config, 20));
  EXPECT_TRUE(HasCrossSlotFeedback(config, 21));  // wear-out mid-run
  config.lifetime = 50;
  config.linear_energy = true;
  EXPECT_TRUE(HasCrossSlotFeedback(config, 20));
  config.linear_energy = false;
  config.random_privacy = true;
  EXPECT_TRUE(HasCrossSlotFeedback(config, 20));
}

Trace SmallRwm(int slots) {
  RandomWaypointConfig config;
  config.num_sensors = 60;
  config.num_slots = slots;
  config.seed = 21;
  return GenerateRandomWaypoint(config);
}

PointExperimentConfig BasePointConfig(const Trace& trace, int slots) {
  PointExperimentConfig config;
  config.trace = &trace;
  config.working_region = Rect{10, 10, 70, 70};
  config.dmax = 8.0;
  config.num_slots = slots;
  config.queries_per_slot = 60;
  config.budget = BudgetScheme{15.0, false, 0.0};
  config.scheduler = PointScheduler::kLocalSearch;
  config.sensors.lifetime = slots;
  config.seed = 99;
  return config;
}

void ExpectIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  // Bit-identical, not merely close: the parallel runner promises the
  // exact sequential result (ordered reduction over per-slot streams).
  EXPECT_EQ(a.avg_utility, b.avg_utility);
  EXPECT_EQ(a.satisfaction, b.satisfaction);
  EXPECT_EQ(a.avg_quality, b.avg_quality);
  EXPECT_EQ(a.avg_cost, b.avg_cost);
  EXPECT_EQ(a.avg_value, b.avg_value);
  EXPECT_EQ(a.total_queries, b.total_queries);
  EXPECT_EQ(a.answered_queries, b.answered_queries);
}

TEST(ParallelExperimentTest, PointExperimentDeterministicAcrossThreadCounts) {
  const Trace trace = SmallRwm(8);
  PointExperimentConfig config = BasePointConfig(trace, 8);
  config.parallelism = 1;
  const ExperimentResult sequential = RunPointExperiment(config);
  EXPECT_GT(sequential.total_queries, 0);
  for (int threads : {2, 4, 7}) {
    config.parallelism = threads;
    ExpectIdentical(sequential, RunPointExperiment(config));
  }
  config.parallelism = 0;  // auto = hardware concurrency
  ExpectIdentical(sequential, RunPointExperiment(config));
}

TEST(ParallelExperimentTest, AggregateExperimentDeterministicAcrossThreadCounts) {
  const Trace trace = SmallRwm(6);
  AggregateExperimentConfig config;
  config.trace = &trace;
  config.working_region = Rect{10, 10, 70, 70};
  config.num_slots = 6;
  config.budget_factor = 12.0;
  config.sensors.lifetime = 6;
  config.seed = 7;
  config.parallelism = 1;
  const ExperimentResult sequential = RunAggregateExperiment(config);
  config.parallelism = 4;
  ExpectIdentical(sequential, RunAggregateExperiment(config));
}

TEST(ParallelExperimentTest, FeedbackConfigsIgnoreParallelismSafely) {
  // Linear energy costs couple slots; the runner must fall back to the
  // sequential feedback path and still give identical results for any
  // requested parallelism.
  const Trace trace = SmallRwm(6);
  PointExperimentConfig config = BasePointConfig(trace, 6);
  config.sensors.linear_energy = true;
  config.parallelism = 1;
  const ExperimentResult sequential = RunPointExperiment(config);
  config.parallelism = 4;
  ExpectIdentical(sequential, RunPointExperiment(config));
}

TEST(ParallelExperimentTest, WearOutStillBitesOnTheSequentialPath) {
  // Guard for the HasCrossSlotFeedback contract: short lifetimes must
  // still wear sensors out (the parallel fast path would lose that).
  const Trace trace = SmallRwm(10);
  PointExperimentConfig config = BasePointConfig(trace, 10);
  config.sensors.lifetime = 2;
  const ExperimentResult short_life = RunPointExperiment(config);
  config.sensors.lifetime = 10;
  const ExperimentResult long_life = RunPointExperiment(config);
  EXPECT_LT(short_life.avg_utility, long_life.avg_utility);
}

}  // namespace
}  // namespace psens
