// Tests of the CELF lazy-greedy engine (src/core/lazy_greedy.h): on
// submodular instances the lazy run must select the identical sensor
// sequence — with identical payments and accounting — as the eager
// Algorithm 1 rescan, while making strictly fewer valuation calls, and it
// must inherit the Theorem 1 properties on arbitrary (non-submodular)
// instances.

#include "core/lazy_greedy.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/greedy.h"
#include "core/multi_query.h"
#include "sim/workload.h"

namespace psens {
namespace {

/// Slot with perfectly accurate, fully trusted sensors: every theta is 1,
/// so the Eq. 5 mean-quality factor is constant and the aggregate
/// valuation degenerates to budget * coverage — monotone submodular.
SlotContext MakeUniformThetaSlot(int num_sensors, uint64_t seed) {
  Rng rng(seed);
  SlotContext slot;
  slot.time = 0;
  slot.dmax = 10.0;
  for (int i = 0; i < num_sensors; ++i) {
    SlotSensor s;
    s.sensor_id = i;
    s.location = Point{rng.Uniform(0.0, 40.0), rng.Uniform(0.0, 40.0)};
    s.cost = rng.Uniform(5.0, 15.0);
    s.inaccuracy = 0.0;
    s.trust = 1.0;
    slot.sensors.Append(s);
  }
  return slot;
}

std::vector<std::unique_ptr<AggregateQuery>> MakeCoverageQueries(
    const SlotContext& slot, int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<AggregateQuery>> queries;
  for (int i = 0; i < count; ++i) {
    AggregateQuery::Params params;
    params.id = i;
    params.region = RandomRect(Rect{0, 0, 40, 40}, 8.0, rng);
    params.budget = rng.Uniform(30.0, 80.0);
    params.sensing_range = 10.0;
    queries.push_back(std::make_unique<AggregateQuery>(params, slot));
  }
  return queries;
}

struct EngineRun {
  SelectionResult result;
  std::vector<double> payments;
  std::vector<double> values;
};

/// The eager reference and the lazy engine share one signature.
using SelectFn = decltype(&EagerGreedySensorSelection);

EngineRun RunEngine(const SlotContext& slot, int num_queries, uint64_t seed,
                    SelectFn select) {
  auto queries = MakeCoverageQueries(slot, num_queries, seed);
  std::vector<MultiQuery*> ptrs;
  for (auto& q : queries) ptrs.push_back(q.get());
  EngineRun run;
  run.result = select(ptrs, slot, nullptr);
  for (const auto& q : queries) {
    run.payments.push_back(q->TotalPayment());
    run.values.push_back(q->CurrentValue());
  }
  return run;
}

TEST(LazyGreedyTest, MatchesEagerOnSubmodularCoverageInstances) {
  for (int trial = 0; trial < 20; ++trial) {
    const SlotContext slot = MakeUniformThetaSlot(20, 500 + trial);
    const EngineRun eager =
        RunEngine(slot, 8, 900 + trial, EagerGreedySensorSelection);
    const EngineRun lazy =
        RunEngine(slot, 8, 900 + trial, LazyGreedySensorSelection);
    // Identical selection *sequence*, not just set: tie-breaking matches.
    EXPECT_EQ(eager.result.selected_sensors, lazy.result.selected_sensors)
        << "trial " << trial;
    EXPECT_DOUBLE_EQ(eager.result.total_value, lazy.result.total_value);
    EXPECT_DOUBLE_EQ(eager.result.total_cost, lazy.result.total_cost);
    ASSERT_EQ(eager.payments.size(), lazy.payments.size());
    for (size_t i = 0; i < eager.payments.size(); ++i) {
      EXPECT_DOUBLE_EQ(eager.payments[i], lazy.payments[i]) << "query " << i;
      EXPECT_DOUBLE_EQ(eager.values[i], lazy.values[i]) << "query " << i;
    }
  }
}

TEST(LazyGreedyTest, MakesFewerValuationCallsWhenSelectingSeveralSensors) {
  int64_t eager_total = 0, lazy_total = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const SlotContext slot = MakeUniformThetaSlot(30, 700 + trial);
    const EngineRun eager =
        RunEngine(slot, 10, 800 + trial, EagerGreedySensorSelection);
    const EngineRun lazy =
        RunEngine(slot, 10, 800 + trial, LazyGreedySensorSelection);
    EXPECT_LE(lazy.result.valuation_calls, eager.result.valuation_calls);
    eager_total += eager.result.valuation_calls;
    lazy_total += lazy.result.valuation_calls;
  }
  // Aggregate speedup over the trials; individual degenerate slots (no
  // selection) cost both engines the same single sweep.
  EXPECT_LT(lazy_total, eager_total);
}

TEST(LazyGreedyTest, MatchesEagerWithPointQueriesAndCostScale) {
  // Point multi-queries (max-of-selected valuation) are submodular; also
  // exercise the Eq. 18 cost-scale path.
  for (int trial = 0; trial < 10; ++trial) {
    SlotContext slot = MakeUniformThetaSlot(15, 300 + trial);
    Rng rng(400 + trial);
    std::vector<PointQuery> specs;
    for (int i = 0; i < 10; ++i) {
      PointQuery q;
      q.id = i;
      q.location = Point{rng.Uniform(0.0, 40.0), rng.Uniform(0.0, 40.0)};
      q.budget = rng.Uniform(10.0, 25.0);
      specs.push_back(q);
    }
    std::vector<double> scale;
    for (size_t s = 0; s < slot.sensors.size(); ++s) {
      scale.push_back(rng.Uniform(0.5, 1.5));
    }

    const auto run = [&](SelectFn select) {
      std::vector<std::unique_ptr<PointMultiQuery>> queries;
      for (const PointQuery& q : specs) {
        queries.push_back(std::make_unique<PointMultiQuery>(q, &slot));
      }
      std::vector<MultiQuery*> ptrs;
      for (auto& q : queries) ptrs.push_back(q.get());
      return select(ptrs, slot, &scale);
    };
    const SelectionResult eager = run(EagerGreedySensorSelection);
    const SelectionResult lazy = run(LazyGreedySensorSelection);
    EXPECT_EQ(eager.selected_sensors, lazy.selected_sensors) << "trial " << trial;
    EXPECT_DOUBLE_EQ(eager.total_value, lazy.total_value);
    EXPECT_DOUBLE_EQ(eager.total_cost, lazy.total_cost);
  }
}

TEST(LazyGreedyTest, Theorem1PropertiesHoldOnNonSubmodularInstances) {
  // Random thetas re-activate Eq. 5's non-submodular mean-quality factor;
  // the lazy engine may legitimately diverge from eager there, but the
  // Theorem 1 guarantees must survive.
  for (int trial = 0; trial < 15; ++trial) {
    Rng rng(600 + trial);
    SlotContext slot = MakeUniformThetaSlot(15, 100 + trial);
    for (double& inaccuracy : slot.sensors.inaccuracy) {
      inaccuracy = rng.Uniform(0.0, 0.3);
    }

    auto queries = MakeCoverageQueries(slot, 6, 200 + trial);
    std::vector<MultiQuery*> ptrs;
    for (auto& q : queries) ptrs.push_back(q.get());
    const SelectionResult result = LazyGreedySensorSelection(ptrs, slot);

    if (!result.selected_sensors.empty()) {
      EXPECT_GT(result.Utility(), 0.0) << "trial " << trial;
    }
    double total_payment = 0.0;
    for (const auto& q : queries) {
      EXPECT_GE(q->CurrentValue() + 1e-9, q->TotalPayment());
      total_payment += q->TotalPayment();
    }
    EXPECT_NEAR(total_payment, result.total_cost, 1e-6);
  }
}

TEST(LazyGreedyTest, SelectsNothingWhenCostsDominate) {
  SlotContext slot = MakeUniformThetaSlot(8, 1);
  for (double& cost : slot.sensors.cost) cost = 1e7;
  auto queries = MakeCoverageQueries(slot, 4, 2);
  std::vector<MultiQuery*> ptrs;
  for (auto& q : queries) ptrs.push_back(q.get());
  const SelectionResult result = LazyGreedySensorSelection(ptrs, slot);
  EXPECT_TRUE(result.selected_sensors.empty());
  EXPECT_DOUBLE_EQ(result.total_value, 0.0);
  // One full initial sweep is the price of finding out nothing pays.
  EXPECT_EQ(result.valuation_calls,
            static_cast<int64_t>(slot.sensors.size() * queries.size()));
}

TEST(LazyGreedyTest, EmptySlotAndEmptyQueriesAreNoOps) {
  SlotContext empty_slot;
  empty_slot.time = 0;
  empty_slot.dmax = 5.0;
  auto queries = MakeCoverageQueries(empty_slot, 2, 3);
  std::vector<MultiQuery*> ptrs;
  for (auto& q : queries) ptrs.push_back(q.get());
  const SelectionResult no_sensors = LazyGreedySensorSelection(ptrs, empty_slot);
  EXPECT_TRUE(no_sensors.selected_sensors.empty());

  const SlotContext slot = MakeUniformThetaSlot(5, 4);
  std::vector<MultiQuery*> none;
  const SelectionResult no_queries = LazyGreedySensorSelection(none, slot);
  EXPECT_TRUE(no_queries.selected_sensors.empty());
  EXPECT_EQ(no_queries.valuation_calls, 0);
}

}  // namespace
}  // namespace psens
