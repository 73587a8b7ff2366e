// Tests of the CELF lazy-greedy engine (src/core/lazy_greedy.h): on
// submodular instances the lazy run must select the identical sensor
// sequence — with identical payments and accounting — as the eager
// Algorithm 1 rescan, while making strictly fewer valuation calls, and it
// must inherit the Theorem 1 properties on arbitrary (non-submodular)
// instances. On every instance, submodular or not, its frontier must pop
// what a std::priority_queue CELF loop pops, bit for bit.

#include "core/lazy_greedy.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/arena.h"
#include "core/batch_eval.h"
#include "core/candidate_pruning.h"
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
  // One full initial sweep of every query's candidates is the price of
  // finding out nothing pays.
  int64_t listed = 0;
  for (const auto& q : queries) {
    listed += static_cast<int64_t>(q->CandidateSensors()->size());
  }
  EXPECT_EQ(result.valuation_calls, listed);
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

/// The CELF loop as a std::priority_queue of cached nets — the heap the
/// frontier replaced — built on the same public plan, evaluator and
/// commit. Its comparator orders (net desc, row asc), so any engine that
/// pops the same fronts makes the same re-evaluations, valuation calls,
/// commits and payments.
SelectionResult HeapLazyGreedy(const std::vector<MultiQuery*>& queries,
                               const SlotContext& slot,
                               const std::vector<double>* cost_scale) {
  struct Candidate {
    double net = 0.0;
    int round = 0;
    int row = 0;
  };
  struct CandidateLess {
    bool operator()(const Candidate& a, const Candidate& b) const {
      if (a.net != b.net) return a.net < b.net;
      return a.row > b.row;
    }
  };
  SelectionResult result;
  const int64_t calls_before = TotalValuationCalls(queries);
  const CandidatePlan plan = BuildCandidatePlan(
      queries, static_cast<int>(slot.sensors.size()), slot.arena);
  NetEvaluator evaluator(queries, plan, slot, cost_scale);
  std::priority_queue<Candidate, std::vector<Candidate>, CandidateLess> heap;
  {
    std::vector<int> rows(static_cast<size_t>(plan.NumRows()));
    std::iota(rows.begin(), rows.end(), 0);
    std::vector<double> net(rows.size());
    evaluator.EvaluateRowNets(rows, net.data());
    for (size_t r = 0; r < rows.size(); ++r) {
      heap.push(Candidate{net[r], 0, static_cast<int>(r)});
    }
  }
  int round = 0;
  while (!heap.empty()) {
    Candidate top = heap.top();
    heap.pop();
    if (top.round != round) {
      top.net = evaluator.EvaluateRowNet(top.row);
      top.round = round;
      heap.push(top);
      continue;
    }
    if (top.net <= 0.0) break;
    const int sensor = plan.sensors[static_cast<size_t>(top.row)];
    CheckPrunedMarginals(queries, plan, sensor);
    result.total_cost +=
        CommitWithProportionalPayments(queries, plan, slot, sensor);
    result.selected_sensors.push_back(sensor);
    ++round;
  }
  evaluator.FlushValuationCalls();
  for (const MultiQuery* q : queries) result.total_value += q->CurrentValue();
  result.valuation_calls = TotalValuationCalls(queries) - calls_before;
  return result;
}

/// One seeded slot: `num_sensors` sensors over [0, 40]^2 with random
/// quality (so Eq. 5 is non-submodular and CELF departs from eager), each
/// repeated `copies` times at the same location, cost and quality, so
/// that copies share every net and only the row tie-break separates them.
SlotContext MakeOracleSlot(int num_sensors, int copies, bool indexed,
                           uint64_t seed) {
  Rng rng(seed);
  SlotContext slot;
  slot.time = 0;
  slot.dmax = 8.0;
  slot.index_policy = indexed ? SlotIndexPolicy::kGrid : SlotIndexPolicy::kNone;
  for (int i = 0; i < num_sensors; ++i) {
    SlotSensor s;
    s.location = Point{rng.Uniform(0.0, 40.0), rng.Uniform(0.0, 40.0)};
    s.cost = rng.Uniform(2.0, 12.0);
    s.inaccuracy = rng.Uniform(0.0, 0.3);
    s.trust = rng.Uniform(0.6, 1.0);
    for (int c = 0; c < copies; ++c) {
      s.sensor_id = static_cast<int>(slot.sensors.size());
      slot.sensors.Append(s);
    }
  }
  AttachSlotIndex(slot);
  return slot;
}

/// Everything an engine run leaves behind, bit for bit.
struct OracleRun {
  std::vector<int> selected;
  int64_t valuation_calls = 0;
  uint64_t total_value = 0;
  uint64_t total_cost = 0;
  std::vector<uint64_t> payments;
};

/// Runs `select` on fresh point and aggregate queries over `slot`, with
/// the slot's arena attached when `arena` is non-null.
OracleRun RunOracleEngine(const SlotContext& slot, int num_points,
                          int num_aggregates, bool scaled, uint64_t seed,
                          SlotArena* arena, SelectFn select) {
  SlotContext run_slot = slot;
  run_slot.arena = arena;
  if (arena != nullptr) arena->Reset();
  Rng rng(seed);
  std::vector<std::unique_ptr<MultiQuery>> queries;
  for (int i = 0; i < num_points; ++i) {
    PointQuery q;
    q.id = i;
    q.location = Point{rng.Uniform(0.0, 40.0), rng.Uniform(0.0, 40.0)};
    q.budget = rng.Uniform(10.0, 30.0);
    queries.push_back(std::make_unique<PointMultiQuery>(q, &run_slot));
  }
  for (int i = 0; i < num_aggregates; ++i) {
    AggregateQuery::Params params;
    params.id = num_points + i;
    params.region = RandomRect(Rect{0, 0, 40, 40}, 12.0, rng);
    params.budget = rng.Uniform(40.0, 120.0);
    params.sensing_range = 6.0;
    queries.push_back(std::make_unique<AggregateQuery>(params, run_slot));
  }
  std::vector<double> scale;
  if (scaled) {
    for (size_t s = 0; s < run_slot.sensors.size(); ++s) {
      scale.push_back(rng.Uniform(0.5, 1.5));
    }
  }
  std::vector<MultiQuery*> ptrs;
  for (auto& q : queries) ptrs.push_back(q.get());
  const SelectionResult result =
      select(ptrs, run_slot, scaled ? &scale : nullptr);
  OracleRun run;
  run.selected = result.selected_sensors;
  run.valuation_calls = result.valuation_calls;
  run.total_value = std::bit_cast<uint64_t>(result.total_value);
  run.total_cost = std::bit_cast<uint64_t>(result.total_cost);
  for (const auto& q : queries) {
    run.payments.push_back(std::bit_cast<uint64_t>(q->TotalPayment()));
  }
  return run;
}

/// Runs the frontier engine and the heap oracle on one instance and
/// expects every observable bit to agree. Returns the oracle's run.
OracleRun ExpectMatchesHeapOracle(const SlotContext& slot, int num_points,
                                  int num_aggregates, bool scaled,
                                  uint64_t seed) {
  SlotArena arena;
  const OracleRun heap = RunOracleEngine(slot, num_points, num_aggregates,
                                         scaled, seed, nullptr, HeapLazyGreedy);
  for (SlotArena* a : {static_cast<SlotArena*>(nullptr), &arena}) {
    SCOPED_TRACE(a == nullptr ? "no arena" : "arena");
    const OracleRun frontier =
        RunOracleEngine(slot, num_points, num_aggregates, scaled, seed, a,
                        LazyGreedySensorSelection);
    EXPECT_EQ(frontier.selected, heap.selected);
    EXPECT_EQ(frontier.valuation_calls, heap.valuation_calls);
    EXPECT_EQ(frontier.total_value, heap.total_value);
    EXPECT_EQ(frontier.total_cost, heap.total_cost);
    EXPECT_EQ(frontier.payments, heap.payments);
  }
  return heap;
}

TEST(LazyGreedyOracleTest, FrontierMatchesHeapOnMixedSlots) {
  int selecting = 0;
  for (int trial = 0; trial < 12; ++trial) {
    for (const bool indexed : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << " indexed " << indexed);
      const SlotContext slot =
          MakeOracleSlot(150 + 20 * trial, 1, indexed, 3100 + trial);
      const OracleRun run = ExpectMatchesHeapOracle(
          slot, 12, 3, /*scaled=*/trial % 3 == 0, 4100 + trial);
      if (run.selected.size() > 2) ++selecting;
    }
  }
  // The instances must exercise the loop: several picks, hence re-
  // evaluated stale fronts, on most of them.
  EXPECT_GE(selecting, 20);
}

TEST(LazyGreedyOracleTest, FrontierMatchesHeapWhenManyRowsShareANet) {
  // Four identical copies of every sensor: each copy ties its siblings on
  // every net, so every pick and every re-evaluation order turns on the
  // row tie-break.
  for (int trial = 0; trial < 8; ++trial) {
    for (const bool indexed : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << " indexed " << indexed);
      const SlotContext slot =
          MakeOracleSlot(30 + 5 * trial, 4, indexed, 5100 + trial);
      const OracleRun run = ExpectMatchesHeapOracle(
          slot, 8, 2, /*scaled=*/false, 6100 + trial);
      EXPECT_FALSE(run.selected.empty());
    }
  }
}

TEST(LazyGreedyOracleTest, FrontierMatchesHeapAtTreeShapeEdges) {
  // Unindexed slots make every sensor a scan row, so these are the
  // frontier's leaf counts: 1, 2, 3 and both sides of each power of two.
  for (const int rows : {1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 128,
                         129, 256, 257}) {
    SCOPED_TRACE(testing::Message() << "rows " << rows);
    const SlotContext slot = MakeOracleSlot(rows, 1, false, 7100 + rows);
    ExpectMatchesHeapOracle(slot, 6, 2, /*scaled=*/rows % 2 == 1,
                            8100 + rows);
  }
}

}  // namespace
}  // namespace psens
