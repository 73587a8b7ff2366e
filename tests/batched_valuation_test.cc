// The batched valuation contract (core/multi_query.h): for every concrete
// MultiQuery type, MarginalValues(sensors, out) must produce bit-identical
// values to per-sensor MarginalValue probes — including negative-marginal
// and pruned/zero-candidate sensors — and must account exactly the same
// number of valuation calls. Also pins the deferred-accounting split
// (MarginalValuesUncounted + AddValuationCalls) the parallel engines rely
// on, and the scratch hygiene of the candidate plan and the net evaluator:
// they must read no arena memory they did not write.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/arena.h"
#include "core/batch_eval.h"
#include "core/candidate_pruning.h"
#include "core/greedy.h"
#include "core/multi_query.h"
#include "core/multi_sensor_point_query.h"
#include "core/sensor_delta.h"
#include "core/sieve_streaming.h"
#include "core/slot.h"
#include "sim/workload.h"
#include "trace/slot_server.h"

namespace psens {
namespace {

SlotContext MakeSlot(int num_sensors, uint64_t seed, bool indexed,
                     double region_side = 40.0) {
  Rng rng(seed);
  SlotContext slot;
  slot.time = 0;
  slot.dmax = 8.0;
  slot.index_policy = indexed ? SlotIndexPolicy::kGrid : SlotIndexPolicy::kNone;
  for (int i = 0; i < num_sensors; ++i) {
    SlotSensor s;
    s.sensor_id = i;
    s.location = Point{rng.Uniform(0.0, region_side), rng.Uniform(0.0, region_side)};
    s.cost = rng.Uniform(5.0, 15.0);
    s.inaccuracy = rng.Uniform(0.0, 0.3);
    s.trust = rng.Uniform(0.6, 1.0);
    slot.sensors.Append(s);
  }
  AttachSlotIndex(slot);
  return slot;
}

std::vector<int> AllSensors(const SlotContext& slot) {
  std::vector<int> all;
  for (int s = 0; s < static_cast<int>(slot.sensors.size()); ++s) all.push_back(s);
  return all;
}

/// The contract check: batched == scalar, bit for bit, with identical
/// valuation-call accounting, against the query's *current* selection
/// state.
void ExpectBatchedMatchesScalar(const MultiQuery& query,
                                const std::vector<int>& sensors,
                                const char* label) {
  std::vector<double> scalar(sensors.size());
  const int64_t calls_before_scalar = query.ValuationCalls();
  for (size_t i = 0; i < sensors.size(); ++i) {
    scalar[i] = query.MarginalValue(sensors[i]);
  }
  const int64_t scalar_calls = query.ValuationCalls() - calls_before_scalar;

  std::vector<double> batched(sensors.size());
  const int64_t calls_before_batch = query.ValuationCalls();
  query.MarginalValues(std::span<const int>(sensors.data(), sensors.size()),
                       std::span<double>(batched.data(), batched.size()));
  const int64_t batch_calls = query.ValuationCalls() - calls_before_batch;

  ASSERT_EQ(scalar_calls, static_cast<int64_t>(sensors.size())) << label;
  EXPECT_EQ(batch_calls, scalar_calls) << label;
  for (size_t i = 0; i < sensors.size(); ++i) {
    // EXPECT_EQ, not NEAR: the batch API promises bit equality.
    EXPECT_EQ(batched[i], scalar[i]) << label << " sensor " << sensors[i];
  }
}

TEST(BatchedValuationTest, PointMultiQueryMatchesScalar) {
  for (bool indexed : {false, true}) {
    const SlotContext slot = MakeSlot(120, 11, indexed, 30.0);
    PointQuery spec;
    spec.id = 1;
    // Anchor the query on a real sensor so in-range candidates exist.
    spec.location = slot.sensors.Row(40).location;
    spec.budget = 15.0;
    spec.theta_min = 0.2;
    PointMultiQuery query(spec, &slot);
    const std::vector<int> all = AllSensors(slot);
    // Empty selection: marginals are raw values (out-of-range sensors 0).
    ExpectBatchedMatchesScalar(query, all, "point/empty");
    // Commit the best in-range sensor so later probes include *negative*
    // marginals (a worse sensor's value minus the committed best).
    int best = -1;
    double best_value = 0.0;
    for (int s : all) {
      const double v = PointQueryValue(spec, slot.sensors.Row(s), slot.dmax);
      if (v > best_value) {
        best_value = v;
        best = s;
      }
    }
    ASSERT_GE(best, 0);
    query.Commit(best, 1.0);
    bool saw_negative = false;
    for (int s : all) {
      if (query.MarginalValue(s) < 0.0) saw_negative = true;
    }
    EXPECT_TRUE(saw_negative) << "test instance should exercise negative marginals";
    ExpectBatchedMatchesScalar(query, all, "point/committed");
    // Pruned-candidate case: the indexed slot's candidate list excludes
    // far sensors, whose marginal must evaluate to a non-positive value
    // through both entry points.
    if (indexed) {
      ASSERT_NE(query.CandidateSensors(), nullptr);
    }
  }
}

TEST(BatchedValuationTest, MultiSensorPointQueryMatchesScalar) {
  for (bool indexed : {false, true}) {
    const SlotContext slot = MakeSlot(150, 13, indexed, 30.0);
    MultiSensorPointQuery::Params params;
    params.id = 2;
    params.location = slot.sensors.Row(50).location;
    params.budget = 20.0;
    params.theta_min = 0.1;
    params.redundancy = 3;
    MultiSensorPointQuery query(params, &slot);
    const std::vector<int> all = AllSensors(slot);
    ExpectBatchedMatchesScalar(query, all, "topk/empty");
    // Fill the redundancy quota one commit at a time, re-checking the
    // batch against the scalar at every selection depth (the top-k merge
    // is where the batched fast path could diverge).
    const std::vector<int>* candidates = query.CandidateSensors();
    const std::vector<int>& commit_from = candidates != nullptr ? *candidates : all;
    int committed = 0;
    for (int s : commit_from) {
      if (committed >= params.redundancy + 1) break;
      query.Commit(s, 0.5);
      ++committed;
      ExpectBatchedMatchesScalar(query, all, "topk/committed");
    }
    ASSERT_GT(committed, params.redundancy) << "quota should overflow top-k";
  }
}

TEST(BatchedValuationTest, MultiSensorPointQueryZeroRedundancy) {
  const SlotContext slot = MakeSlot(20, 17, false);
  MultiSensorPointQuery::Params params;
  params.id = 3;
  params.location = Point{10.0, 10.0};
  params.budget = 20.0;
  params.redundancy = 0;  // degenerate: valuation identically zero
  MultiSensorPointQuery query(params, &slot);
  ExpectBatchedMatchesScalar(query, AllSensors(slot), "topk/zero-redundancy");
}

TEST(BatchedValuationTest, AggregateQueryMatchesScalarIncludingNegative) {
  for (bool indexed : {false, true}) {
    const SlotContext slot = MakeSlot(80, 19, indexed);
    AggregateQuery::Params params;
    params.id = 4;
    params.region = Rect{10.0, 10.0, 30.0, 30.0};
    params.budget = 50.0;
    params.sensing_range = 10.0;
    params.cell_size = 2.0;
    AggregateQuery query(params, slot);
    const std::vector<int> all = AllSensors(slot);
    ExpectBatchedMatchesScalar(query, all, "aggregate/empty");
    // Commit the highest-theta covering sensor; Eq. 5's mean-quality
    // factor then makes low-theta additions *negative* marginals, and
    // non-covering sensors stay exactly 0 (the pruned-candidate case).
    int best = -1;
    double best_theta = -1.0;
    for (int s : all) {
      const double theta =
          (1.0 - slot.sensors.inaccuracy[s]) * slot.sensors.trust[s];
      if (query.MarginalValue(s) > 0.0 && theta > best_theta) {
        best_theta = theta;
        best = s;
      }
    }
    ASSERT_GE(best, 0);
    query.Commit(best, 1.0);
    bool saw_negative = false;
    bool saw_zero = false;
    for (int s : all) {
      const double delta = query.MarginalValue(s);
      if (delta < 0.0) saw_negative = true;
      if (delta == 0.0) saw_zero = true;
    }
    EXPECT_TRUE(saw_negative) << "Eq. 5 non-monotonicity should appear";
    EXPECT_TRUE(saw_zero) << "non-covering sensors should stay exactly zero";
    ExpectBatchedMatchesScalar(query, all, "aggregate/committed");
  }
}

TEST(BatchedValuationTest, TrajectoryQueryMatchesScalar) {
  for (bool indexed : {false, true}) {
    const SlotContext slot = MakeSlot(80, 23, indexed);
    TrajectoryQuery::Params params;
    params.id = 5;
    params.trajectory.waypoints = {Point{5.0, 5.0}, Point{20.0, 25.0},
                                   Point{35.0, 30.0}};
    params.budget = 40.0;
    params.sensing_range = 8.0;
    params.cell_size = 2.0;
    params.corridor = 3.0;
    TrajectoryQuery query(params, slot);
    const std::vector<int> all = AllSensors(slot);
    ExpectBatchedMatchesScalar(query, all, "trajectory/empty");
    for (int s : all) {
      if (query.MarginalValue(s) > 0.0) {
        query.Commit(s, 1.0);
        break;
      }
    }
    ExpectBatchedMatchesScalar(query, all, "trajectory/committed");
  }
}

TEST(BatchedValuationTest, CallbackMultiQueryMatchesScalar) {
  const SlotContext slot = MakeSlot(12, 29, false);
  // Deliberately non-submodular, non-monotone set valuation.
  const auto valuation = [](const std::vector<int>& set) {
    double v = 0.0;
    for (int s : set) v += (s % 3 == 0) ? -2.0 : 5.0 + 0.25 * s;
    if (set.size() >= 2) v += 3.0;  // complementarity
    return v;
  };
  CallbackMultiQuery query(6, valuation, 100.0);
  const std::vector<int> all = AllSensors(slot);
  ExpectBatchedMatchesScalar(query, all, "callback/empty");
  query.Commit(4, 1.0);
  query.Commit(7, 1.0);
  ExpectBatchedMatchesScalar(query, all, "callback/committed");
}

TEST(BatchedValuationTest, DeferredAccountingMergesExactly) {
  // The parallel engines call MarginalValuesUncounted from workers and
  // merge counts via AddValuationCalls at batch end; the sum must equal
  // the counted entry point exactly.
  const SlotContext slot = MakeSlot(30, 31, true);
  PointQuery spec;
  spec.id = 7;
  spec.location = Point{15.0, 15.0};
  spec.budget = 15.0;
  PointMultiQuery query(spec, &slot);
  const std::vector<int> all = AllSensors(slot);
  std::vector<double> out(all.size());

  const int64_t before = query.ValuationCalls();
  query.MarginalValuesUncounted(std::span<const int>(all.data(), all.size()),
                                std::span<double>(out.data(), out.size()));
  EXPECT_EQ(query.ValuationCalls(), before) << "uncounted probe must not count";
  query.AddValuationCalls(static_cast<int64_t>(all.size()));
  EXPECT_EQ(query.ValuationCalls(),
            before + static_cast<int64_t>(all.size()));

  // Empty batches are no-ops on values and accounting.
  const int64_t before_empty = query.ValuationCalls();
  query.MarginalValues(std::span<const int>(), std::span<double>());
  EXPECT_EQ(query.ValuationCalls(), before_empty);
}

// ---------------------------------------------------------------------------
// Scratch hygiene. BuildCandidatePlan and NetEvaluator take member-sized
// arena buffers (row_of, mark_, positive_sum_) without filling them and
// must read only entries they wrote. An arena poisoned with 0xFF bytes —
// NaN as a double, -1 as an int — must therefore reproduce, bit for bit,
// the runs over zero-initialized owned buffers (arena = nullptr).
// ---------------------------------------------------------------------------

/// Far past the high-water mark of any slot below; the arena's one chunk
/// holds it, so every allocation lands in poisoned memory.
constexpr size_t kPoisonBytes = size_t{1} << 20;

void PoisonArena(SlotArena* arena) {
  arena->Reset();
  std::memset(arena->Allocate(kPoisonBytes), 0xFF, kPoisonBytes);
  arena->Reset();
}

/// A registry of `count` sensors placed uniformly in a 60 x 60 field.
std::vector<Sensor> MakeRegistry(int count, uint64_t seed) {
  SensorPopulationConfig population;
  population.count = count;
  Rng rng(seed);
  std::vector<Sensor> sensors = GenerateSensors(population, rng);
  for (Sensor& s : sensors) {
    s.SetPosition(Point{rng.Uniform(0.0, 60.0), rng.Uniform(0.0, 60.0)}, true);
  }
  return sensors;
}

/// A mixed query batch (point, multi-sensor point, aggregate) bound to
/// one slot, all inside `area`: sensors well outside it are listed by no
/// query.
struct MixedBatch {
  MixedBatch(const SlotContext& slot, const Rect& area, uint64_t seed) {
    Rng rng(seed);
    for (const PointQuery& p : GeneratePointQueries(
             12, area, BudgetScheme{15.0, false, 0.0}, 0.2, 100, rng)) {
      Add(std::make_unique<PointMultiQuery>(p, &slot));
    }
    for (int k = 0; k < 3; ++k) {
      MultiSensorPointQuery::Params mp;
      mp.id = 500 + k;
      mp.location = Point{rng.Uniform(area.x_min, area.x_max),
                          rng.Uniform(area.y_min, area.y_max)};
      mp.budget = 20.0;
      mp.redundancy = 2;
      Add(std::make_unique<MultiSensorPointQuery>(mp, &slot));
    }
    for (const AggregateQuery::Params& p :
         GenerateAggregateQueries(3, area, 6.0, 15.0, 400, rng)) {
      Add(std::make_unique<AggregateQuery>(p, slot));
    }
  }
  void Add(std::unique_ptr<MultiQuery> q) {
    all.push_back(q.get());
    owned.push_back(std::move(q));
  }
  std::vector<std::unique_ptr<MultiQuery>> owned;
  std::vector<MultiQuery*> all;
};

/// SameOutcome over one selection, plus the per-query payments and call
/// counts it sums.
void ExpectSameSelection(const SelectionResult& poisoned,
                         const MixedBatch& poisoned_batch,
                         const SelectionResult& clean,
                         const MixedBatch& clean_batch, const char* label) {
  SlotOutcome a;
  SlotOutcome b;
  a.selection = poisoned;
  b.selection = clean;
  for (const MultiQuery* q : poisoned_batch.all) a.total_payment += q->TotalPayment();
  for (const MultiQuery* q : clean_batch.all) b.total_payment += q->TotalPayment();
  EXPECT_TRUE(SameOutcome(a, b)) << label;
  EXPECT_FALSE(clean.selected_sensors.empty()) << label;
  ASSERT_EQ(poisoned_batch.all.size(), clean_batch.all.size()) << label;
  for (size_t i = 0; i < clean_batch.all.size(); ++i) {
    EXPECT_EQ(poisoned_batch.all[i]->TotalPayment(),
              clean_batch.all[i]->TotalPayment())
        << label << " query " << i;
    EXPECT_EQ(poisoned_batch.all[i]->ValuationCalls(),
              clean_batch.all[i]->ValuationCalls())
        << label << " query " << i;
  }
}

TEST(ScratchHygieneTest, PoisonedArenaMatchesOwnedBuffersForEveryEngine) {
  const Rect field{0, 0, 60, 60};
  const Rect area{0, 0, 25, 60};
  const SlotContext slot =
      BuildSlotContext(MakeRegistry(1200, 41), field, 0, 8.0);
  ASSERT_NE(slot.index, nullptr);
  ASSERT_TRUE(slot.use_soa);
  SlotArena arena(kPoisonBytes);
  SlotContext poisoned = slot;
  poisoned.arena = &arena;
  SlotContext clean = slot;
  clean.arena = nullptr;

  const struct {
    GreedyEngine engine;
    const char* label;
  } engines[] = {{GreedyEngine::kLazy, "lazy"},
                 {GreedyEngine::kEager, "eager"},
                 {GreedyEngine::kStochastic, "stochastic"},
                 {GreedyEngine::kSieve, "sieve"}};
  for (const auto& e : engines) {
    PoisonArena(&arena);
    MixedBatch poisoned_batch(poisoned, area, 77);
    MixedBatch clean_batch(clean, area, 77);
    const SelectionResult a =
        GreedySensorSelection(poisoned_batch.all, poisoned, nullptr, e.engine);
    const SelectionResult b =
        GreedySensorSelection(clean_batch.all, clean, nullptr, e.engine);
    EXPECT_EQ(arena.chunk_count(), 1u) << e.label << ": spilled past the poison";
    ExpectSameSelection(a, poisoned_batch, b, clean_batch, e.label);
  }
}

TEST(ScratchHygieneTest, SieveDeltaWithArrivalsNoQueryListsMatches) {
  const Rect field{0, 0, 60, 60};
  const Rect areas[] = {{0, 0, 25, 25}, {0, 35, 25, 60}};
  std::vector<Sensor> registry = MakeRegistry(1200, 43);
  // Sensors 0..19 start absent and arrive next slot in the far corner,
  // beyond every query's reach.
  SensorDelta arrivals;
  for (int id = 0; id < 20; ++id) {
    registry[id].SetPosition(registry[id].position(), false);
    arrivals.arrivals.push_back(
        SensorDelta::Placement{id, Point{55.0 + 0.2 * id, 58.0 - 0.1 * id}});
  }
  const SlotContext slot0 = BuildSlotContext(registry, field, 0, 8.0);
  for (const SensorDelta::Placement& a : arrivals.arrivals) {
    registry[a.sensor_id].SetPosition(a.position, true);
  }
  const SlotContext slot1 = BuildSlotContext(registry, field, 1, 8.0);

  SlotArena arena(kPoisonBytes);
  SieveStreamingScheduler poisoned_sieve;
  SieveStreamingScheduler clean_sieve;
  const SlotContext* slots[] = {&slot0, &slot1};
  const SensorDelta deltas[] = {SensorDelta{}, arrivals};
  std::vector<int> carried;  // slot 0's winners, by global id
  for (int t = 0; t < 2; ++t) {
    SlotContext poisoned = *slots[t];
    poisoned.arena = &arena;
    SlotContext clean = *slots[t];
    clean.arena = nullptr;
    PoisonArena(&arena);
    // Slot 1's batch sits in the other half of `area`, so carried bucket
    // members are listed by no query of slot 1.
    MixedBatch poisoned_batch(poisoned, areas[t], 90 + t);
    MixedBatch clean_batch(clean, areas[t], 90 + t);
    if (t == 1) {
      const CandidatePlan plan = BuildCandidatePlan(
          clean_batch.all, static_cast<int>(clean.sensors.size()), nullptr);
      ASSERT_TRUE(plan.active);
      int unlisted_arrivals = 0;
      int unlisted_carried = 0;
      for (int row = 0; row < static_cast<int>(clean.sensors.size()); ++row) {
        const int id = clean.sensors.sensor_id[row];
        const bool unlisted = plan.QueriesOf(row).empty();
        if (id < 20 && unlisted) ++unlisted_arrivals;
        if (unlisted &&
            std::find(carried.begin(), carried.end(), id) != carried.end()) {
          ++unlisted_carried;
        }
      }
      EXPECT_EQ(unlisted_arrivals, 20);
      EXPECT_GT(unlisted_carried, 0);
    }
    const SelectionResult a =
        poisoned_sieve.SelectDelta(poisoned_batch.all, poisoned, deltas[t]);
    const SelectionResult b =
        clean_sieve.SelectDelta(clean_batch.all, clean, deltas[t]);
    EXPECT_EQ(arena.chunk_count(), 1u) << "slot " << t;
    ExpectSameSelection(a, poisoned_batch, b, clean_batch,
                        t == 0 ? "sieve full" : "sieve delta");
    carried = clean_sieve.winner_members();
  }
}

TEST(ScratchHygieneTest, NonCandidatesGetNoQueriesAndNetMinusCost) {
  const Rect field{0, 0, 60, 60};
  const SlotContext slot =
      BuildSlotContext(MakeRegistry(1200, 47), field, 0, 8.0);
  SlotArena arena(kPoisonBytes);
  PoisonArena(&arena);
  SlotContext poisoned = slot;
  poisoned.arena = &arena;
  MixedBatch batch(poisoned, Rect{0, 0, 25, 60}, 53);
  const int n = static_cast<int>(slot.sensors.size());
  const CandidatePlan plan = BuildCandidatePlan(batch.all, n, &arena);
  const CandidatePlan owned_plan = BuildCandidatePlan(batch.all, n, nullptr);
  ASSERT_TRUE(plan.active);
  NetEvaluator evaluator(batch.all, plan, poisoned, nullptr, nullptr);

  // Every other sensor, so the eval set mixes candidates (the left part)
  // and non-candidates (the right part) in ascending order.
  std::vector<int> mix;
  std::vector<char> listed(static_cast<size_t>(n), 0);
  for (int s : plan.ScanSensors()) listed[static_cast<size_t>(s)] = 1;
  int candidates = 0;
  for (int s = 0; s < n; s += 2) {
    mix.push_back(s);
    if (listed[static_cast<size_t>(s)]) {
      ++candidates;
    } else {
      EXPECT_TRUE(plan.QueriesOf(s).empty()) << "sensor " << s;
      EXPECT_TRUE(owned_plan.QueriesOf(s).empty()) << "sensor " << s;
    }
  }
  ASSERT_GT(candidates, 0);
  ASSERT_LT(candidates, static_cast<int>(mix.size()));
  // Twice: the second call must not inherit the first call's sums.
  for (int round = 0; round < 2; ++round) {
    std::vector<double> net(mix.size());
    evaluator.EvaluateNets(mix, net.data());
    for (size_t k = 0; k < mix.size(); ++k) {
      const int s = mix[k];
      if (listed[static_cast<size_t>(s)]) {
        EXPECT_EQ(net[k], evaluator.EvaluateNet(s)) << "sensor " << s;
      } else {
        EXPECT_EQ(net[k], -slot.sensors.cost[static_cast<size_t>(s)])
            << "sensor " << s;
      }
    }
  }
}

}  // namespace
}  // namespace psens
