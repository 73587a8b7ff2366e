// The keyed valuation contract (core/multi_query.h): for every concrete
// MultiQuery type, bound on an indexed and an unindexed slot, the keyed
// batch kernel MarginalsAt(keys, out) must equal the counted
// sensor-addressed MarginalValue(sensor) bit for bit — including
// negative-marginal and zero-candidate sensors, before any commit and
// after every commit up to three (up to redundancy + 1 for the top-k
// query) — and must count no valuation call. Also pins the
// scratch hygiene of the candidate plan and the net evaluator: they must
// read no arena memory they did not write.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/arena.h"
#include "core/batch_eval.h"
#include "core/candidate_pruning.h"
#include "core/greedy.h"
#include "core/lazy_greedy.h"
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

/// Every key the query accepts, with the sensor each addresses: positions
/// in its candidate list, or every slot row for a dense query.
struct KeyedSensors {
  std::vector<int> keys;
  std::vector<int> sensors;
};

KeyedSensors AllKeys(const MultiQuery& query, const SlotContext& slot) {
  KeyedSensors out;
  const std::vector<int>* list = query.CandidateSensors();
  const int count = list != nullptr ? static_cast<int>(list->size())
                                    : static_cast<int>(slot.sensors.size());
  for (int k = 0; k < count; ++k) {
    out.keys.push_back(k);
    out.sensors.push_back(list != nullptr ? (*list)[static_cast<size_t>(k)]
                                          : k);
  }
  return out;
}

/// The contract check, against the query's *current* selection state:
/// keyed == counted scalar, bit for bit, in ascending and in reversed key
/// order, and the keyed kernel counts nothing.
void ExpectKeyedMatchesScalar(const MultiQuery& query, const SlotContext& slot,
                              const std::string& label) {
  const KeyedSensors all = AllKeys(query, slot);
  ASSERT_FALSE(all.keys.empty()) << label;
  std::vector<double> keyed(all.keys.size());
  std::vector<int> reversed_keys(all.keys.rbegin(), all.keys.rend());
  std::vector<double> reversed(all.keys.size());
  const int64_t calls_before = query.ValuationCalls();
  query.MarginalsAt(all.keys, keyed);
  query.MarginalsAt(reversed_keys, reversed);
  query.MarginalsAt({}, {});
  EXPECT_EQ(query.ValuationCalls(), calls_before)
      << label << ": keyed probes count";

  for (size_t i = 0; i < all.keys.size(); ++i) {
    const double scalar = query.MarginalValue(all.sensors[i]);
    // EXPECT_EQ, not NEAR: the kernel promises bit equality.
    EXPECT_EQ(keyed[i], scalar) << label << " key " << all.keys[i];
    EXPECT_EQ(reversed[all.keys.size() - 1 - i], scalar)
        << label << " reversed key " << all.keys[i];
  }
  EXPECT_EQ(query.ValuationCalls(),
            calls_before + static_cast<int64_t>(all.keys.size()))
      << label << ": the scalar probe counts one call each";
}

/// The keyed sensors whose marginal on the empty selection is positive —
/// the in-range, covering or otherwise live candidates — falling back to
/// every keyed sensor when none is (a degenerate query).
std::vector<int> LiveSensors(const MultiQuery& query, const SlotContext& slot) {
  const KeyedSensors all = AllKeys(query, slot);
  std::vector<int> live;
  for (int s : all.sensors) {
    if (query.MarginalValue(s) > 0.0) live.push_back(s);
  }
  return live.empty() ? all.sensors : live;
}

/// Commits the selection's next sensor: first the best scalar marginal,
/// then spread picks over the live sensors not yet selected, so every
/// commit is one the query values (a top-k query fills its quota
/// exactly, then overflows it).
void CommitNext(MultiQuery& query, const std::vector<int>& live, int depth) {
  const std::vector<int>& selected = query.SelectedSensors();
  const auto is_selected = [&](int s) {
    return std::find(selected.begin(), selected.end(), s) != selected.end();
  };
  if (selected.empty()) {
    int best = live.front();
    double best_delta = -1.0;
    for (int s : live) {
      const double delta = query.MarginalValue(s);
      if (delta > best_delta) {
        best_delta = delta;
        best = s;
      }
    }
    query.Commit(best, 1.0);
    return;
  }
  std::vector<int> open;
  for (int s : live) {
    if (!is_selected(s)) open.push_back(s);
  }
  ASSERT_FALSE(open.empty());
  const size_t pick = open.size() * selected.size() / static_cast<size_t>(depth + 1);
  query.Commit(open[std::min(pick, open.size() - 1)], 0.5);
}

using QueryFactory =
    std::function<std::unique_ptr<MultiQuery>(const SlotContext& slot)>;

/// Binds the factory's query on an indexed and an unindexed slot and
/// checks the contract before any commit and after every commit up to
/// `depth`. With `negative_after_best`, the instance must also produce a
/// negative keyed marginal once the best sensor is committed, so the
/// contract covers that case.
void CheckKeyedContract(const QueryFactory& make, const char* name,
                        int num_sensors, uint64_t seed, double side,
                        int depth = 3, bool negative_after_best = false) {
  for (bool indexed : {false, true}) {
    const SlotContext slot = MakeSlot(num_sensors, seed, indexed, side);
    const std::unique_ptr<MultiQuery> query = make(slot);
    const std::string label =
        std::string(name) + (indexed ? "/indexed" : "/unindexed");
    EXPECT_EQ(query->CandidateSensors() != nullptr,
              indexed && std::string(name) != "callback")
        << label;
    const std::vector<int> live = LiveSensors(*query, slot);
    ExpectKeyedMatchesScalar(*query, slot, label + "/0 commits");
    for (int c = 1; c <= depth; ++c) {
      CommitNext(*query, live, depth);
      ASSERT_EQ(query->SelectedSensors().size(), static_cast<size_t>(c))
          << label;
      ExpectKeyedMatchesScalar(*query, slot,
                               label + "/" + std::to_string(c) + " commits");
      if (c == 1 && negative_after_best) {
        const KeyedSensors all = AllKeys(*query, slot);
        std::vector<double> keyed(all.keys.size());
        query->MarginalsAt(all.keys, keyed);
        EXPECT_TRUE(std::any_of(keyed.begin(), keyed.end(),
                                [](double d) { return d < 0.0; }))
            << label << ": the instance should produce negative marginals";
      }
    }
  }
}

TEST(KeyedValuationTest, PointMultiQueryMatchesScalar) {
  CheckKeyedContract(
      [](const SlotContext& slot) {
        PointQuery spec;
        spec.id = 1;
        // Anchor the query on a real sensor so in-range candidates exist.
        spec.location = slot.sensors.Row(40).location;
        spec.budget = 15.0;
        spec.theta_min = 0.2;
        return std::make_unique<PointMultiQuery>(spec, &slot);
      },
      "point", 120, 11, 30.0, 3, /*negative_after_best=*/true);
}

TEST(KeyedValuationTest, MultiSensorPointQueryMatchesScalar) {
  CheckKeyedContract(
      [](const SlotContext& slot) {
        MultiSensorPointQuery::Params params;
        params.id = 2;
        params.location = slot.sensors.Row(50).location;
        params.budget = 20.0;
        params.theta_min = 0.1;
        params.redundancy = 3;
        return std::make_unique<MultiSensorPointQuery>(params, &slot);
      },
      // Every depth up to redundancy + 1: the top-k fills below, at and
      // past |S| == k, where the batch's O(k) merge could diverge.
      "topk", 150, 13, 30.0, /*depth=*/4);
}

TEST(KeyedValuationTest, MultiSensorPointQueryZeroRedundancy) {
  CheckKeyedContract(
      [](const SlotContext& slot) {
        MultiSensorPointQuery::Params params;
        params.id = 3;
        params.location = Point{10.0, 10.0};
        params.budget = 20.0;
        params.redundancy = 0;  // degenerate: valuation identically zero
        return std::make_unique<MultiSensorPointQuery>(params, &slot);
      },
      "topk0", 40, 17, 20.0);
}

TEST(KeyedValuationTest, AggregateQueryMatchesScalar) {
  CheckKeyedContract(
      [](const SlotContext& slot) {
        AggregateQuery::Params params;
        params.id = 4;
        params.region = Rect{10.0, 10.0, 30.0, 30.0};
        params.budget = 50.0;
        params.sensing_range = 10.0;
        params.cell_size = 2.0;
        return std::make_unique<AggregateQuery>(params, slot);
      },
      "aggregate", 80, 19, 40.0, 3, /*negative_after_best=*/true);
}

TEST(KeyedValuationTest, TrajectoryQueryMatchesScalar) {
  CheckKeyedContract(
      [](const SlotContext& slot) {
        AggregateQuery::TrajectoryParams params;
        params.id = 5;
        params.trajectory.waypoints = {Point{5.0, 5.0}, Point{20.0, 25.0},
                                       Point{35.0, 30.0}};
        params.budget = 40.0;
        params.sensing_range = 8.0;
        params.cell_size = 2.0;
        params.corridor = 3.0;
        return std::make_unique<AggregateQuery>(params, slot);
      },
      "trajectory", 80, 23, 40.0);
}

TEST(KeyedValuationTest, CallbackMultiQueryMatchesScalar) {
  CheckKeyedContract(
      [](const SlotContext&) {
        // Deliberately non-submodular, non-monotone set valuation.
        const auto valuation = [](const std::vector<int>& set) {
          double v = 0.0;
          for (int s : set) v += (s % 3 == 0) ? -2.0 : 5.0 + 0.25 * s;
          if (set.size() >= 2) v += 3.0;  // complementarity
          return v;
        };
        return std::make_unique<CallbackMultiQuery>(6, valuation, 100.0);
      },
      "callback", 40, 29, 40.0);
}

TEST(KeyedValuationTest, AggregateMarginalsGoNegativeAndZero) {
  // The cases the contract must cover do occur: after the best commit,
  // Eq. 5's mean-quality factor makes low-theta additions negative on
  // either slot, and on the unindexed slot — whose keys span every
  // sensor — a sensor covering no cell stays exactly 0.
  for (bool indexed : {false, true}) {
    const SlotContext slot = MakeSlot(80, 19, indexed);
    AggregateQuery::Params params;
    params.id = 4;
    params.region = Rect{10.0, 10.0, 30.0, 30.0};
    params.budget = 50.0;
    AggregateQuery query(params, slot);
    EXPECT_EQ(query.CandidateSensors() != nullptr, indexed);
    CommitNext(query, LiveSensors(query, slot), 1);
    const KeyedSensors all = AllKeys(query, slot);
    std::vector<double> keyed(all.keys.size());
    query.MarginalsAt(all.keys, keyed);
    EXPECT_TRUE(std::any_of(keyed.begin(), keyed.end(),
                            [](double d) { return d < 0.0; }))
        << (indexed ? "indexed" : "unindexed");
    if (!indexed) {
      EXPECT_TRUE(std::any_of(keyed.begin(), keyed.end(),
                              [](double d) { return d == 0.0; }));
    }
  }
}

/// Aggregate and trajectory queries on a sensor outside their candidate
/// list: the marginal is 0, yet a commit still grows |S| (diluting the
/// mean quality), and ValueOf counts it in |S|.
template <typename Query>
void ExpectNonCandidateGrowsSelection(Query& query, int outside, int inside) {
  const std::vector<int>& candidates = *query.CandidateSensors();
  ASSERT_FALSE(
      std::binary_search(candidates.begin(), candidates.end(), outside));
  ASSERT_TRUE(std::binary_search(candidates.begin(), candidates.end(), inside));
  EXPECT_EQ(query.MarginalValue(outside), 0.0);
  query.Commit(inside, 1.0);
  const double one = query.CurrentValue();
  ASSERT_GT(one, 0.0);
  EXPECT_EQ(query.MarginalValue(outside), 0.0);
  query.Commit(outside, 1.0);
  EXPECT_EQ(query.SelectedSensors().size(), 2u);
  EXPECT_EQ(query.CurrentValue(), one / 2.0);
  EXPECT_EQ(query.ValueOf({inside, outside}), one / 2.0);
  EXPECT_EQ(query.ValueOf({outside}), 0.0);
}

TEST(KeyedValuationTest, CoverageQueriesOnNonCandidateSensors) {
  SlotContext slot;
  slot.dmax = 8.0;
  slot.index_policy = SlotIndexPolicy::kGrid;
  for (int i = 0; i < 40; ++i) {
    SlotSensor s;
    s.sensor_id = i;
    // Sensor 0 sits far from every query; the rest cluster near (10, 10).
    s.location =
        i == 0 ? Point{90.0, 90.0} : Point{8.0 + 0.1 * i, 9.0 + 0.05 * i};
    s.cost = 5.0;
    s.inaccuracy = 0.1;
    s.trust = 0.9;
    slot.sensors.Append(s);
  }
  AttachSlotIndex(slot);
  ASSERT_NE(slot.index, nullptr);
  AggregateQuery::Params ap;
  ap.region = Rect{5.0, 5.0, 15.0, 15.0};
  ap.budget = 30.0;
  AggregateQuery aggregate(ap, slot);
  ExpectNonCandidateGrowsSelection(aggregate, 0, 5);
  AggregateQuery::TrajectoryParams tp;
  tp.trajectory.waypoints = {Point{6.0, 6.0}, Point{14.0, 12.0}};
  tp.budget = 30.0;
  AggregateQuery trajectory(tp, slot);
  ExpectNonCandidateGrowsSelection(trajectory, 0, 5);
}

// ---------------------------------------------------------------------------
// Scratch hygiene. BuildCandidatePlan and NetEvaluator take arena buffers
// without filling them (the member-sized row_of, the row-sized
// positive_sum_) and must read only entries they wrote. An arena poisoned
// with 0xFF bytes — NaN as a double, -1 as an int — must therefore
// reproduce, bit for bit, the runs over zero-initialized owned buffers
// (arena = nullptr).
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
  SlotArena arena(kPoisonBytes);
  SlotContext poisoned = slot;
  poisoned.arena = &arena;
  SlotContext clean = slot;
  clean.arena = nullptr;

  const struct {
    decltype(&EagerGreedySensorSelection) select;
    const char* label;
  } engines[] = {{LazyGreedySensorSelection, "lazy"},
                 {EagerGreedySensorSelection, "eager"},
                 {SieveStreamingSensorSelection, "sieve"}};
  for (const auto& e : engines) {
    PoisonArena(&arena);
    MixedBatch poisoned_batch(poisoned, area, 77);
    MixedBatch clean_batch(clean, area, 77);
    const SelectionResult a = e.select(poisoned_batch.all, poisoned, nullptr);
    const SelectionResult b = e.select(clean_batch.all, clean, nullptr);
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
        const bool unlisted = plan.RowOf(row) < 0;
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
  NetEvaluator evaluator(batch.all, plan, poisoned, nullptr);

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
      EXPECT_LT(plan.RowOf(s), 0) << "sensor " << s;
      EXPECT_LT(owned_plan.RowOf(s), 0) << "sensor " << s;
    }
  }
  ASSERT_GT(candidates, 0);
  ASSERT_LT(candidates, static_cast<int>(mix.size()));
  // Twice: the second call must not inherit the first call's sums.
  for (int round = 0; round < 2; ++round) {
    std::vector<double> net(mix.size());
    evaluator.EvaluateSensorNets(mix, net.data());
    for (size_t k = 0; k < mix.size(); ++k) {
      const int s = mix[k];
      if (listed[static_cast<size_t>(s)]) {
        EXPECT_EQ(net[k], evaluator.EvaluateSensorNet(s)) << "sensor " << s;
        EXPECT_EQ(net[k], evaluator.EvaluateRowNet(plan.RowOf(s)))
            << "sensor " << s;
      } else {
        EXPECT_EQ(net[k], -slot.sensors.cost[static_cast<size_t>(s)])
            << "sensor " << s;
      }
    }
  }
}

}  // namespace
}  // namespace psens
