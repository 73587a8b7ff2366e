// The candidate plan's keys (core/candidate_pruning.h): every (query, key)
// pair of a scan row must address that row's sensor in the query's own
// state — its position in the query's CandidateSensors() list, or the row
// itself for a dense query — including where the plan drops out-of-range
// list entries. Also pins that the debug pruning cross-check leaves every
// valuation-call count unchanged, so build flags cannot leak into
// outcomes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/batch_eval.h"
#include "core/candidate_pruning.h"
#include "core/greedy.h"
#include "core/multi_query.h"
#include "core/multi_sensor_point_query.h"
#include "core/slot.h"

namespace psens {
namespace {

SlotContext MakeSlot(int num_sensors, uint64_t seed, bool indexed) {
  Rng rng(seed);
  SlotContext slot;
  slot.time = 0;
  slot.dmax = 6.0;
  slot.index_policy = indexed ? SlotIndexPolicy::kGrid : SlotIndexPolicy::kNone;
  for (int i = 0; i < num_sensors; ++i) {
    SlotSensor s;
    s.sensor_id = i;
    s.location = Point{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)};
    s.cost = rng.Uniform(2.0, 8.0);
    s.inaccuracy = rng.Uniform(0.0, 0.3);
    s.trust = rng.Uniform(0.6, 1.0);
    slot.sensors.Append(s);
  }
  AttachSlotIndex(slot);
  return slot;
}

/// A query with a hand-built candidate list, valuing each listed sensor at
/// a fixed price (unlisted sensors: 0). It does not override MarginalsAt,
/// so it also exercises the base class's key resolution.
class ListedQuery : public MultiQueryBase {
 public:
  ListedQuery(int id, std::vector<int> list, int num_sensors)
      : MultiQueryBase(id), list_(std::move(list)), worth_(num_sensors, 0.0) {
    for (int s : list_) {
      if (s >= 0 && s < num_sensors) worth_[static_cast<size_t>(s)] = 20.0 + s;
    }
  }
  double MarginalValue(int sensor) const override {
    ++valuation_calls_;
    for (int s : selected_) {
      if (s == sensor) return 0.0;
    }
    return worth_[static_cast<size_t>(sensor)];
  }
  void Commit(int sensor, double payment) override {
    current_value_ += MarginalValue(sensor);
    --valuation_calls_;
    selected_.push_back(sensor);
    total_payment_ += payment;
  }
  double MaxValue() const override { return 1e9; }
  const std::vector<int>* CandidateSensors() const override { return &list_; }

 private:
  std::vector<int> list_;
  std::vector<double> worth_;
};

struct Batch {
  void Add(std::unique_ptr<MultiQuery> q) {
    all.push_back(q.get());
    owned.push_back(std::move(q));
  }
  std::vector<std::unique_ptr<MultiQuery>> owned;
  std::vector<MultiQuery*> all;
};

/// Point, multi-sensor point and aggregate queries bound to `slot`.
void AddSlotQueries(const SlotContext& slot, uint64_t seed, Batch* batch) {
  Rng rng(seed);
  for (int k = 0; k < 4; ++k) {
    PointQuery spec;
    spec.id = k;
    spec.location = Point{rng.Uniform(5.0, 45.0), rng.Uniform(5.0, 45.0)};
    spec.budget = 15.0;
    batch->Add(std::make_unique<PointMultiQuery>(spec, &slot));
  }
  MultiSensorPointQuery::Params mp;
  mp.id = 10;
  mp.location = Point{25.0, 25.0};
  mp.budget = 20.0;
  mp.redundancy = 2;
  batch->Add(std::make_unique<MultiSensorPointQuery>(mp, &slot));
  AggregateQuery::Params ap;
  ap.id = 11;
  ap.region = Rect{10.0, 10.0, 24.0, 20.0};
  ap.budget = 40.0;
  ap.sensing_range = 5.0;
  batch->Add(std::make_unique<AggregateQuery>(ap, slot));
}

/// Checks every pair's key against the row's sensor, every query's
/// key-to-row map against its list, and that each row's run ascends by
/// query.
void ExpectKeysResolve(const CandidatePlan& plan,
                       const std::vector<MultiQuery*>& queries, int num_sensors,
                       const std::string& label) {
  ASSERT_EQ(plan.num_queries, static_cast<int>(queries.size())) << label;
  int64_t pairs = 0;
  for (int row = 0; row < plan.NumRows(); ++row) {
    const int sensor = plan.sensors[static_cast<size_t>(row)];
    EXPECT_EQ(plan.RowOf(sensor), row) << label;
    int last_query = -1;
    plan.ForEachPair(row, [&](int qi, int key) {
      ++pairs;
      EXPECT_GT(qi, last_query) << label << " row " << row;
      last_query = qi;
      const std::vector<int>* list =
          queries[static_cast<size_t>(qi)]->CandidateSensors();
      if (list == nullptr) {
        EXPECT_TRUE(plan.IsDense(qi)) << label;
        EXPECT_EQ(key, row) << label << " dense query " << qi;
        EXPECT_EQ(sensor, row) << label << " dense rows are slot rows";
      } else {
        EXPECT_FALSE(plan.IsDense(qi)) << label;
        EXPECT_EQ(list->at(static_cast<size_t>(key)), sensor)
            << label << " query " << qi << " row " << row;
        EXPECT_EQ(plan.KeyRows(qi)[static_cast<size_t>(key)], row) << label;
      }
    });
  }
  // Every in-range list entry is exactly one pair; dropped entries map to
  // no row.
  int64_t expected = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::vector<int>* list = queries[qi]->CandidateSensors();
    if (list == nullptr) {
      expected += plan.NumRows();
      continue;
    }
    const std::span<const int> key_rows = plan.KeyRows(static_cast<int>(qi));
    ASSERT_EQ(key_rows.size(), list->size()) << label;
    for (size_t k = 0; k < list->size(); ++k) {
      const int s = (*list)[k];
      if (s >= 0 && s < num_sensors) {
        ++expected;
        EXPECT_EQ(plan.sensors[static_cast<size_t>(key_rows[k])], s) << label;
      } else {
        EXPECT_EQ(key_rows[k], -1) << label << " dropped entry " << k;
      }
    }
  }
  EXPECT_EQ(pairs, expected) << label;
}

TEST(CandidatePlanTest, KeysResolveToTheRowsSensor) {
  for (bool indexed : {true, false}) {
    const SlotContext slot = MakeSlot(600, 5, indexed);
    const int n = static_cast<int>(slot.sensors.size());
    Batch batch;
    AddSlotQueries(slot, 9, &batch);
    const CandidatePlan plan = BuildCandidatePlan(batch.all, n, nullptr);
    EXPECT_EQ(plan.active, indexed);
    ExpectKeysResolve(plan, batch.all, n, indexed ? "indexed" : "unindexed");
    if (indexed) {
      EXPECT_LT(plan.NumRows(), n) << "pruning should drop some sensors";
      for (int s = 0; s < n; ++s) {
        const int row = plan.RowOf(s);
        if (row >= 0) {
          EXPECT_EQ(plan.sensors[static_cast<size_t>(row)], s);
        }
      }
    } else {
      EXPECT_EQ(plan.NumRows(), n);
      for (int s = 0; s < n; ++s) EXPECT_EQ(plan.RowOf(s), s);
    }
  }
}

TEST(CandidatePlanTest, DenseQueryMakesEverySensorARow) {
  const SlotContext slot = MakeSlot(300, 7, true);
  const int n = static_cast<int>(slot.sensors.size());
  Batch batch;
  AddSlotQueries(slot, 3, &batch);
  batch.Add(std::make_unique<CallbackMultiQuery>(
      99, [](const std::vector<int>& set) { return 1.0 * set.size(); }, 1e9));
  const CandidatePlan plan = BuildCandidatePlan(batch.all, n, nullptr);
  ASSERT_TRUE(plan.active);
  EXPECT_EQ(plan.NumRows(), n);
  ExpectKeysResolve(plan, batch.all, n, "dense+listed");
}

TEST(CandidatePlanTest, KeysSurviveDroppedOutOfRangeEntries) {
  const int n = 64;
  const SlotContext slot = MakeSlot(n, 11, false);
  Batch batch;
  // Out-of-range ids sit before, between and after the valid ones, so a
  // key must count them: sensor 5 is key 2, sensor 9 key 3, sensor 40 key 5.
  batch.Add(std::make_unique<ListedQuery>(
      1, std::vector<int>{-7, n + 3, 5, 9, 1 << 20, 40, n}, n));
  batch.Add(std::make_unique<ListedQuery>(2, std::vector<int>{9, 12}, n));
  const CandidatePlan plan = BuildCandidatePlan(batch.all, n, nullptr);
  ASSERT_TRUE(plan.active);
  ASSERT_EQ(plan.NumRows(), 4);  // sensors 5, 9, 12, 40
  ExpectKeysResolve(plan, batch.all, n, "sanitized");
  const std::span<const CandidatePair> run9 = plan.PairsOf(plan.RowOf(9));
  ASSERT_EQ(run9.size(), 2u);
  EXPECT_EQ(run9[0].query, 0);
  EXPECT_EQ(run9[0].key, 3);
  EXPECT_EQ(run9[1].query, 1);
  EXPECT_EQ(run9[1].key, 0);

  // The evaluator's keyed nets equal the sensor-major reference sum.
  NetEvaluator evaluator(batch.all, plan, slot, nullptr);
  std::vector<int> rows = {0, 1, 2, 3};
  std::vector<double> net(rows.size());
  evaluator.EvaluateRowNets(rows, net.data());
  for (int row : rows) {
    const int s = plan.sensors[static_cast<size_t>(row)];
    double positive = 0.0;
    for (const MultiQuery* q : batch.all) {
      const double delta = q->MarginalValue(s);
      if (delta > 0.0) positive += delta;
    }
    EXPECT_EQ(net[static_cast<size_t>(row)],
              positive - slot.sensors.cost[static_cast<size_t>(s)])
        << "sensor " << s;
    EXPECT_EQ(evaluator.EvaluateRowNet(row), net[static_cast<size_t>(row)]);
  }
}

TEST(CandidatePlanTest, EvaluatorCountsEveryKeyOnceFlushed) {
  const SlotContext slot = MakeSlot(400, 13, true);
  const int n = static_cast<int>(slot.sensors.size());
  Batch batch;
  AddSlotQueries(slot, 21, &batch);
  const CandidatePlan plan = BuildCandidatePlan(batch.all, n, nullptr);
  NetEvaluator evaluator(batch.all, plan, slot, nullptr);
  std::vector<int> rows(static_cast<size_t>(plan.NumRows()));
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = static_cast<int>(r);
  std::vector<double> net(rows.size());
  evaluator.EvaluateRowNets(rows, net.data());
  evaluator.EvaluateRowNet(0);
  for (const MultiQuery* q : batch.all) EXPECT_EQ(q->ValuationCalls(), 0);
  evaluator.FlushValuationCalls();
  // One call per pair of the sweep, plus one per pair of row 0.
  std::vector<int64_t> expected(batch.all.size(), 0);
  for (size_t i = 0; i < plan.pairs.size(); ++i) {
    ++expected[static_cast<size_t>(plan.pairs[i].query)];
  }
  for (const CandidatePair& p : plan.PairsOf(0)) {
    ++expected[static_cast<size_t>(p.query)];
  }
  for (size_t qi = 0; qi < batch.all.size(); ++qi) {
    EXPECT_EQ(batch.all[qi]->ValuationCalls(), expected[qi]) << "query " << qi;
  }
  evaluator.FlushValuationCalls();  // idempotent once merged
  for (size_t qi = 0; qi < batch.all.size(); ++qi) {
    EXPECT_EQ(batch.all[qi]->ValuationCalls(), expected[qi]) << "query " << qi;
  }
}

TEST(CandidatePlanTest, UninterestedQueryCountsNoCallsInAnyBuild) {
  // One point query 500 units from every sensor (an empty candidate list)
  // beside queries that do buy sensors. The debug pruning cross-check
  // probes the far query after every commit; those probes must not count,
  // or Debug builds would report different valuation_calls than Release.
  for (GreedyEngine engine : {GreedyEngine::kLazy, GreedyEngine::kEager}) {
    const SlotContext slot = MakeSlot(64, 17, true);
    ASSERT_NE(slot.index, nullptr);
    Batch batch;
    AddSlotQueries(slot, 23, &batch);
    PointQuery far;
    far.id = 77;
    far.location = Point{550.0, 550.0};
    far.budget = 15.0;
    auto far_query = std::make_unique<PointMultiQuery>(far, &slot);
    const PointMultiQuery* far_ptr = far_query.get();
    batch.Add(std::move(far_query));
    ASSERT_NE(far_ptr->CandidateSensors(), nullptr);
    ASSERT_TRUE(far_ptr->CandidateSensors()->empty());

    const SelectionResult result =
        GreedySensorSelection(batch.all, slot, nullptr, engine);
    ASSERT_FALSE(result.selected_sensors.empty());
    EXPECT_EQ(far_ptr->ValuationCalls(), 0);
    int64_t total = 0;
    for (const MultiQuery* q : batch.all) total += q->ValuationCalls();
    EXPECT_EQ(result.valuation_calls, total);
  }
}

}  // namespace
}  // namespace psens
