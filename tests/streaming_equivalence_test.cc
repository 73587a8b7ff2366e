// The streaming engine's contract (docs/ARCHITECTURE.md, "Engine layer"):
// an AcquisitionEngine repairing its slot context and dynamic index from
// deltas is *bit-identical* — same SlotContext, same selections, payments
// and ValuationCalls — to the per-slot rebuild reference, BuildSlotContext
// over the engine's own registry, across schedulers, under zero churn
// (mobility trace only) and under full churn streams, including feedback
// populations whose announced costs drift with readings (privacy decay,
// linear energy, wear-out). Also covered here: the ServingConfig::Validate
// contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/multi_query.h"
#include "core/point_scheduling.h"
#include "core/slot.h"
#include "engine/acquisition_engine.h"
#include "engine/serving_config.h"
#include "mobility/random_waypoint.h"
#include "sim/workload.h"
#include "trace/closed_loop.h"
#include "trace/slot_server.h"
#include "trace/trace_reader.h"

namespace psens {
namespace {

/// Field-exact SlotContext equality (all six columns, row order, index
/// presence). The index *structures* may differ internally — exactness of
/// their result sets is pinned by spatial_index_test — but indexed-ness
/// must agree so schedulers take identical code paths.
void ExpectSameContext(const SlotContext& a, const SlotContext& b, int slot) {
  ASSERT_EQ(a.time, b.time) << "slot " << slot;
  ASSERT_EQ(a.dmax, b.dmax) << "slot " << slot;
  ASSERT_EQ(a.sensors.size(), b.sensors.size()) << "slot " << slot;
  ASSERT_EQ(a.index == nullptr, b.index == nullptr) << "slot " << slot;
  const SlotSensorTable& x = a.sensors;
  const SlotSensorTable& y = b.sensors;
  // Each column is compared at its own size, so a repair that leaves one
  // column short or long fails here, not only through a mismatched row.
  ASSERT_EQ(x.sensor_id, y.sensor_id) << "slot " << slot;
  ASSERT_EQ(x.x, y.x) << "slot " << slot;
  ASSERT_EQ(x.y, y.y) << "slot " << slot;
  ASSERT_EQ(x.cost, y.cost) << "slot " << slot;
  ASSERT_EQ(x.inaccuracy, y.inaccuracy) << "slot " << slot;
  ASSERT_EQ(x.trust, y.trust) << "slot " << slot;
}

void ExpectSameSchedule(const PointScheduleResult& a,
                        const PointScheduleResult& b, int slot) {
  ASSERT_EQ(a.selected_sensors, b.selected_sensors) << "slot " << slot;
  ASSERT_EQ(a.total_value, b.total_value) << "slot " << slot;
  ASSERT_EQ(a.total_cost, b.total_cost) << "slot " << slot;
  ASSERT_EQ(a.assignments.size(), b.assignments.size()) << "slot " << slot;
  for (size_t i = 0; i < a.assignments.size(); ++i) {
    ASSERT_EQ(a.assignments[i].sensor, b.assignments[i].sensor) << "slot " << slot;
    ASSERT_EQ(a.assignments[i].value, b.assignments[i].value) << "slot " << slot;
    ASSERT_EQ(a.assignments[i].payment, b.assignments[i].payment)
        << "slot " << slot;
  }
}

ServingConfig MakeConfig(const Rect& region, double dmax) {
  ServingConfig config;
  config.working_region = region;
  config.dmax = dmax;
  return config;
}

/// Sensor populations covering every announced-cost regime: fixed price,
/// privacy decay, linear energy with short lifetimes (wear-out).
std::vector<SensorPopulationConfig> Populations(int count) {
  SensorPopulationConfig fixed;
  fixed.count = count;
  SensorPopulationConfig privacy = fixed;
  privacy.random_privacy = true;
  SensorPopulationConfig energy = fixed;
  energy.linear_energy = true;
  energy.lifetime = 6;  // wears sensors out mid-run
  return {fixed, privacy, energy};
}

TEST(StreamingEquivalenceTest, TraceDrivenSlotsMatchRebuildAcrossSchedulers) {
  const Rect region{0, 0, 40, 40};
  RandomWaypointConfig mobility;
  mobility.num_sensors = 120;
  mobility.num_slots = 10;
  mobility.region_size = 40;
  mobility.region_height = 40;
  mobility.seed = 11;
  const Trace trace = GenerateRandomWaypoint(mobility);

  const PointScheduler schedulers[] = {
      PointScheduler::kLocalSearch, PointScheduler::kBaseline,
      PointScheduler::kRandomizedLocalSearch, PointScheduler::kOptimal};
  for (const SensorPopulationConfig& population : Populations(120)) {
    Rng rng(7);
    const std::vector<Sensor> sensors = GenerateSensors(population, rng);
    AcquisitionEngine engine(sensors, MakeConfig(region, 5.0));
    Rng query_rng(99);
    for (int t = 0; t < trace.NumSlots(); ++t) {
      engine.ApplyTrace(trace, t);
      const SlotContext& inc_slot = engine.BeginSlot(t);
      const SlotContext reb_slot =
          BuildSlotContext(engine.sensors(), region, t, 5.0);
      ExpectSameContext(inc_slot, reb_slot, t);

      const std::vector<PointQuery> queries = GeneratePointQueries(
          30, region, BudgetScheme{15.0, false, 0.0}, 0.2, t * 30, query_rng);
      PointSchedulingOptions options;
      options.scheduler = schedulers[t % 4];
      options.seed = 1234 + static_cast<uint64_t>(t);
      const PointScheduleResult inc_result =
          SchedulePointQueries(queries, inc_slot, options);
      const PointScheduleResult reb_result =
          SchedulePointQueries(queries, reb_slot, options);
      ExpectSameSchedule(inc_result, reb_result, t);

      // Readings feed back so announced costs drift (wear-out, privacy).
      engine.RecordSlotReadings(inc_result.selected_sensors, t);
    }
  }
}

TEST(StreamingEquivalenceTest, ChurnStreamsMatchRebuild) {
  const int count = 1500;
  const Rect field{0, 0, 80, 80};
  ClusteredPopulationConfig cluster;
  cluster.count = count;
  cluster.num_clusters = 8;
  cluster.cluster_sigma = 6.0;
  for (SensorPopulationConfig population : Populations(count)) {
    ClusteredPopulationConfig config = cluster;
    config.profile = population;
    Rng rng(21);
    const ScaleScenario scenario = GenerateClusteredSensors(config, field, rng);

    ChurnConfig churn;
    churn.arrival_rate = 30;
    churn.departure_rate = 30;
    churn.move_fraction = 0.02;
    churn.price_jitter_fraction = 0.01;
    AcquisitionEngine engine(scenario.sensors, MakeConfig(field, 5.0));
    ChurnStream stream(churn, scenario.sensors, field);
    stream.SetClusteredPlacement(&scenario, &config);
    Rng churn_rng(5);
    Rng query_rng(77);
    for (int t = 0; t < 15; ++t) {
      ASSERT_TRUE(engine.ApplyDelta(stream.Next(churn_rng)));
      const SlotContext& inc_slot = engine.BeginSlot(t);
      const SlotContext reb_slot =
          BuildSlotContext(engine.sensors(), field, t, 5.0);
      ExpectSameContext(inc_slot, reb_slot, t);

      const std::vector<PointQuery> queries = GeneratePointQueries(
          40, field, BudgetScheme{15.0, false, 0.0}, 0.2, t * 40, query_rng);
      PointSchedulingOptions options;
      options.scheduler =
          t % 2 == 0 ? PointScheduler::kLocalSearch : PointScheduler::kBaseline;
      options.seed = 4321 + static_cast<uint64_t>(t);
      const PointScheduleResult inc_result =
          SchedulePointQueries(queries, inc_slot, options);
      const PointScheduleResult reb_result =
          SchedulePointQueries(queries, reb_slot, options);
      ExpectSameSchedule(inc_result, reb_result, t);
      engine.RecordSlotReadings(inc_result.selected_sensors, t);
    }
  }
}

TEST(StreamingEquivalenceTest, GreedyEnginesMatchIncludingValuationCalls) {
  const int count = 600;
  const Rect field{0, 0, 60, 60};
  ClusteredPopulationConfig config;
  config.count = count;
  config.num_clusters = 5;
  config.cluster_sigma = 5.0;
  Rng rng(31);
  const ScaleScenario scenario = GenerateClusteredSensors(config, field, rng);

  ChurnConfig churn;
  churn.arrival_rate = 20;
  churn.departure_rate = 20;
  churn.move_fraction = 0.05;
  AcquisitionEngine engine(scenario.sensors, MakeConfig(field, 8.0));
  ChurnStream stream(churn, scenario.sensors, field);
  Rng churn_rng(9);
  Rng query_rng(55);
  for (int t = 0; t < 8; ++t) {
    ASSERT_TRUE(engine.ApplyDelta(stream.Next(churn_rng)));
    const SlotContext& inc_slot = engine.BeginSlot(t);
    const SlotContext reb_slot =
        BuildSlotContext(engine.sensors(), field, t, 8.0);
    ExpectSameContext(inc_slot, reb_slot, t);

    const std::vector<AggregateQuery::Params> params =
        GenerateAggregateQueries(8, field, 8.0, 15.0, t * 100, query_rng);
    using SelectFn = decltype(&EagerGreedySensorSelection);
    for (SelectFn select :
         {LazyGreedySensorSelection, EagerGreedySensorSelection}) {
      std::vector<std::unique_ptr<AggregateQuery>> inc_queries;
      std::vector<std::unique_ptr<AggregateQuery>> reb_queries;
      std::vector<MultiQuery*> inc_ptrs;
      std::vector<MultiQuery*> reb_ptrs;
      for (const AggregateQuery::Params& p : params) {
        inc_queries.push_back(std::make_unique<AggregateQuery>(p, inc_slot));
        inc_ptrs.push_back(inc_queries.back().get());
        reb_queries.push_back(std::make_unique<AggregateQuery>(p, reb_slot));
        reb_ptrs.push_back(reb_queries.back().get());
      }
      const SelectionResult inc_sel = select(inc_ptrs, inc_slot, nullptr);
      const SelectionResult reb_sel = select(reb_ptrs, reb_slot, nullptr);
      ASSERT_EQ(inc_sel.selected_sensors, reb_sel.selected_sensors) << t;
      ASSERT_EQ(inc_sel.total_value, reb_sel.total_value) << t;
      ASSERT_EQ(inc_sel.total_cost, reb_sel.total_cost) << t;
      ASSERT_EQ(inc_sel.valuation_calls, reb_sel.valuation_calls) << t;
      for (size_t q = 0; q < inc_queries.size(); ++q) {
        ASSERT_EQ(inc_queries[q]->TotalPayment(), reb_queries[q]->TotalPayment())
            << t;
      }
    }
  }
}

TEST(StreamingEquivalenceTest, ColdBuildMatchesBuildSlotContext) {
  SensorPopulationConfig population;
  population.count = 80;
  Rng rng(3);
  std::vector<Sensor> sensors = GenerateSensors(population, rng);
  for (Sensor& s : sensors) {
    s.SetPosition(Point{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)}, true);
  }
  const Rect region{0, 0, 20, 20};
  AcquisitionEngine engine(sensors, MakeConfig(region, 5.0));
  const SlotContext& from_engine = engine.BeginSlot(4);
  const SlotContext direct = BuildSlotContext(sensors, region, 4, 5.0);
  ExpectSameContext(from_engine, direct, 4);
}

TEST(StreamingEquivalenceTest, DepartedSensorsLeaveTheSlot) {
  SensorPopulationConfig population;
  population.count = 50;
  Rng rng(13);
  std::vector<Sensor> sensors = GenerateSensors(population, rng);
  for (Sensor& s : sensors) {
    s.SetPosition(Point{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)}, true);
  }
  AcquisitionEngine engine(sensors, MakeConfig(Rect{0, 0, 20, 20}, 5.0));
  ASSERT_EQ(engine.BeginSlot(0).sensors.size(), 50u);

  SensorDelta delta;
  delta.departures = {7, 30, 49};
  engine.ApplyDelta(delta);
  const SlotContext& after = engine.BeginSlot(1);
  EXPECT_EQ(after.sensors.size(), 47u);
  for (int id : after.sensors.sensor_id) {
    EXPECT_NE(id, 7);
    EXPECT_NE(id, 30);
    EXPECT_NE(id, 49);
  }

  // Re-arrival restores membership at the announced location.
  SensorDelta back;
  back.arrivals.push_back(SensorDelta::Placement{30, Point{3.0, 4.0}});
  engine.ApplyDelta(back);
  const SlotContext& restored = engine.BeginSlot(2);
  EXPECT_EQ(restored.sensors.size(), 48u);
  bool found = false;
  for (size_t i = 0; i < restored.sensors.size(); ++i) {
    const SlotSensor s = restored.sensors.Row(i);
    if (s.sensor_id == 30) {
      found = true;
      EXPECT_EQ(s.location.x, 3.0);
      EXPECT_EQ(s.location.y, 4.0);
    }
  }
  EXPECT_TRUE(found);
}

// The engine keeps its changed set as one bit per registry id and sweeps
// it word by word. Ids 0, 63, 64, 127, 128 and 129 sit on every 64-bit
// word edge of a 130-sensor registry, whose last word is partial; each is
// touched in one slot, several through more than one delta kind plus a
// reading, and the repaired context must equal a fresh build.
TEST(StreamingEquivalenceTest, ChangedBitSweepCoversWordEdges) {
  SensorPopulationConfig population;
  population.count = 130;
  population.random_privacy = true;
  population.linear_energy = true;
  Rng rng(59);
  std::vector<Sensor> sensors = GenerateSensors(population, rng);
  for (Sensor& s : sensors) {
    s.SetPosition(Point{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)}, true);
  }
  // 64 and 129 start outside the slot so this slot can bring them in.
  sensors[64].SetPosition(sensors[64].position(), false);
  sensors[129].SetPosition(sensors[129].position(), false);
  const Rect region{0, 0, 20, 20};
  AcquisitionEngine engine(sensors, MakeConfig(region, 5.0));
  ExpectSameContext(engine.BeginSlot(0),
                    BuildSlotContext(engine.sensors(), region, 0, 5.0), 0);

  engine.RecordReadings({0, 63, 127, 128}, 0);
  SensorDelta delta;
  delta.arrivals = {{64, Point{1.0, 2.0}}, {129, Point{19.5, 19.5}}};
  delta.departures = {63, 128};
  delta.moves = {{0, Point{10.0, 10.0}},
                 {64, Point{3.0, 4.0}},
                 {127, Point{0.5, 0.5}}};
  delta.price_changes = {{0, 3.5}, {63, 7.0}, {127, 9.0}, {129, 2.25}};
  engine.ApplyDelta(delta);
  const SlotContext& slot = engine.BeginSlot(1);
  ExpectSameContext(slot, BuildSlotContext(engine.sensors(), region, 1, 5.0),
                    1);
  const std::vector<int>& members = slot.sensors.sensor_id;
  for (int id : {0, 64, 127, 129}) {
    EXPECT_TRUE(std::find(members.begin(), members.end(), id) != members.end())
        << "sensor " << id;
  }
  for (int id : {63, 128}) {
    EXPECT_TRUE(std::find(members.begin(), members.end(), id) == members.end())
        << "sensor " << id;
  }

  // The sweep cleared every word: a quiet slot, then the edges again.
  ExpectSameContext(engine.BeginSlot(2),
                    BuildSlotContext(engine.sensors(), region, 2, 5.0), 2);
  SensorDelta back;
  back.arrivals = {{63, Point{5.0, 6.0}}, {128, Point{7.0, 8.0}}};
  back.departures = {0, 129};
  back.price_changes = {{64, 4.5}};
  engine.RecordReadings({64, 127}, 2);
  engine.ApplyDelta(back);
  ExpectSameContext(engine.BeginSlot(3),
                    BuildSlotContext(engine.sensors(), region, 3, 5.0), 3);
}

// The in-place membership merge at its boundaries: an arrival at the
// first row while the last row departs (every surviving row shifts right
// by one), the reverse (every row shifts left), spaced departures (runs
// each moving further left), spaced arrivals followed by a block of
// departures (runs each moving further right, then one moving left: the
// right-moving runs must move last-first, or one overwrites the next
// run's rows), spaced arrivals up to the end, arrivals and departures
// interleaved, a slot that empties the table, and one that refills it.
// Each repaired context must equal a fresh build.
TEST(StreamingEquivalenceTest, MergeBoundariesMatchBuildSlotContext) {
  SensorPopulationConfig population;
  population.count = 40;
  population.random_privacy = true;
  Rng rng(61);
  std::vector<Sensor> sensors = GenerateSensors(population, rng);
  for (Sensor& s : sensors) {
    s.SetPosition(Point{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)}, true);
  }
  const int n = static_cast<int>(sensors.size());
  sensors[0].SetPosition(sensors[0].position(), false);
  const Rect region{0, 0, 20, 20};
  AcquisitionEngine engine(sensors, MakeConfig(region, 5.0));
  ExpectSameContext(engine.BeginSlot(0),
                    BuildSlotContext(engine.sensors(), region, 0, 5.0), 0);
  engine.RecordReadings({1, n / 2, n - 1}, 0);

  // Id 0 arrives while id n-1 departs.
  SensorDelta first_in_last_out;
  first_in_last_out.arrivals = {{0, Point{2.0, 3.0}}};
  first_in_last_out.departures = {n - 1};
  ASSERT_TRUE(engine.ApplyDelta(first_in_last_out));
  const SlotContext& s1 = engine.BeginSlot(1);
  ExpectSameContext(s1, BuildSlotContext(engine.sensors(), region, 1, 5.0), 1);
  ASSERT_EQ(s1.sensors.sensor_id.front(), 0);

  // The reverse: id n-1 arrives while id 0 departs.
  SensorDelta last_in_first_out;
  last_in_first_out.arrivals = {{n - 1, Point{19.0, 18.0}}};
  last_in_first_out.departures = {0};
  ASSERT_TRUE(engine.ApplyDelta(last_in_first_out));
  const SlotContext& s2 = engine.BeginSlot(2);
  ExpectSameContext(s2, BuildSlotContext(engine.sensors(), region, 2, 5.0), 2);
  ASSERT_EQ(s2.sensors.sensor_id.back(), n - 1);

  SensorDelta spaced_out;
  spaced_out.departures = {3, 6, 9, 12, 13, 30};
  ASSERT_TRUE(engine.ApplyDelta(spaced_out));
  ExpectSameContext(engine.BeginSlot(3),
                    BuildSlotContext(engine.sensors(), region, 3, 5.0), 3);

  SensorDelta right_then_left;
  for (int id : {3, 6, 9}) {
    right_then_left.arrivals.push_back({id, Point{1.0 + id, 2.0 + id}});
  }
  right_then_left.departures = {15, 16, 17, 18};
  ASSERT_TRUE(engine.ApplyDelta(right_then_left));
  ExpectSameContext(engine.BeginSlot(4),
                    BuildSlotContext(engine.sensors(), region, 4, 5.0), 4);

  SensorDelta right_to_end;
  for (int id : {12, 13, 15, 16, 17, 18, 30}) {
    right_to_end.arrivals.push_back({id, Point{1.0 + id % 7, 2.0 + id % 5}});
  }
  ASSERT_TRUE(engine.ApplyDelta(right_to_end));
  ExpectSameContext(engine.BeginSlot(5),
                    BuildSlotContext(engine.sensors(), region, 5, 5.0), 5);

  SensorDelta interleaved;
  interleaved.arrivals = {{0, Point{4.0, 4.0}}, {17, Point{5.0, 5.0}}};
  interleaved.departures = {2, 5, 8, 20, 21, 22};
  ASSERT_TRUE(engine.ApplyDelta(interleaved));
  ExpectSameContext(engine.BeginSlot(6),
                    BuildSlotContext(engine.sensors(), region, 6, 5.0), 6);
  SensorDelta interleaved_back;
  interleaved_back.arrivals = {{2, Point{6.0, 6.0}}, {5, Point{7.0, 7.0}},
                               {8, Point{8.0, 8.0}}, {20, Point{9.0, 9.0}},
                               {21, Point{10.0, 10.0}}};
  interleaved_back.departures = {0, 1, 35};
  ASSERT_TRUE(engine.ApplyDelta(interleaved_back));
  ExpectSameContext(engine.BeginSlot(7),
                    BuildSlotContext(engine.sensors(), region, 7, 5.0), 7);

  // Everyone leaves.
  SensorDelta empty_out;
  for (int id = 0; id < n; ++id) {
    if (engine.sensors()[id].present()) empty_out.departures.push_back(id);
  }
  ASSERT_TRUE(engine.ApplyDelta(empty_out));
  const SlotContext& s8 = engine.BeginSlot(8);
  ExpectSameContext(s8, BuildSlotContext(engine.sensors(), region, 8, 5.0), 8);
  ASSERT_EQ(s8.sensors.size(), 0u);

  // Everyone comes back, some at new places.
  SensorDelta refill;
  for (int id = 0; id < n; ++id) {
    refill.arrivals.push_back({id, Point{0.5 * id, 20.0 - 0.5 * id}});
  }
  ASSERT_TRUE(engine.ApplyDelta(refill));
  const SlotContext& s9 = engine.BeginSlot(9);
  ExpectSameContext(s9, BuildSlotContext(engine.sensors(), region, 9, 5.0), 9);
  ASSERT_EQ(s9.sensors.size(), static_cast<size_t>(n));
}

/// A served slot's index must answer every probe exactly as the fresh
/// build's CSR grid does, in slot rows: the engine's grid answers in ids
/// and its view translates them to member ranks.
void ExpectSameProbes(const SlotContext& served, const SlotContext& built,
                      const Rect& region, Rng& rng, int slot) {
  ASSERT_NE(served.index, nullptr) << "slot " << slot;
  ASSERT_NE(built.index, nullptr) << "slot " << slot;
  std::vector<int> got;
  std::vector<int> want;
  for (int probe = 0; probe < 20; ++probe) {
    const Point c{rng.Uniform(region.x_min, region.x_max),
                  rng.Uniform(region.y_min, region.y_max)};
    served.index->RangeQuery(c, 4.0, &got);
    built.index->RangeQuery(c, 4.0, &want);
    ASSERT_EQ(got, want) << "slot " << slot << " range probe " << probe;
    const Rect r{c.x - 3.0, c.y - 2.0, c.x + 2.0, c.y + 3.0};
    served.index->RectQuery(r, &got);
    built.index->RectQuery(r, &want);
    ASSERT_EQ(got, want) << "slot " << slot << " rect probe " << probe;
  }
}

// The engine hands its grid each slot's churn in batches of
// max(4096, n / 16) ops and reads member rows as ranks in a presence
// bitmap. On a 10,003-sensor registry (not a multiple of 64) the cold
// build's 10,001 inserts take three batches, a slot of 5,000 moves and
// 3,000 departures takes two, and arrivals and departures hit ids 0, 63,
// 64 and n - 1: the first word edge and the partial last word. Every
// slot must equal a fresh build, probe for probe and in its selections
// (valuation calls included), and select what an unindexed engine fed the
// same deltas selects, valuation calls included too: its column scan
// finds the grid's candidates.
TEST(StreamingEquivalenceTest, GridBatchesAndRankEdgesMatchRebuild) {
  const int n = 10003;
  const Rect region{0, 0, 100, 100};
  SensorPopulationConfig population;
  population.count = n;
  population.random_privacy = true;
  Rng rng(83);
  std::vector<Sensor> sensors = GenerateSensors(population, rng);
  for (Sensor& s : sensors) {
    s.SetPosition(Point{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)},
                  true);
  }
  sensors[64].SetPosition(sensors[64].position(), false);
  sensors[n - 1].SetPosition(sensors[n - 1].position(), false);
  const ServingConfig indexed = MakeConfig(region, 5.0);
  ServingConfig unindexed = indexed;
  unindexed.index_policy = SlotIndexPolicy::kNone;
  AcquisitionEngine engine(sensors, indexed);
  AcquisitionEngine reference(sensors, unindexed);

  // Ids off the four edges, shuffled: slot 1 moves the first 5,000 and
  // takes the next 3,000 out; slot 2 brings those back and moves 5,000.
  std::vector<int> ids;
  for (int id = 1; id < n - 1; ++id) {
    if (id != 63 && id != 64) ids.push_back(id);
  }
  for (size_t k = ids.size() - 1; k > 0; --k) {
    std::swap(ids[k], ids[static_cast<size_t>(
                          rng.UniformInt(0, static_cast<int64_t>(k)))]);
  }
  const auto place = [&] {
    return Point{rng.Uniform(0.0, 100.0), rng.Uniform(0.0, 100.0)};
  };
  std::vector<SensorDelta> deltas(5);
  deltas[1].arrivals = {{64, place()}, {n - 1, place()}};
  deltas[1].departures = {0, 63};
  deltas[2].arrivals = {{0, place()}, {63, place()}};
  deltas[2].departures = {64, n - 1};
  for (size_t k = 0; k < 8000; ++k) {
    if (k < 5000) {
      deltas[1].moves.push_back({ids[k], place()});
      deltas[2].moves.push_back({ids[k], place()});
    } else {
      deltas[1].departures.push_back(ids[k]);
      deltas[2].arrivals.push_back({ids[k], place()});
    }
  }
  // Slot 3 is quiet; slot 4 moves and re-prices the edges.
  deltas[4].moves = {{0, place()}, {63, place()}, {n - 2, place()}};
  deltas[4].price_changes = {{0, 2.5}, {63, 4.0}, {n - 2, 1.5}};

  Rng query_rng(89);
  Rng probe_rng(97);
  for (int t = 0; t < static_cast<int>(deltas.size()); ++t) {
    ASSERT_TRUE(engine.ApplyDelta(deltas[t]));
    ASSERT_TRUE(reference.ApplyDelta(deltas[t]));
    const SlotContext& slot = engine.BeginSlot(t);
    const SlotContext& ref_slot = reference.BeginSlot(t);
    const SlotContext built =
        BuildSlotContext(engine.sensors(), region, t, 5.0);
    ExpectSameContext(slot, built, t);
    ExpectSameProbes(slot, built, region, probe_rng, t);
    ASSERT_EQ(ref_slot.index, nullptr);
    ASSERT_EQ(ref_slot.sensors.sensor_id, slot.sensors.sensor_id) << t;

    const std::vector<AggregateQuery::Params> aggregates =
        GenerateAggregateQueries(4, region, 5.0, 15.0, t * 100, query_rng);
    const std::vector<PointQuery> points = GeneratePointQueries(
        40, region, BudgetScheme{15.0, false, 0.0}, 0.2, t * 100 + 50,
        query_rng);
    // Served, built and unindexed: each binds its own copy of the batch.
    std::vector<SelectionResult> results;
    std::vector<double> payments;
    for (const SlotContext* s : {&slot, &built, &ref_slot}) {
      std::vector<std::unique_ptr<MultiQuery>> owned;
      std::vector<MultiQuery*> queries;
      for (const AggregateQuery::Params& p : aggregates) {
        owned.push_back(std::make_unique<AggregateQuery>(p, *s));
        queries.push_back(owned.back().get());
      }
      for (const PointQuery& q : points) {
        owned.push_back(std::make_unique<PointMultiQuery>(q, s));
        queries.push_back(owned.back().get());
      }
      if (s == &slot) {
        results.push_back(engine.Select(queries, *s, deltas[t]));
      } else if (s == &ref_slot) {
        results.push_back(reference.Select(queries, *s, deltas[t]));
      } else {
        results.push_back(LazyGreedySensorSelection(queries, *s, nullptr));
      }
      double paid = 0.0;
      for (const MultiQuery* q : queries) paid += q->TotalPayment();
      payments.push_back(paid);
    }
    ASSERT_FALSE(results[0].selected_sensors.empty()) << t;
    for (size_t k = 1; k < results.size(); ++k) {
      ASSERT_EQ(results[0].valuation_calls, results[k].valuation_calls) << t;
      ASSERT_EQ(results[0].selected_sensors, results[k].selected_sensors) << t;
      ASSERT_EQ(results[0].total_value, results[k].total_value) << t;
      ASSERT_EQ(results[0].total_cost, results[k].total_cost) << t;
      ASSERT_EQ(payments[0], payments[k]) << t;
    }
    engine.RecordSlotReadings(results[0].selected_sensors, t);
    reference.RecordSlotReadings(results[2].selected_sensors, t);
  }
  // The edge ids ended where the deltas put them.
  const std::vector<int>& members = engine.BeginSlot(5).sensors.sensor_id;
  for (int id : {0, 63}) {
    EXPECT_TRUE(std::binary_search(members.begin(), members.end(), id)) << id;
  }
  for (int id : {64, n - 1}) {
    EXPECT_FALSE(std::binary_search(members.begin(), members.end(), id)) << id;
  }
}

// RecordSlotReadings addresses the current slot's rows. After churn has
// shifted them, row r must charge registry id sensors.sensor_id[r], not
// the sensor that sat at row r before the merge.
TEST(StreamingEquivalenceTest, SlotReadingsChargeTheRowsCurrentSensor) {
  SensorPopulationConfig population;
  population.count = 30;
  Rng rng(67);
  std::vector<Sensor> sensors = GenerateSensors(population, rng);
  for (Sensor& s : sensors) {
    s.SetPosition(Point{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)}, true);
  }
  const Rect region{0, 0, 20, 20};
  AcquisitionEngine engine(sensors, MakeConfig(region, 5.0));
  const SlotContext& before = engine.BeginSlot(0);
  ASSERT_EQ(before.sensors.sensor_id[5], 5);

  // Departures below row 5 shift every later row left by two.
  SensorDelta delta;
  delta.departures = {1, 3};
  ASSERT_TRUE(engine.ApplyDelta(delta));
  const SlotContext& slot = engine.BeginSlot(1);
  ASSERT_EQ(slot.sensors.sensor_id[5], 7);
  const std::vector<int> rows = {0, 5, 20};
  std::vector<int> readings_before;
  for (int id = 0; id < 30; ++id) {
    readings_before.push_back(engine.sensors()[id].readings_taken());
  }
  std::vector<int> charged;
  for (int r : rows) charged.push_back(slot.sensors.sensor_id[r]);
  engine.RecordSlotReadings(rows, 1);
  for (int id = 0; id < 30; ++id) {
    const bool is_charged =
        std::find(charged.begin(), charged.end(), id) != charged.end();
    EXPECT_EQ(engine.sensors()[id].readings_taken(),
              readings_before[id] + (is_charged ? 1 : 0))
        << "sensor " << id;
  }
  EXPECT_EQ(charged, (std::vector<int>{0, 7, 22}));
}

// Live ApplyDelta refuses what trace decode refuses: each malformed delta
// is refused whole, counted, and leaves the next slot equal to a fresh
// build over the untouched registry; a valid delta afterwards applies.
TEST(StreamingEquivalenceTest, ApplyDeltaRefusesMalformedDeltasWhole) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  SensorPopulationConfig population;
  population.count = 24;
  Rng rng(71);
  std::vector<Sensor> sensors = GenerateSensors(population, rng);
  for (Sensor& s : sensors) {
    s.SetPosition(Point{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)}, true);
  }
  const int n = static_cast<int>(sensors.size());
  const Rect region{0, 0, 20, 20};
  const struct {
    const char* name;
    const char* expect;
    SensorDelta bad;
  } cases[] = {
      {"arrival id -1", "arrival sensor id -1 outside the registry",
       {.arrivals = {{-1, Point{1, 1}}}}},
      {"arrival id n", "arrival sensor id 24 outside the registry",
       {.arrivals = {{n, Point{1, 1}}}}},
      {"departure id -1", "departure sensor id -1 outside the registry",
       {.departures = {-1}}},
      {"departure id n", "departure sensor id 24 outside the registry",
       {.departures = {n}}},
      {"move id n", "move sensor id 24 outside the registry",
       {.moves = {{n, Point{1, 1}}}}},
      {"price id -1", "price-change sensor id -1 outside the registry",
       {.price_changes = {{-1, 5.0}}}},
      {"arrival x nan", "arrival 0 (sensor 2) position.x nan is not finite",
       {.arrivals = {{2, Point{nan, 1}}}}},
      {"arrival x -inf", "arrival 0 (sensor 2) position.x -inf is not finite",
       {.arrivals = {{2, Point{-inf, 1}}}}},
      {"arrival y inf", "arrival 0 (sensor 2) position.y inf is not finite",
       {.arrivals = {{2, Point{1, inf}}}}},
      {"move x -inf", "move 0 (sensor 4) position.x -inf is not finite",
       {.moves = {{4, Point{-inf, 1}}}}},
      {"move y nan", "move 0 (sensor 4) position.y nan is not finite",
       {.moves = {{4, Point{1, nan}}}}},
      {"move x inf", "move 0 (sensor 4) position.x inf is not finite",
       {.moves = {{4, Point{inf, 1}}}}},
      {"price nan", "price change 0 (sensor 6) base_price nan is not finite",
       {.price_changes = {{6, nan}}}},
      {"price -1", "price change 0 (sensor 6) base_price -1 is negative",
       {.price_changes = {{6, -1.0}}}},
      {"price inf", "price change 0 (sensor 6) base_price inf is not finite",
       {.price_changes = {{6, inf}}}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    AcquisitionEngine engine(sensors, MakeConfig(region, 5.0));
    engine.BeginSlot(0);
    // A valid departure rides along: a refusal must not apply it either.
    SensorDelta delta = c.bad;
    delta.departures.push_back(3);
    std::string error;
    EXPECT_FALSE(engine.ApplyDelta(delta, &error));
    EXPECT_NE(error.find(c.expect), std::string::npos) << error;
    EXPECT_EQ(engine.refused_deltas(), 1);
    EXPECT_FALSE(engine.ApplyDelta(delta));  // the out-param is optional
    EXPECT_EQ(engine.refused_deltas(), 2);
    ExpectSameContext(engine.BeginSlot(1),
                      BuildSlotContext(sensors, region, 1, 5.0), 1);

    SensorDelta good;
    good.departures = {0};
    good.moves = {{3, Point{9.0, 9.0}}};
    good.price_changes = {{6, 0.0}};
    ASSERT_TRUE(engine.ApplyDelta(good, &error)) << error;
    EXPECT_EQ(engine.refused_deltas(), 2);
    const SlotContext& after = engine.BeginSlot(2);
    ExpectSameContext(after, BuildSlotContext(engine.sensors(), region, 2, 5.0),
                      2);
    EXPECT_EQ(after.sensors.sensor_id.front(), 1);
  }
}

// A refused delta is not journaled: the recorded slot carries only the
// delta that applied.
TEST(StreamingEquivalenceTest, RefusedDeltaIsNotRecorded) {
  SensorPopulationConfig population;
  population.count = 12;
  Rng rng(73);
  std::vector<Sensor> sensors = GenerateSensors(population, rng);
  for (Sensor& s : sensors) {
    s.SetPosition(Point{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)}, true);
  }
  const std::string path =
      ::testing::TempDir() + "/refused_delta_not_recorded.trace";
  ServingConfig config = MakeConfig(Rect{0, 0, 20, 20}, 5.0);
  config.trace_path = path;
  {
    AcquisitionEngine engine(sensors, config);
    engine.BeginSlot(0);
    SensorDelta bad;
    bad.departures = {2, 99};
    EXPECT_FALSE(engine.ApplyDelta(bad));
    SensorDelta good;
    good.departures = {5};
    EXPECT_TRUE(engine.ApplyDelta(good));
    engine.BeginSlot(1);
    ASSERT_TRUE(engine.FinishTrace());
  }
  TraceData data;
  std::string error;
  ASSERT_TRUE(ReadTraceFile(path, &data, &error)) << error;
  ASSERT_EQ(data.slots.size(), 2u);
  EXPECT_EQ(data.slots[1].delta.departures, (std::vector<int>{5}));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ServingConfig::Validate: MakeServingEngine refuses a config Validate
// rejects, so these are the construction-time guard rails.

TEST(ServingConfigTest, ValidateAcceptsDefaultsAndBuilderChains) {
  EXPECT_TRUE(ServingConfig().Validate().empty());
  const ServingConfig built = ServingConfig()
                                  .WithRegion(Rect{0, 0, 100, 100})
                                  .WithDmax(8.0)
                                  .WithScheduler(GreedyEngine::kSieve)
                                  .WithEpsilon(0.2)
                                  .WithApproxSeed(9);
  EXPECT_TRUE(built.Validate().empty()) << built.Validate();
  EXPECT_EQ(built.scheduler, GreedyEngine::kSieve);
  EXPECT_EQ(built.approx.epsilon, 0.2);
}

TEST(ServingConfigTest, ValidateRejectsBrokenConfigs) {
  EXPECT_FALSE(ServingConfig().WithDmax(0.0).Validate().empty());
  EXPECT_FALSE(ServingConfig().WithDmax(-1.0).Validate().empty());
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ServingConfig().WithDmax(inf).Validate().empty());
  EXPECT_FALSE(
      ServingConfig().WithRegion(Rect{10, 0, 0, 10}).Validate().empty());
  EXPECT_FALSE(ServingConfig()
                   .WithRegion(Rect{std::numeric_limits<double>::quiet_NaN(),
                                    0, 10, 10})
                   .Validate()
                   .empty());
  EXPECT_FALSE(
      ServingConfig().WithRegion(Rect{0, 0, inf, 10}).Validate().empty());
  EXPECT_FALSE(ServingConfig().WithEpsilon(0.0).Validate().empty());
  EXPECT_FALSE(ServingConfig().WithEpsilon(-0.1).Validate().empty());
}

}  // namespace
}  // namespace psens
