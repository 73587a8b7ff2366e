// The column-kernel contract (docs/ARCHITECTURE.md, "Valuation kernels"):
// the keyed kernels behind PointMultiQuery, MultiSensorPointQuery, and
// AggregateQuery over regions and trajectories (MultiQuery::MarginalsAt) —
// plus the per-query candidate value caches and round-delta memos they
// read — produce *bit-identical* selections, payments, values, and
// ValuationCalls to the counted reference MultiQuery::MarginalValue(sensor),
// for the lazy, eager and sieve engines, under churn, on indexed and
// unindexed slots.
//
// Both sides wrap every bound query in ReferenceQuery, which forwards
// each call to the query. On the reference side it keeps the base-class
// MarginalsAt fallback: one counted MarginalValue probe per key, with the
// count cancelled, so whole runs compare and their call totals stay
// equal. On the kernel side it runs the query's own kernel and also
// checks every value the kernel returns, at every state the run reaches,
// against that fallback. The reference side also runs without the slot
// arena, so scratch falls back to owned heap buffers.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/greedy.h"
#include "core/lazy_greedy.h"
#include "core/multi_query.h"
#include "core/multi_sensor_point_query.h"
#include "core/sensor_delta.h"
#include "core/sieve_streaming.h"
#include "core/slot.h"
#include "engine/acquisition_engine.h"
#include "sim/workload.h"

namespace psens {
namespace {

/// Forwards every MultiQuery call to the wrapped query. MarginalsAt stays
/// MultiQuery's reference fallback — each key resolves to its sensor
/// through CandidateSensors() and is probed with the counted
/// MarginalValue, and the probes' count is cancelled through
/// AddValuationCalls — unless `checked`: then it returns the wrapped
/// query's kernel values and counts each one that differs from the
/// fallback's in any bit. `probes()` counts the forwarded MarginalValue
/// calls, so a test can show the reference ran.
class ReferenceQuery final : public MultiQuery {
 public:
  ReferenceQuery(MultiQuery* query, bool checked)
      : query_(query), checked_(checked) {}

  int id() const override { return query_->id(); }
  double MarginalValue(int sensor) const override {
    ++probes_;
    return query_->MarginalValue(sensor);
  }
  void MarginalsAt(std::span<const int> keys,
                   std::span<double> out) const override {
    if (!checked_) {
      MultiQuery::MarginalsAt(keys, out);
      return;
    }
    query_->MarginalsAt(keys, out);
    reference_.resize(keys.size());
    MultiQuery::MarginalsAt(keys, reference_);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (std::memcmp(&out[i], &reference_[i], sizeof(double)) != 0) {
        ++mismatches_;
      }
    }
  }
  void AddValuationCalls(int64_t count) const override {
    query_->AddValuationCalls(count);
  }
  void Commit(int sensor, double payment) override {
    query_->Commit(sensor, payment);
  }
  double CurrentValue() const override { return query_->CurrentValue(); }
  double MaxValue() const override { return query_->MaxValue(); }
  double TotalPayment() const override { return query_->TotalPayment(); }
  const std::vector<int>& SelectedSensors() const override {
    return query_->SelectedSensors();
  }
  void ResetSelection() override { query_->ResetSelection(); }
  int64_t ValuationCalls() const override { return query_->ValuationCalls(); }
  const std::vector<int>* CandidateSensors() const override {
    return query_->CandidateSensors();
  }

  int64_t probes() const { return probes_; }
  int64_t mismatches() const { return mismatches_; }

 private:
  MultiQuery* query_;
  bool checked_;
  mutable std::vector<double> reference_;
  mutable int64_t probes_ = 0;
  mutable int64_t mismatches_ = 0;
};

/// The engine's O(churn) repair must leave every column equal to a fresh
/// build over the same registry; a repair that skipped one column (or
/// left it a different length) would silently change valuations.
void ExpectSameContext(const SlotContext& repaired, const SlotContext& built,
                       int t) {
  const SlotSensorTable& a = repaired.sensors;
  const SlotSensorTable& b = built.sensors;
  ASSERT_EQ(a.sensor_id, b.sensor_id) << "slot " << t;
  ASSERT_EQ(a.x, b.x) << "slot " << t;
  ASSERT_EQ(a.y, b.y) << "slot " << t;
  ASSERT_EQ(a.cost, b.cost) << "slot " << t;
  ASSERT_EQ(a.inaccuracy, b.inaccuracy) << "slot " << t;
  ASSERT_EQ(a.trust, b.trust) << "slot " << t;
}

/// Everything an observer can see from one joint selection.
struct Outcome {
  SelectionResult selection;
  std::vector<double> payments;
  std::vector<double> values;
  std::vector<int64_t> calls;
  /// MarginalValue probes the wrappers forwarded, and kernel values that
  /// differed from the reference (kernel side only).
  int64_t probes = 0;
  int64_t mismatches = 0;
};

/// A mixed query batch (point, multi-sensor point, aggregate, trajectory)
/// bound against one slot. The batch is regenerated per call from `seed`,
/// so the kernel and reference sides bind identical queries.
struct MixedBatch {
  std::vector<std::unique_ptr<PointMultiQuery>> points;
  std::vector<std::unique_ptr<MultiSensorPointQuery>> multi_points;
  std::vector<std::unique_ptr<AggregateQuery>> aggregates;
  std::vector<std::unique_ptr<AggregateQuery>> trajectories;
  std::vector<MultiQuery*> all;
  /// One ReferenceQuery per query, in `all` order: what the scheduler
  /// sees.
  std::vector<std::unique_ptr<ReferenceQuery>> wrappers;
  std::vector<MultiQuery*> selected_through;

  MixedBatch(const SlotContext& slot, const Rect& field, uint64_t seed,
             bool reference) {
    Rng query_rng(seed);
    const std::vector<PointQuery> point_specs = GeneratePointQueries(
        25, field, BudgetScheme{15.0, false, 0.0}, 0.2, 100, query_rng);
    const std::vector<AggregateQuery::Params> agg_params =
        GenerateAggregateQueries(5, field, 8.0, 15.0, 400, query_rng);
    for (const PointQuery& p : point_specs) {
      points.push_back(std::make_unique<PointMultiQuery>(p, &slot));
      all.push_back(points.back().get());
    }
    for (int k = 0; k < 6; ++k) {
      MultiSensorPointQuery::Params mp;
      mp.id = 500 + k;
      mp.location = Point{query_rng.Uniform(0.0, field.x_max),
                          query_rng.Uniform(0.0, field.y_max)};
      mp.budget = 20.0;
      mp.theta_min = 0.2;
      mp.redundancy = 1 + k % 3;
      multi_points.push_back(
          std::make_unique<MultiSensorPointQuery>(mp, &slot));
      all.push_back(multi_points.back().get());
    }
    for (const AggregateQuery::Params& p : agg_params) {
      aggregates.push_back(std::make_unique<AggregateQuery>(p, slot));
      all.push_back(aggregates.back().get());
    }
    for (int k = 0; k < 3; ++k) {
      AggregateQuery::TrajectoryParams tp;
      tp.id = 700 + k;
      const double y = query_rng.Uniform(0.0, field.y_max);
      tp.trajectory.waypoints = {
          Point{0.0, y}, Point{field.x_max / 2, y},
          Point{field.x_max, query_rng.Uniform(0.0, field.y_max)}};
      tp.budget = 25.0;
      tp.sensing_range = 12.0;
      tp.cell_size = 2.0;
      tp.corridor = 3.0;
      trajectories.push_back(std::make_unique<AggregateQuery>(tp, slot));
      all.push_back(trajectories.back().get());
    }
    for (MultiQuery* q : all) {
      wrappers.push_back(
          std::make_unique<ReferenceQuery>(q, /*checked=*/!reference));
      selected_through.push_back(wrappers.back().get());
    }
  }

  Outcome Observe(SelectionResult selection) const {
    Outcome out;
    out.selection = std::move(selection);
    for (const MultiQuery* q : all) {
      out.payments.push_back(q->TotalPayment());
      out.values.push_back(q->CurrentValue());
      out.calls.push_back(q->ValuationCalls());
    }
    for (const auto& w : wrappers) {
      out.probes += w->probes();
      out.mismatches += w->mismatches();
    }
    return out;
  }
};

/// The three selection functions (eager reference, lazy, sieve) share
/// one signature.
using SelectFn = decltype(&EagerGreedySensorSelection);

/// One selection run over a freshly bound batch.
Outcome RunMixedSelection(const SlotContext& slot, const Rect& field,
                          SelectFn select, uint64_t seed, bool reference) {
  const MixedBatch batch(slot, field, seed, reference);
  return batch.Observe(select(batch.selected_through, slot, nullptr));
}

void ExpectSameOutcome(const Outcome& kernel, const Outcome& reference,
                       const char* label, int t) {
  ASSERT_EQ(kernel.selection.selected_sensors,
            reference.selection.selected_sensors)
      << label << " slot " << t;
  ASSERT_EQ(kernel.selection.total_value, reference.selection.total_value)
      << label << " slot " << t;
  ASSERT_EQ(kernel.selection.total_cost, reference.selection.total_cost)
      << label << " slot " << t;
  ASSERT_EQ(kernel.selection.valuation_calls,
            reference.selection.valuation_calls)
      << label << " slot " << t;
  ASSERT_EQ(kernel.payments, reference.payments) << label << " slot " << t;
  ASSERT_EQ(kernel.values, reference.values) << label << " slot " << t;
  ASSERT_EQ(kernel.calls, reference.calls) << label << " slot " << t;
  ASSERT_EQ(kernel.mismatches, 0) << label << " slot " << t;
  // Both sides really probed through MarginalValue.
  ASSERT_GT(kernel.probes, 0) << label << " slot " << t;
  ASSERT_GT(reference.probes, 0) << label << " slot " << t;
}

constexpr SelectFn kSelects[] = {EagerGreedySensorSelection,
                                 LazyGreedySensorSelection,
                                 SieveStreamingSensorSelection};
constexpr const char* kLabels[] = {"eager", "lazy", "sieve"};

/// Serves eight churn slots through an engine with `policy` and checks,
/// per slot, every engine's one-shot selection and a sieve carried across
/// the slots (SelectDelta absorbing each slot's delta) against the
/// reference.
void CheckChurnedSlots(SlotIndexPolicy policy, bool expect_indexed) {
  const int count = 800;
  const Rect field{0, 0, 60, 60};
  ClusteredPopulationConfig config;
  config.count = count;
  config.num_clusters = 6;
  config.cluster_sigma = 5.0;
  config.profile.random_privacy = true;
  Rng rng(17);
  const ScaleScenario scenario = GenerateClusteredSensors(config, field, rng);

  ChurnConfig churn;
  churn.arrival_rate = 25;
  churn.departure_rate = 25;
  churn.move_fraction = 0.04;
  churn.price_jitter_fraction = 0.01;

  ServingConfig engine_config;
  engine_config.working_region = field;
  engine_config.dmax = 8.0;
  engine_config.index_policy = policy;
  AcquisitionEngine engine(scenario.sensors, engine_config);
  ChurnStream stream(churn, scenario.sensors, field);
  stream.SetClusteredPlacement(&scenario, &config);
  Rng churn_rng(5);
  SieveStreamingScheduler kernel_sieve(engine_config.approx);
  SieveStreamingScheduler reference_sieve(engine_config.approx);

  for (int t = 0; t < 8; ++t) {
    const SensorDelta delta = stream.Next(churn_rng);
    ASSERT_TRUE(engine.ApplyDelta(delta));
    const SlotContext& slot = engine.BeginSlot(t);
    ASSERT_EQ(slot.index != nullptr, expect_indexed) << "slot " << t;
    ExpectSameContext(
        slot, BuildSlotContext(engine.sensors(), field, t, engine_config.dmax),
        t);
    // The reference side: same membership and index, no arena.
    SlotContext reference = slot;
    reference.arena = nullptr;

    const uint64_t seed = 900 + static_cast<uint64_t>(t);
    for (size_t e = 0; e < std::size(kSelects); ++e) {
      ExpectSameOutcome(
          RunMixedSelection(slot, field, kSelects[e], seed, false),
          RunMixedSelection(reference, field, kSelects[e], seed, true),
          kLabels[e], t);
    }
    {
      const MixedBatch kernel_batch(slot, field, seed, false);
      const MixedBatch reference_batch(reference, field, seed, true);
      ExpectSameOutcome(
          kernel_batch.Observe(kernel_sieve.SelectDelta(
              kernel_batch.selected_through, slot, delta)),
          reference_batch.Observe(reference_sieve.SelectDelta(
              reference_batch.selected_through, reference, delta)),
          "carried sieve", t);
    }
    // Feed readings back so announced costs drift (privacy decay) and the
    // column repair has real cost churn to track.
    const Outcome feedback =
        RunMixedSelection(slot, field, LazyGreedySensorSelection, 7000 + t,
                          false);
    engine.RecordSlotReadings(feedback.selection.selected_sensors, t);
  }
}

TEST(KernelEquivalenceTest, IndexedSlotsMatchReferenceUnderChurn) {
  CheckChurnedSlots(SlotIndexPolicy::kGrid, /*expect_indexed=*/true);
}

TEST(KernelEquivalenceTest, UnindexedSlotsMatchReferenceUnderChurn) {
  CheckChurnedSlots(SlotIndexPolicy::kNone, /*expect_indexed=*/false);
}

TEST(KernelEquivalenceTest, BuiltSlotMatchesReference) {
  const Rect field{0, 0, 40, 40};
  SensorPopulationConfig population;
  population.count = 300;
  population.random_privacy = true;
  Rng rng(23);
  std::vector<Sensor> sensors = GenerateSensors(population, rng);
  for (Sensor& s : sensors) {
    s.SetPosition(Point{rng.Uniform(0.0, 40.0), rng.Uniform(0.0, 40.0)}, true);
  }
  const SlotContext slot = BuildSlotContext(sensors, field, 3, 6.0);
  ASSERT_NE(slot.index, nullptr);
  for (size_t e = 0; e < std::size(kSelects); ++e) {
    ExpectSameOutcome(RunMixedSelection(slot, field, kSelects[e], 42, false),
                      RunMixedSelection(slot, field, kSelects[e], 42, true),
                      kLabels[e], 3);
  }
}

// Unindexed slots exercise the dense-plan kernels (no candidate lists, so
// the point caches never arm and the column sweeps run over every row).
TEST(KernelEquivalenceTest, UnindexedDensePlansMatchReference) {
  const Rect field{0, 0, 30, 30};
  SensorPopulationConfig population;
  population.count = 150;
  Rng rng(29);
  std::vector<Sensor> sensors = GenerateSensors(population, rng);
  for (Sensor& s : sensors) {
    s.SetPosition(Point{rng.Uniform(0.0, 30.0), rng.Uniform(0.0, 30.0)}, true);
  }
  const SlotContext slot =
      BuildSlotContext(sensors, field, 0, 6.0, SlotIndexPolicy::kNone);
  ASSERT_EQ(slot.index, nullptr);
  for (size_t e = 0; e < std::size(kSelects); ++e) {
    ExpectSameOutcome(RunMixedSelection(slot, field, kSelects[e], 314, false),
                      RunMixedSelection(slot, field, kSelects[e], 314, true),
                      kLabels[e], 0);
  }
}

}  // namespace
}  // namespace psens
