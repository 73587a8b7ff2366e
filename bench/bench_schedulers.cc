// Micro-benchmarks of the slot schedulers (google-benchmark): how the
// exact BILP branch-and-bound, the local search, and greedy Algorithm 1
// scale with the number of sensors and queries. These back the paper's
// complexity discussion (Sections 3.1-3.2) and DESIGN.md's ablations.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/greedy.h"
#include "core/point_scheduling.h"
#include "mobility/random_waypoint.h"
#include "sim/experiments.h"
#include "sim/workload.h"

namespace psens {
namespace {

SlotContext MakeSlot(int num_sensors, uint64_t seed) {
  Rng rng(seed);
  SlotContext slot;
  slot.time = 0;
  slot.dmax = 5.0;
  for (int i = 0; i < num_sensors; ++i) {
    SlotSensor s;
    s.sensor_id = i;
    s.location = Point{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)};
    s.cost = 10.0;
    s.inaccuracy = rng.Uniform(0.0, 0.2);
    s.trust = 1.0;
    slot.sensors.Append(s);
  }
  return slot;
}

std::vector<PointQuery> MakeQueries(int count, uint64_t seed) {
  Rng rng(seed);
  const Rect region{0, 0, 50, 50};
  return GeneratePointQueries(count, region, BudgetScheme{15.0, false, 0.0}, 0.2,
                              0, rng);
}

void BM_PointOptimal(benchmark::State& state) {
  const SlotContext slot = MakeSlot(static_cast<int>(state.range(0)), 7);
  const std::vector<PointQuery> queries =
      MakeQueries(static_cast<int>(state.range(1)), 8);
  PointSchedulingOptions options;
  options.scheduler = PointScheduler::kOptimal;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchedulePointQueries(queries, slot, options));
  }
}
BENCHMARK(BM_PointOptimal)->Args({50, 100})->Args({100, 300})->Args({200, 300});

void BM_PointLocalSearch(benchmark::State& state) {
  const SlotContext slot = MakeSlot(static_cast<int>(state.range(0)), 7);
  const std::vector<PointQuery> queries =
      MakeQueries(static_cast<int>(state.range(1)), 8);
  PointSchedulingOptions options;
  options.scheduler = PointScheduler::kLocalSearch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchedulePointQueries(queries, slot, options));
  }
}
BENCHMARK(BM_PointLocalSearch)
    ->Args({50, 100})
    ->Args({100, 300})
    ->Args({200, 300})
    ->Args({400, 1000});

void BM_PointBaseline(benchmark::State& state) {
  const SlotContext slot = MakeSlot(static_cast<int>(state.range(0)), 7);
  const std::vector<PointQuery> queries =
      MakeQueries(static_cast<int>(state.range(1)), 8);
  PointSchedulingOptions options;
  options.scheduler = PointScheduler::kBaseline;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SchedulePointQueries(queries, slot, options));
  }
}
BENCHMARK(BM_PointBaseline)->Args({100, 300})->Args({200, 300});

void RunGreedyAggregate(benchmark::State& state, GreedyEngine engine) {
  const SlotContext slot = MakeSlot(static_cast<int>(state.range(0)), 7);
  Rng rng(9);
  const std::vector<AggregateQuery::Params> params = GenerateAggregateQueries(
      static_cast<int>(state.range(1)), Rect{0, 0, 50, 50}, 10.0, 15.0, 0, rng);
  int64_t valuation_calls = 0;
  for (auto _ : state) {
    std::vector<std::unique_ptr<AggregateQuery>> queries;
    for (const auto& p : params) {
      queries.push_back(std::make_unique<AggregateQuery>(p, slot));
    }
    std::vector<MultiQuery*> ptrs;
    for (auto& q : queries) ptrs.push_back(q.get());
    const SelectionResult result = GreedySensorSelection(ptrs, slot, nullptr, engine);
    valuation_calls = result.valuation_calls;
    benchmark::DoNotOptimize(result);
  }
  state.counters["valuation_calls"] = static_cast<double>(valuation_calls);
}

void BM_GreedyAggregateEager(benchmark::State& state) {
  RunGreedyAggregate(state, GreedyEngine::kEager);
}
BENCHMARK(BM_GreedyAggregateEager)->Args({100, 30})->Args({200, 30});

void BM_GreedyAggregateLazy(benchmark::State& state) {
  RunGreedyAggregate(state, GreedyEngine::kLazy);
}
BENCHMARK(BM_GreedyAggregateLazy)->Args({100, 30})->Args({200, 30});

// Slot-throughput scaling of the parallel experiment runner: a fixed
// 16-slot point-query simulation sharded over range(0) worker threads.
// items_per_second reports slots/s; on a multi-core host the curve should
// track the thread count until it exhausts physical cores.
void BM_PointExperimentParallel(benchmark::State& state) {
  RandomWaypointConfig mobility;
  mobility.num_sensors = 120;
  mobility.num_slots = 16;
  mobility.seed = 11;
  const Trace trace = GenerateRandomWaypoint(mobility);
  PointExperimentConfig config;
  config.trace = &trace;
  config.working_region = Rect{0, 0, mobility.region_size, mobility.region_size};
  config.dmax = 10.0;
  config.num_slots = 16;
  config.queries_per_slot = 200;
  config.budget = BudgetScheme{15.0, false, 0.0};
  config.scheduler = PointScheduler::kLocalSearch;
  config.sensors.lifetime = config.num_slots;
  config.parallelism = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunPointExperiment(config));
  }
  state.SetItemsProcessed(state.iterations() * config.num_slots);
}
// UseRealTime: the work runs on pool workers, so wall clock — not the
// main thread's CPU time — is the meaningful rate base.
BENCHMARK(BM_PointExperimentParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace psens

BENCHMARK_MAIN();
