// Quickstart: the smallest end-to-end use of the psens public API.
//
// Sets up a handful of mobile sensors, submits point queries for one time
// slot, runs the three schedulers, and prints who got what at which price.
// Pass a thread count (default 1) to run the joint greedy selection of
// step 5 with intra-slot parallel valuation — same answers to the bit,
// with the slot-turnover timing printed:
//
//   ./quickstart 8
//
// A 12-sensor toy slot is far too small to profit from threads; this
// only demonstrates the API. bench/fig12_streaming --threads N measures
// the real serving speedup at city scale.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/greedy.h"
#include "core/multi_query.h"
#include "core/point_scheduling.h"
#include "core/sensor.h"
#include "core/slot.h"

int main(int argc, char** argv) {
  using namespace psens;
  const int threads = argc > 1 ? std::atoi(argv[1]) : 1;

  // 1. A small sensor fleet. Each sensor has an inherent inaccuracy, a
  //    trust score, and announces a price per measurement (Eq. 8).
  std::vector<Sensor> sensors;
  Rng rng(7);
  for (int i = 0; i < 12; ++i) {
    SensorProfile profile;
    profile.inaccuracy = rng.Uniform(0.0, 0.2);
    profile.base_price = 10.0;
    sensors.emplace_back(i, profile);
    sensors.back().SetPosition(Point{rng.Uniform(0, 30), rng.Uniform(0, 30)},
                               /*present=*/true);
  }

  // 2. The aggregator builds the slot context: who is where, at what price.
  const Rect working{0, 0, 30, 30};
  const SlotContext slot = BuildSlotContext(sensors, working, /*time=*/0,
                                            /*dmax=*/5.0);
  std::printf("slot has %zu available sensors\n", slot.sensors.size());

  // 3. End users submit point queries (Eq. 3 valuations).
  std::vector<PointQuery> queries;
  for (int i = 0; i < 8; ++i) {
    PointQuery q;
    q.id = i;
    q.location = Point{rng.Uniform(0, 30), rng.Uniform(0, 30)};
    q.budget = 15.0;
    q.theta_min = 0.2;
    queries.push_back(q);
  }

  // 4. Schedule with each strategy and compare.
  for (const auto& [name, kind] :
       std::vector<std::pair<const char*, PointScheduler>>{
           {"Optimal", PointScheduler::kOptimal},
           {"LocalSearch", PointScheduler::kLocalSearch},
           {"Baseline", PointScheduler::kBaseline}}) {
    PointSchedulingOptions options;
    options.scheduler = kind;
    const PointScheduleResult result = SchedulePointQueries(queries, slot, options);
    std::printf("\n%s: utility=%.2f (value=%.2f, cost=%.2f), %d/%zu answered\n",
                name, result.Utility(), result.total_value, result.total_cost,
                result.NumSatisfied(), queries.size());
    for (const PointAssignment& a : result.assignments) {
      if (!a.satisfied()) continue;
      std::printf("  query %d <- sensor %d  quality=%.2f value=%.2f pays %.2f\n",
                  a.query, slot.sensors.sensor_id[a.sensor], a.quality, a.value,
                  a.payment);
    }
  }

  // 5. The same queries through Algorithm 1's joint greedy selection —
  //    the serving path ServingConfig::threads parallelizes. With N > 1
  //    the slot's valuation rounds shard across a worker pool; the
  //    selection, payments, and ValuationCalls are bit-identical to the
  //    serial run, only the slot turnover time changes.
  {
    // The pool only exists when parallelism was requested; a serial run
    // never spawns a worker.
    std::unique_ptr<ThreadPool> pool;
    if (threads != 1) pool = std::make_unique<ThreadPool>(threads);
    SlotContext parallel_slot = slot;
    parallel_slot.pool = pool.get();
    std::vector<PointMultiQuery> multi;
    multi.reserve(queries.size());
    for (const PointQuery& q : queries) multi.emplace_back(q, &parallel_slot);
    std::vector<MultiQuery*> ptrs;
    for (PointMultiQuery& q : multi) ptrs.push_back(&q);
    const auto start = std::chrono::steady_clock::now();
    const SelectionResult joint = GreedySensorSelection(ptrs, parallel_slot);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    std::printf("\nJoint greedy (%d thread%s): utility=%.2f, %zu sensors, "
                "%lld valuation calls, slot turnover %.3f ms\n",
                threads, threads == 1 ? "" : "s", joint.Utility(),
                joint.selected_sensors.size(),
                static_cast<long long>(joint.valuation_calls), ms);
  }
  return 0;
}
