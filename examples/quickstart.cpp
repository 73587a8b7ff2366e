// Quickstart: the smallest end-to-end use of the psens public API.
//
// Sets up a handful of mobile sensors, submits point queries for one time
// slot, runs the three schedulers, and prints who got what at which price;
// then runs the same queries through Algorithm 1's joint greedy selection.

#include <cstdio>

#include "common/rng.h"
#include "core/greedy.h"
#include "core/multi_query.h"
#include "core/point_scheduling.h"
#include "core/sensor.h"
#include "core/slot.h"

int main() {
  using namespace psens;

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
  //    the rule the serving engine runs every slot.
  {
    std::vector<PointMultiQuery> multi;
    multi.reserve(queries.size());
    for (const PointQuery& q : queries) multi.emplace_back(q, &slot);
    std::vector<MultiQuery*> ptrs;
    for (PointMultiQuery& q : multi) ptrs.push_back(&q);
    const SelectionResult joint = GreedySensorSelection(ptrs, slot);
    std::printf("\nJoint greedy: utility=%.2f, %zu sensors, "
                "%lld valuation calls\n",
                joint.Utility(), joint.selected_sensors.size(),
                static_cast<long long>(joint.valuation_calls));
  }
  return 0;
}
