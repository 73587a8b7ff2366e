// Campus temperature monitoring with region-monitoring queries
// (Algorithms 3 + 4): facilities teams monitor building zones of a campus
// modeled as a Gaussian random field (the Intel-lab substitute). Shows the
// GP machinery end to end: per-slot sampling-point selection, point-query
// generation, Eq. (18) cost weighting, opportunistic sensor sharing, and
// the achieved-vs-requested quality metric.

#include <cstdio>

#include "common/rng.h"
#include "core/point_scheduling.h"
#include "core/region_monitoring.h"
#include "core/slot.h"
#include "data/gaussian_field.h"
#include "mobility/random_waypoint.h"
#include "sim/workload.h"
#include "sim/experiments.h"

int main() {
  using namespace psens;
  constexpr int kSlots = 25;

  // The campus: a 20 x 15 field with spatially correlated temperature.
  GaussianField::Config field_config;
  field_config.num_slots = kSlots;
  const GaussianField field(field_config);
  const Rect campus{0, 0, 20, 15};

  // 30 staff phones roaming the campus.
  RandomWaypointConfig mobility;
  mobility.num_sensors = 30;
  mobility.num_slots = kSlots;
  mobility.region_size = 20;
  mobility.region_height = 15;
  mobility.min_max_speed = 1;
  mobility.max_max_speed = 2;
  const Trace trace = GenerateRandomWaypoint(mobility);

  Rng rng(42);
  SensorPopulationConfig population;
  population.count = 30;
  population.lifetime = kSlots;
  std::vector<Sensor> sensors = GenerateSensors(population, rng);

  RegionMonitoringManager::Config config;
  RegionMonitoringManager manager(field.SpatialKernel(), config);

  // Three standing zone-monitoring queries.
  struct Zone {
    const char* name;
    Rect region;
  };
  const Zone zones[] = {
      {"library", Rect{1, 1, 8, 7}},
      {"labs", Rect{6, 5, 14, 12}},  // overlaps the library zone
      {"cafeteria", Rect{13, 2, 19, 9}},
  };
  int id = 0;
  for (const Zone& zone : zones) {
    RegionMonitoringQuery q;
    q.id = id++;
    q.region = zone.region;
    q.t1 = 0;
    q.t2 = kSlots - 1;
    // Budget rate comparable to Fig. 9's: enough that a planned sample's
    // marginal valuation clears the C_s = 10 sensor price.
    q.budget = zone.region.Area() * 60.0;
    manager.AddQuery(q);
  }

  double welfare = 0.0;
  std::printf("slot  planned  satisfied  shared  slot_value  slot_cost\n");
  for (int t = 0; t < kSlots; ++t) {
    ApplyTraceSlot(trace, t, &sensors);
    const SlotContext slot = BuildSlotContext(sensors, campus, t, 2.0);
    const std::vector<PointQuery> created = manager.CreatePointQueries(slot);
    PointSchedulingOptions options;
    options.scheduler = PointScheduler::kOptimal;
    const PointScheduleResult schedule = SchedulePointQueries(created, slot, options);
    const RegionMonitoringManager::SlotOutcome outcome = manager.ApplyResults(
        slot, created, schedule.assignments, schedule.selected_sensors);
    for (int si : schedule.selected_sensors) {
      sensors[slot.sensors.sensor_id[si]].RecordReading(t);
    }
    welfare += outcome.value_gain - schedule.total_cost;
    std::printf("%4d  %7zu  %9d  %6.1f  %10.2f  %9.2f\n", t, created.size(),
                schedule.NumSatisfied(), outcome.contribution,
                outcome.value_gain, schedule.total_cost);
  }
  manager.RemoveExpired(kSlots + 1);
  std::printf("\ntotal welfare: %.2f  mean zone quality (achieved/requested): %.2f\n",
              welfare, manager.MeanCompletedQuality());
  // The actual field readings would now be handed to the query processor;
  // show one sample for flavor.
  std::printf("library center temperature at final slot: %.2f\n",
              field.Value(kSlots - 1, Point{4.5, 4}));
  return 0;
}
