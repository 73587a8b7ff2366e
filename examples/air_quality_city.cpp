// Air-quality monitoring over a city (the paper's motivating scenario):
// a hotspot downtown roamed by citizens with CO2 sensors, serving a mix of
//   * end-user point queries ("what is the CO2 level at my location?"),
//   * spatial-aggregate queries ("average CO2 over the park"), and
//   * continuous location-monitoring queries ("track CO2 at my home
//     8am-6pm").
// Runs Algorithm 5 (joint greedy acquisition) against the sequential
// baseline over a multi-slot day and prints the running social welfare.

#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "core/query_mix.h"
#include "core/slot.h"
#include "data/ozone_trace.h"
#include "mobility/synthetic_nokia.h"
#include "sim/workload.h"
#include "sim/experiments.h"

int main() {
  using namespace psens;
  constexpr int kSlots = 20;

  // Mobility: synthetic city trace (Nokia-campaign substitute).
  SyntheticNokiaConfig city;
  city.num_slots = kSlots;
  city.num_total_sensors = 300;
  city.num_base_users = 120;
  city.seed = 2024;
  const Trace trace = GenerateSyntheticNokia(city);
  const Rect downtown = NokiaWorkingRegion(city);

  // Historical CO2-like series for the monitoring valuation.
  OzoneTraceConfig history_config;
  history_config.num_days = 1;
  history_config.slots_per_day = kSlots;
  const OzoneTrace history = GenerateOzoneTrace(history_config);

  // Participants' devices.
  Rng rng(7);
  SensorPopulationConfig population;
  population.count = trace.NumSensors();
  population.random_privacy = true;  // citizens care about location privacy
  population.linear_energy = true;
  population.lifetime = kSlots;
  std::vector<Sensor> sensors_alg5 = GenerateSensors(population, rng);
  std::vector<Sensor> sensors_base = sensors_alg5;

  LocationMonitoringManager::Config lm_config;
  LocationMonitoringManager monitors_alg5(history.times, history.values, lm_config);
  lm_config.desired_times_only = true;
  LocationMonitoringManager monitors_base(history.times, history.values, lm_config);

  Rng workload_rng(99);
  double welfare_alg5 = 0.0, welfare_base = 0.0;
  std::printf("slot  alg5_utility  baseline_utility  alg5_cum  baseline_cum\n");
  for (int t = 0; t < kSlots; ++t) {
    // This slot's demand.
    Rng slot_rng = workload_rng.Fork(t);
    const auto points = GeneratePointQueries(
        120, downtown, BudgetScheme{15.0, false, 0.0}, 0.2, t * 1000, slot_rng);
    const auto aggregates = GenerateAggregateQueries(8, downtown, 10.0, 15.0,
                                                     t * 100, slot_rng);
    if (t % 3 == 0) {
      const auto q = GenerateLocationMonitoringQuery(
          t, downtown, t, kSlots, history.times, history.values, 15.0, slot_rng);
      monitors_alg5.AddQuery(q);
      monitors_base.AddQuery(q);
    }

    auto run = [&](std::vector<Sensor>& sensors, LocationMonitoringManager& lm,
                   bool greedy) {
      ApplyTraceSlot(trace, t, &sensors);
      const SlotContext slot = BuildSlotContext(sensors, downtown, t, 10.0);
      QueryMixOptions options;
      options.use_greedy = greedy;
      const QueryMixSlotResult r =
          RunQueryMixSlot(slot, points, aggregates, &lm, nullptr, options);
      for (int si : r.selected_sensors) {
        sensors[slot.sensors.sensor_id[si]].RecordReading(t);
      }
      lm.RemoveExpired(t + 1);
      return r.Utility();
    };
    const double u5 = run(sensors_alg5, monitors_alg5, /*greedy=*/true);
    const double ub = run(sensors_base, monitors_base, /*greedy=*/false);
    welfare_alg5 += u5;
    welfare_base += ub;
    std::printf("%4d  %12.1f  %16.1f  %8.1f  %12.1f\n", t, u5, ub, welfare_alg5,
                welfare_base);
  }
  std::printf("\nday total: Alg5 %.1f vs baseline %.1f (%.0f%% improvement)\n",
              welfare_alg5, welfare_base,
              welfare_base > 0 ? 100.0 * (welfare_alg5 - welfare_base) / welfare_base
                               : 100.0);
  return 0;
}
