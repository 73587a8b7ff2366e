#ifndef PSENS_SIM_WORKLOAD_H_
#define PSENS_SIM_WORKLOAD_H_

#include <vector>

#include "common/geometry.h"
#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/location_monitoring.h"
#include "core/point_query.h"
#include "core/region_monitoring.h"
#include "core/sensor.h"
#include "engine/acquisition_engine.h"

namespace psens {

/// Budget scheme for end-user point queries (Section 4.3): fixed, or
/// uniform in [mean - halfwidth, mean + halfwidth] (Fig. 4).
struct BudgetScheme {
  double mean = 15.0;
  bool uniform = false;
  double halfwidth = 10.0;

  double Draw(Rng& rng) const {
    if (!uniform) return mean;
    return rng.Uniform(mean - halfwidth, mean + halfwidth);
  }
};

/// Generates `count` point queries with locations uniform in `region`.
std::vector<PointQuery> GeneratePointQueries(int count, const Rect& region,
                                             const BudgetScheme& budget,
                                             double theta_min, int id_base,
                                             Rng& rng);

/// Generates spatial-aggregate query parameters (Section 4.4): the number
/// of queries is uniform with the given mean, regions are random
/// rectangles inside `working`, and B_q = A(r) / (1.5 r_s) * budget_factor
/// with r_s = dmax.
std::vector<AggregateQuery::Params> GenerateAggregateQueries(
    int mean_count, const Rect& working, double sensing_range,
    double budget_factor, int id_base, Rng& rng);

/// Sensor-profile randomization used across experiments (Section 4.1):
/// inaccuracy uniform in [0, 0.2]; optionally a random privacy
/// sensitivity level and the linear energy model with beta in [0, 4].
struct SensorPopulationConfig {
  int count = 0;
  double base_price = 10.0;
  double inaccuracy_max = 0.2;
  bool random_privacy = false;
  bool linear_energy = false;
  double beta_max = 4.0;
  int lifetime = 50;
  int privacy_window = 5;
  /// Trust values: sensors fully trusted by default; when
  /// `random_trust` is set, trust is uniform in [trust_min, 1].
  bool random_trust = false;
  double trust_min = 0.5;
};

std::vector<Sensor> GenerateSensors(const SensorPopulationConfig& config, Rng& rng);

/// True when a population generated from `config` carries observable state
/// across time slots of a `num_slots`-slot run, i.e. when slot outcomes
/// feed back into later slots' sensor announcements:
///   - the linear energy model raises a sensor's price with each reading,
///   - privacy-sensitive sensors raise their price after recent reports,
///   - a lifetime shorter than the run lets sensors wear out mid-run.
/// When this returns false, slots are mutually independent given the seed
/// and the mobility trace, and the experiment runners may shard them
/// across threads (see the `parallelism` knob in sim/experiments.h).
bool HasCrossSlotFeedback(const SensorPopulationConfig& config, int num_slots);

// ---------------------------------------------------------------------------
// Large-scale clustered populations (fig11_scale_sweep)
// ---------------------------------------------------------------------------

/// Generator for city-scale sensor populations (100k-1M participants):
/// sensors concentrate in Gaussian clusters ("districts") whose weights
/// follow a Zipf-like law, over a uniform background — the density skew of
/// real participatory deployments that uniform populations miss, and the
/// crowded grid cells the spatial index must stay exact and fast on.
struct ClusteredPopulationConfig {
  int count = 100'000;
  int num_clusters = 32;
  /// Standard deviation of each Gaussian cluster, in field units.
  double cluster_sigma = 5.0;
  /// Zipf exponent of the cluster weights (w_k proportional to
  /// (k+1)^-skew); 0 spreads sensors evenly across clusters.
  double density_skew = 1.0;
  /// Fraction of sensors scattered uniformly over the whole field.
  double background_fraction = 0.1;
  /// Profile randomization shared with GenerateSensors (`count` ignored).
  SensorPopulationConfig profile;
};

struct ScaleScenario {
  /// Sensors with positions set and marked present (no mobility trace —
  /// the scale sweep studies single-slot scheduling throughput).
  std::vector<Sensor> sensors;
  std::vector<Point> cluster_centers;
  /// Cumulative cluster weights, for sampling query locations with the
  /// same spatial skew as the population.
  std::vector<double> cluster_cdf;
  Rect field{0, 0, 0, 0};
};

ScaleScenario GenerateClusteredSensors(const ClusteredPopulationConfig& config,
                                       const Rect& field, Rng& rng);

/// Point queries whose locations follow the scenario's clustered density
/// (cluster draw + Gaussian offset, uniform with the scenario's background
/// probability) — the traffic shape of users querying where sensors are.
std::vector<PointQuery> GenerateClusteredPointQueries(
    int count, const ScaleScenario& scenario,
    const ClusteredPopulationConfig& config, const BudgetScheme& budget,
    double theta_min, int id_base, Rng& rng);

/// A location drawn with the scenario's clustered spatial law (uniform in
/// the field with the background probability, else a Gaussian offset from
/// a weight-sampled cluster center). Exposed so churn streams place
/// arriving and relocating sensors with the same density as the initial
/// population.
Point DrawScenarioLocation(const ScaleScenario& scenario,
                           const ClusteredPopulationConfig& config, Rng& rng);

// ---------------------------------------------------------------------------
// Streaming sensor churn (fig12_streaming, AcquisitionEngine workloads)
// ---------------------------------------------------------------------------

/// Per-slot population turbulence for a long-running aggregator: sensors
/// arrive and depart as Poisson streams, a fraction of the live fleet
/// relocates, and a fraction re-announces a jittered price. Rates are
/// absolute per slot, so "1% churn at 100k sensors" is
/// arrival_rate = departure_rate = 1000.
struct ChurnConfig {
  /// Expected arrivals per slot (Poisson; capped by the parked pool).
  double arrival_rate = 0.0;
  /// Expected departures per slot (Poisson; capped by the live pool).
  double departure_rate = 0.0;
  /// Fraction of live sensors re-announcing a new location each slot.
  double move_fraction = 0.0;
  /// Fraction of live sensors re-announcing a jittered price each slot.
  double price_jitter_fraction = 0.0;
  /// Relative price jitter: new C_s = original C_s * U(1 - j, 1 + j).
  double price_jitter = 0.2;
};

/// Deterministic generator of SensorDelta streams over a registry: tracks
/// which sensors are live vs parked so arrivals only resurrect absent
/// sensors and departures only remove live ones. Placement of arrivals
/// and moves follows the clustered scenario law when one is supplied
/// (SetClusteredPlacement), else uniform in `field`.
class ChurnStream {
 public:
  ChurnStream(const ChurnConfig& config, const std::vector<Sensor>& registry,
              const Rect& field);

  /// Draw arrival/move locations with the scenario's clustered density.
  /// Both pointers must outlive the stream.
  void SetClusteredPlacement(const ScaleScenario* scenario,
                             const ClusteredPopulationConfig* cluster_config);

  /// The next slot's delta. Consumes `rng` deterministically, so two
  /// streams constructed identically and fed the same Rng produce the
  /// same delta sequence.
  SensorDelta Next(Rng& rng);

  int num_live() const { return static_cast<int>(live_.size()); }

 private:
  Point DrawLocation(Rng& rng);
  /// Moves `count` uniformly-sampled ids from `from` to `to`, appending
  /// them to `out`.
  void Transfer(int count, std::vector<int>* from, std::vector<int>* to,
                std::vector<int>* out, Rng& rng);

  ChurnConfig config_;
  Rect field_;
  const ScaleScenario* scenario_ = nullptr;
  const ClusteredPopulationConfig* cluster_config_ = nullptr;
  std::vector<int> live_;
  std::vector<int> parked_;
  /// Original C_s per sensor id: jitter is relative to the sensor's
  /// initial announcement, not compounded across slots.
  std::vector<double> base_price_;
};

/// The city-scale churn scenario shared by the fig12/fig13 gate rows and
/// the trace record/replay layer: constant-density clustered population
/// over a field whose side grows with n, Poisson arrival/departure churn
/// at `churn_fraction` of the population per slot (plus relocation and
/// price-jitter streams when `with_mobility`), and the canonical RNG
/// layout — scenario generation consumes the base seed, then forks 7
/// (churn deltas) and 8 (per-slot queries) are taken from copies of
/// `rng_after_generation`. One constructor for every consumer keeps the
/// benches, the golden traces, and the replay differential tests
/// measuring the same workload by construction.
struct ChurnScenarioSetup {
  double side = 0.0;
  double dmax = 5.0;
  Rect field;
  ClusteredPopulationConfig config;
  ScaleScenario scenario;
  ChurnConfig churn;
  Rng rng_after_generation{0};
};

ChurnScenarioSetup MakeChurnScenario(int n, double churn_fraction,
                                     uint64_t seed, bool with_mobility);

/// Overload with an explicit sensor profile (energy model, privacy
/// sensitivity, lifetime) — the closed-loop runs that exercise
/// RecordSlotReadings feedback use this to give slot outcomes something
/// to feed back into.
ChurnScenarioSetup MakeChurnScenario(int n, double churn_fraction,
                                     uint64_t seed, bool with_mobility,
                                     const SensorPopulationConfig& profile);

/// New location-monitoring query (Section 4.5): random location in
/// `working`, duration uniform in [5, 20] (clipped to `horizon`), desired
/// sampling times = duration/3 slots picked by the OptiMoS-style selector
/// over the historical series, budget = duration * budget_factor.
LocationMonitoringQuery GenerateLocationMonitoringQuery(
    int id, const Rect& working, int t_now, int horizon,
    const std::vector<double>& history_times,
    const std::vector<double>& history_values, double budget_factor, Rng& rng);

/// New region-monitoring query (Section 4.6): random rectangle inside
/// `field`, duration uniform in [5, 20], budget = A(r) / (3 pi r_s^2) *
/// budget_factor.
RegionMonitoringQuery GenerateRegionMonitoringQuery(int id, const Rect& field,
                                                    int t_now, int horizon,
                                                    double sensing_radius,
                                                    double budget_factor, Rng& rng);

/// A random axis-aligned rectangle inside `bounds` (both dimensions at
/// least `min_extent`).
Rect RandomRect(const Rect& bounds, double min_extent, Rng& rng);

}  // namespace psens

#endif  // PSENS_SIM_WORKLOAD_H_
