#ifndef PSENS_CORE_SENSOR_DELTA_H_
#define PSENS_CORE_SENSOR_DELTA_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/geometry.h"

namespace psens {

/// One slot's worth of sensor-population change, as produced by the
/// churn/mobility workload streams (sim/workload.h) or assembled by an
/// application driving the engine directly. Deltas are applied in field
/// order: arrivals, departures, moves, price changes; a later entry for
/// the same sensor wins.
///
/// Lives in core (not engine): both the serving engine
/// (engine/acquisition_engine.h) and delta-absorbing schedulers
/// (core/sieve_streaming.h) consume it, and plain churn data has no
/// business pulling the engine layer into the scheduler core.
struct SensorDelta {
  struct Placement {
    int sensor_id = 0;
    Point position;
  };
  struct PriceChange {
    int sensor_id = 0;
    double base_price = 0.0;
  };
  /// Sensors announcing themselves present at a location.
  std::vector<Placement> arrivals;
  /// Sensors leaving the system (presence off; profile state retained).
  std::vector<int> departures;
  /// Present sensors re-announcing a new location.
  std::vector<Placement> moves;
  /// Sensors re-announcing a new fixed price component C_s.
  std::vector<PriceChange> price_changes;

  bool empty() const {
    return arrivals.empty() && departures.empty() && moves.empty() &&
           price_changes.empty();
  }
};

/// Whether `delta` can be applied to a registry of `registry_count`
/// sensors. Refuses a non-finite arrival or move coordinate, a NaN,
/// infinite or negative price, and a sensor id outside
/// [0, registry_count), checked in that order; on refusal sets *error to
/// a message naming the entry, field and value (e.g. "arrival 0 (sensor
/// 3) position.x nan is not finite") and returns false. The one check
/// shared by trace decode (TraceFile::DecodeSlot) and the live engine
/// (AcquisitionEngine::ApplyDelta).
bool ValidateSensorDelta(const SensorDelta& delta, size_t registry_count,
                         std::string* error);

}  // namespace psens

#endif  // PSENS_CORE_SENSOR_DELTA_H_
