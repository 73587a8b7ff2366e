#include "core/sensor_delta.h"

#include <cmath>
#include <cstdio>
#include <utility>

namespace psens {
namespace {

std::string FormatF64(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

/// Sets *error to a refusal naming the entry (e.g. "arrival 0 (sensor
/// 3)"), the field, and its value; returns false.
bool RefuseValue(const char* kind, size_t i, int sensor_id, const char* field,
                 double value, const char* why, std::string* error) {
  *error = std::string(kind) + " " + std::to_string(i) + " (sensor " +
           std::to_string(sensor_id) + ") " + field + " " + FormatF64(value) +
           " " + why;
  return false;
}

/// A non-finite coordinate would reach the spatial index and every
/// distance test. `kind` names the delta section ("arrival", "move").
bool CheckPlacements(const std::vector<SensorDelta::Placement>& placements,
                     const char* kind, std::string* error) {
  for (size_t i = 0; i < placements.size(); ++i) {
    const SensorDelta::Placement& p = placements[i];
    const std::pair<const char*, double> fields[] = {
        {"position.x", p.position.x}, {"position.y", p.position.y}};
    for (const auto& [field, value] : fields) {
      if (std::isfinite(value)) continue;
      return RefuseValue(kind, i, p.sensor_id, field, value, "is not finite",
                         error);
    }
  }
  return true;
}

/// A base price becomes an announced cost: NaN would make nets NaN, which
/// the sieve's threshold tests pass and would commit (the CELF frontier
/// ranks a NaN net last and never commits it), and a negative price would
/// yield negative payments.
bool CheckPriceChanges(const std::vector<SensorDelta::PriceChange>& changes,
                       std::string* error) {
  for (size_t i = 0; i < changes.size(); ++i) {
    const SensorDelta::PriceChange& pc = changes[i];
    const bool finite = std::isfinite(pc.base_price);
    if (finite && pc.base_price >= 0.0) continue;
    return RefuseValue("price change", i, pc.sensor_id, "base_price",
                       pc.base_price, finite ? "is negative" : "is not finite",
                       error);
  }
  return true;
}

/// The registry is indexed by the delta's sensor ids, so an id outside
/// [0, registry_count) would read and write out of bounds.
bool CheckSensorIds(const SensorDelta& delta, size_t registry_count,
                    std::string* error) {
  const auto check = [&](int id, const char* kind) {
    if (id >= 0 && static_cast<size_t>(id) < registry_count) return true;
    *error = std::string(kind) + " sensor id " + std::to_string(id) +
             " outside the registry [0, " + std::to_string(registry_count) +
             ")";
    return false;
  };
  for (const SensorDelta::Placement& a : delta.arrivals) {
    if (!check(a.sensor_id, "arrival")) return false;
  }
  for (int id : delta.departures) {
    if (!check(id, "departure")) return false;
  }
  for (const SensorDelta::Placement& m : delta.moves) {
    if (!check(m.sensor_id, "move")) return false;
  }
  for (const SensorDelta::PriceChange& pc : delta.price_changes) {
    if (!check(pc.sensor_id, "price-change")) return false;
  }
  return true;
}

}  // namespace

bool ValidateSensorDelta(const SensorDelta& delta, size_t registry_count,
                         std::string* error) {
  return CheckPlacements(delta.arrivals, "arrival", error) &&
         CheckPlacements(delta.moves, "move", error) &&
         CheckPriceChanges(delta.price_changes, error) &&
         CheckSensorIds(delta, registry_count, error);
}

}  // namespace psens
