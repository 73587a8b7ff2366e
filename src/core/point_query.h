#ifndef PSENS_CORE_POINT_QUERY_H_
#define PSENS_CORE_POINT_QUERY_H_

#include "common/geometry.h"
#include "core/slot.h"

namespace psens {

/// A single-sensor point query (Section 2.2.1): the value of a reading of
/// quality theta is B_q * theta when theta >= theta_min, else 0 (Eq. 3).
struct PointQuery {
  int id = 0;
  Point location;
  /// Budget B_q; the user pays at most this for a perfect reading.
  double budget = 0.0;
  /// Minimum acceptable quality theta_min (Eq. 3); the paper uses 0.2.
  double theta_min = 0.2;
  /// Identifier of the continuous query this point query was generated
  /// for (Algorithms 2/3), or -1 for an end-user query.
  int parent = -1;
};

/// Valuation v_q(s) of Eq. (3) for a slot sensor.
inline double PointQueryValue(const PointQuery& q, const SlotSensor& s,
                              double dmax) {
  const double theta = SlotQuality(s, q.location, dmax);
  if (theta < q.theta_min) return 0.0;
  return q.budget * theta;
}

/// Column-kernel form of Eq. (3): the same valuation from SlotSensorTable
/// column entries. Routes through the same ReadingQuality as the row form
/// with identically ordered operands, so for equal inputs the result is
/// bit-identical whatever the build flags.
inline double PointQueryValueAt(const PointQuery& q, double x, double y,
                                double inaccuracy, double trust, double dmax) {
  const double theta =
      ReadingQuality(inaccuracy, trust, Distance(Point{x, y}, q.location), dmax);
  if (theta < q.theta_min) return 0.0;
  return q.budget * theta;
}

}  // namespace psens

#endif  // PSENS_CORE_POINT_QUERY_H_
