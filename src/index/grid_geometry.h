#ifndef PSENS_INDEX_GRID_GEOMETRY_H_
#define PSENS_INDEX_GRID_GEOMETRY_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/geometry.h"

namespace psens {

/// Cell layout and binning arithmetic shared by the static
/// (`UniformGridIndex`) and dynamic (`DynamicGridIndex`) bucket grids.
/// Both grids must use the *exact same* floor/clamp binning and
/// conservative pruning bounds — the bit-identical-results contract
/// (docs/ARCHITECTURE.md) compares their probe results against the same
/// brute-force predicates, and a filter tweak applied to one grid but
/// not the other would silently break the fig11/fig12 equivalence
/// gates. Keeping the arithmetic here makes divergence impossible.
struct GridGeometry {
  Rect bounds{0, 0, 0, 0};
  double cell = 1.0;
  int nx = 1;
  int ny = 1;

  /// Auto cell sizing: ~2 points per cell over the bounding box.
  /// Degenerate boxes (all points collinear or identical) fall back to
  /// the larger extent, and finally to 1.0 so the grid always has a
  /// valid geometry.
  static double AutoCellSize(const Rect& bounds, size_t n) {
    const double area = bounds.Area();
    if (area > 0.0 && n > 0) {
      return std::max(1e-9, std::sqrt(2.0 * area / static_cast<double>(n)));
    }
    const double extent = std::max(bounds.Width(), bounds.Height());
    if (extent > 0.0 && n > 0) {
      return std::max(1e-9,
                      extent / std::max(1.0, std::sqrt(static_cast<double>(n))));
    }
    return 1.0;
  }

  /// Lays out auto-sized cells over `bounds` for an expected population
  /// of `n` points. The cell table is bounded at ~4 cells per point: a
  /// tiny cell on a huge, thin box must not allocate an unbounded
  /// histogram.
  static GridGeometry Layout(const Rect& bounds, size_t n) {
    GridGeometry g;
    g.bounds = bounds;
    g.cell = AutoCellSize(bounds, n);
    g.nx = std::max(1, static_cast<int>(std::ceil(bounds.Width() / g.cell)));
    g.ny = std::max(1, static_cast<int>(std::ceil(bounds.Height() / g.cell)));
    const long long max_cells =
        4LL * static_cast<long long>(std::max<size_t>(n, 4)) + 16;
    while (static_cast<long long>(g.nx) * g.ny > max_cells) {
      g.cell *= 2.0;
      g.nx = std::max(1, static_cast<int>(std::ceil(bounds.Width() / g.cell)));
      g.ny = std::max(1, static_cast<int>(std::ceil(bounds.Height() / g.cell)));
    }
    return g;
  }

  /// Bounding box of a point vector (empty vector: zero box at origin).
  static Rect BoundsOf(const std::vector<Point>& points) {
    Rect b{0, 0, 0, 0};
    if (points.empty()) return b;
    b.x_min = b.x_max = points[0].x;
    b.y_min = b.y_max = points[0].y;
    for (const Point& p : points) {
      b.x_min = std::min(b.x_min, p.x);
      b.x_max = std::max(b.x_max, p.x);
      b.y_min = std::min(b.y_min, p.y);
      b.y_max = std::max(b.y_max, p.y);
    }
    return b;
  }

  /// Cell coordinate of `v` (already floored, in cell units) clamped to
  /// [0, count - 1]. The clamp runs in double before the int conversion,
  /// which is undefined for NaN and out-of-range values: NaN maps to 0
  /// and +-inf or huge coordinates to the edge cells.
  static int ClampCell(double v, int count) {
    if (!(v > 0.0)) return 0;
    if (v >= count - 1) return count - 1;
    return static_cast<int>(v);
  }
  int CellX(double x) const {
    return ClampCell(std::floor((x - bounds.x_min) / cell), nx);
  }
  int CellY(double y) const {
    return ClampCell(std::floor((y - bounds.y_min) / cell), ny);
  }
  int CellOf(const Point& p) const { return CellY(p.y) * nx + CellX(p.x); }
  size_t NumCells() const { return static_cast<size_t>(nx) * ny; }
};

/// Two-phase exact disk filter shared by every index implementation:
/// squared-distance accept/reject away from the boundary, and the exact
/// `Distance(p, center) <= radius` predicate — identical to the
/// brute-force scan's — within the narrow ambiguous band.
struct RangeFilter {
  Point center;
  double radius;
  double r2_lo;
  double r2_hi;

  /// r2_lo is capped at the largest finite double: when r*r overflows,
  /// a distance whose square overflows too must reach the exact
  /// predicate (which rejects it for any finite r) instead of passing
  /// inf <= inf.
  RangeFilter(const Point& c, double r)
      : center(c),
        radius(r),
        r2_lo(std::min(r * r * (1.0 - 1e-12),
                       std::numeric_limits<double>::max())),
        r2_hi(r * r * (1.0 + 1e-12)) {}

  bool Accept(const Point& p) const {
    const double dx = p.x - center.x;
    const double dy = p.y - center.y;
    const double d2 = dx * dx + dy * dy;
    if (d2 > r2_hi) return false;
    return d2 <= r2_lo || Distance(p, center) <= radius;
  }

  /// Absolute slack for the covered-cell box: dwarfs the +-r
  /// arithmetic's rounding (so a boundary point's cell is never missed)
  /// yet stays far below any practical cell size.
  double BoxSlack() const {
    return 1e-9 * (1.0 + std::abs(center.x) + std::abs(center.y) + radius);
  }
};

}  // namespace psens

#endif  // PSENS_INDEX_GRID_GEOMETRY_H_
