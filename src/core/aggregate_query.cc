#include "core/aggregate_query.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "core/slot.h"

namespace psens {
namespace {

int PopCount(const std::vector<uint64_t>& mask) {
  int count = 0;
  for (uint64_t word : mask) count += std::popcount(word);
  return count;
}

int PopCountOr(const std::vector<uint64_t>& a, const uint64_t* b) {
  int count = 0;
  for (size_t i = 0; i < a.size(); ++i) count += std::popcount(a[i] | b[i]);
  return count;
}

void OrInto(std::vector<uint64_t>& acc, const uint64_t* mask) {
  for (size_t i = 0; i < acc.size(); ++i) acc[i] |= mask[i];
}

/// Position of `sensor` in the ascending candidate list, or -1 when the
/// sensor covers no cell. Sensor-addressed calls (MarginalValue, Commit,
/// ValueOf) resolve here.
int OrdinalIn(const std::vector<int>& candidates, int sensor) {
  const auto it =
      std::lower_bound(candidates.begin(), candidates.end(), sensor);
  if (it == candidates.end() || *it != sensor) return -1;
  return static_cast<int>(it - candidates.begin());
}

/// Location-independent sensor quality used by the aggregate valuation.
double SensorTheta(double inaccuracy, double trust) {
  return (1.0 - inaccuracy) * trust;
}

/// `v` clamped to [0, hi] in double, then truncated: no float-to-int
/// conversion can overflow, and NaN maps to 0.
int ClampIndex(double v, int hi) {
  if (!(v > 0.0)) return 0;
  if (v >= hi) return hi;
  return static_cast<int>(v);
}

/// Inclusive index run [first, last] of the ascending axis centers
/// `origin + (i + 0.5) * cell` that pass the 1-D disk test around `p`;
/// empty when first > last. The arithmetic estimate only seeds a walk
/// over `side`, so the run is exact whatever the estimate's rounding.
struct AxisRun {
  int first;
  int last;
};

AxisRun AxisWindow(const std::vector<double>& centers, double origin,
                   double cell, double p, double range) {
  const int hi = static_cast<int>(centers.size()) - 1;
  // Center i under the 1-D test sqrt(d * d) <= range, rounded as
  // `Distance` rounds it with the other coordinate equal: 0 = fails below
  // p, 1 = passes, 2 = fails above p (or NaN). Non-decreasing in i.
  const auto side = [&](int i) {
    const double d = centers[i] - p;
    if (std::sqrt(d * d) <= range) return 1;
    return d < 0.0 ? 0 : 2;
  };
  int first = ClampIndex(std::ceil((p - range - origin) / cell - 0.5), hi);
  while (first > 0 && side(first - 1) >= 1) --first;
  while (first <= hi && side(first) < 1) ++first;
  int last = ClampIndex(std::floor((p + range - origin) / cell - 0.5), hi);
  while (last < hi && side(last + 1) <= 1) ++last;
  while (last >= 0 && side(last) > 1) --last;
  return AxisRun{first, last};
}

}  // namespace

template <typename Cover>
void AggregateQuery::BindCandidates(const SlotContext& slot, const Rect& reach,
                                    const Cover& cover) {
  std::vector<int> coarse;
  SlotRowsInRect(slot, reach, &coarse);
  // Survivors ascend, so candidates_ does; their location and quality
  // inputs stream from the slot's columns.
  const SlotSensorTable& table = slot.sensors;
  std::vector<uint64_t> mask(static_cast<size_t>(NumWords()));
  for (int si : coarse) {
    std::fill(mask.begin(), mask.end(), 0);
    if (!cover(Point{table.x[si], table.y[si]}, mask.data())) continue;
    mask_words_.insert(mask_words_.end(), mask.begin(), mask.end());
    theta_.push_back(SensorTheta(table.inaccuracy[si], table.trust[si]));
    candidates_.push_back(si);
  }
  acc_mask_.assign(NumWords(), 0);
  cached_at_.assign(candidates_.size(), 0);
  cached_delta_.resize(candidates_.size());
}

AggregateQuery::AggregateQuery(const Params& params, const SlotContext& slot)
    : MultiQueryBase(params.id), budget_(params.budget) {
  const double cell = std::max(1e-9, params.cell_size);
  const int cells_x =
      std::max(1, static_cast<int>(std::ceil(params.region.Width() / cell)));
  const int cells_y =
      std::max(1, static_cast<int>(std::ceil(params.region.Height() / cell)));
  num_cells_ = cells_x * cells_y;
  // Cell centers per axis, from the same expressions (same operand order)
  // a per-cell evaluation would use, so every center keeps its bits.
  std::vector<double> col_x(static_cast<size_t>(cells_x));
  for (int cx = 0; cx < cells_x; ++cx) {
    col_x[cx] = params.region.x_min + (cx + 0.5) * cell;
  }
  std::vector<double> row_y(static_cast<size_t>(cells_y));
  for (int cy = 0; cy < cells_y; ++cy) {
    row_y[cy] = params.region.y_min + (cy + 0.5) * cell;
  }

  const double range = params.sensing_range;
  // Quick reject: a sensing disk touching the region requires the sensor
  // inside the region grown by the range.
  const Rect grown{params.region.x_min - range, params.region.y_min - range,
                   params.region.x_max + range, params.region.y_max + range};
  // Each survivor tests only the cells of its exact axis windows. A cell
  // is covered iff Distance(center, loc) <= range, i.e. iff
  // sqrt(fl(fl(dx*dx) + fl(dy*dy))) <= range. IEEE rounding is monotone
  // and fl(dy*dy) >= 0, so the rounded sum is never below fl(dx*dx), and
  // sqrt is monotone: a column failing the 1-D test sqrt(fl(dx*dx)) <=
  // range (the same predicate with dy = 0) fails in every row, and a NaN
  // sum fails the 2-D test outright. Rows likewise. The 1-D test is
  // monotone in |dx| and the centers ascend with the index, so the
  // passing columns form one run, which AxisWindow finds exactly. The
  // unchanged 2-D test over the window therefore sets exactly the bits a
  // test of every region cell would set, in O(window cells) per
  // candidate.
  BindCandidates(slot, grown, [&](const Point& loc, uint64_t* mask) {
    const AxisRun cols =
        AxisWindow(col_x, params.region.x_min, cell, loc.x, range);
    if (cols.first > cols.last) return false;
    const AxisRun rows =
        AxisWindow(row_y, params.region.y_min, cell, loc.y, range);
    bool any = false;
    for (int cy = rows.first; cy <= rows.last; ++cy) {
      for (int cx = cols.first; cx <= cols.last; ++cx) {
        // Branch-free: which window cells pass is data-dependent.
        const bool in = Distance(Point{col_x[cx], row_y[cy]}, loc) <= range;
        const int c = cy * cells_x + cx;
        mask[c / 64] |= uint64_t{in} << (c % 64);
        any |= in;
      }
    }
    return any;
  });
}

AggregateQuery::AggregateQuery(const TrajectoryParams& params,
                               const SlotContext& slot)
    : MultiQueryBase(params.id), budget_(params.budget) {
  // Cells of interest: grid cells of the trajectory's bounding box whose
  // center lies within `corridor` of the polyline.
  const double cell = std::max(1e-9, params.cell_size);
  const Rect box = params.trajectory.BoundingBox();
  const double corridor = params.corridor;
  const int nx = std::max(
      1, static_cast<int>(std::ceil((box.Width() + 2 * corridor) / cell)));
  const int ny = std::max(
      1, static_cast<int>(std::ceil((box.Height() + 2 * corridor) / cell)));
  std::vector<Point> centers;
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      const Point center{box.x_min - corridor + (x + 0.5) * cell,
                         box.y_min - corridor + (y + 0.5) * cell};
      if (params.trajectory.DistanceTo(center) <= corridor) {
        centers.push_back(center);
      }
    }
  }
  if (centers.empty()) {
    // Degenerate trajectory: its first waypoint (if any) is the single
    // cell of interest.
    const std::vector<Point>& waypoints = params.trajectory.waypoints;
    centers.push_back(waypoints.empty() ? Point{0, 0} : waypoints.front());
  }
  num_cells_ = static_cast<int>(centers.size());

  // Coarse reject: a sensor covering any corridor cell lies inside the
  // cell centers' bounding box grown by the sensing range. Grow by a
  // rounding slack too: a boundary sensor lost to the +-range
  // arithmetic's rounding would drop a candidate a test of every sensor
  // keeps. The slack dwarfs that rounding while staying far below any
  // cell size.
  Rect grown{centers[0].x, centers[0].y, centers[0].x, centers[0].y};
  for (const Point& c : centers) {
    grown.x_min = std::min(grown.x_min, c.x);
    grown.x_max = std::max(grown.x_max, c.x);
    grown.y_min = std::min(grown.y_min, c.y);
    grown.y_max = std::max(grown.y_max, c.y);
  }
  const double range = params.sensing_range;
  const double slack =
      1e-9 * (1.0 + std::abs(grown.x_max) + std::abs(grown.y_max) +
              std::abs(grown.x_min) + std::abs(grown.y_min) + range);
  grown.x_min -= range + slack;
  grown.y_min -= range + slack;
  grown.x_max += range + slack;
  grown.y_max += range + slack;
  BindCandidates(slot, grown, [&](const Point& loc, uint64_t* mask) {
    bool any = false;
    for (int c = 0; c < num_cells_; ++c) {
      if (Distance(centers[c], loc) <= range) {
        mask[c / 64] |= uint64_t{1} << (c % 64);
        any = true;
      }
    }
    return any;
  });
}

const std::vector<int>* AggregateQuery::CandidateSensors() const {
  return &candidates_;
}

double AggregateQuery::ValueFrom(int covered_cells, double theta_sum,
                                 int count) const {
  if (count == 0) return 0.0;
  const double coverage = static_cast<double>(covered_cells) / num_cells_;
  return budget_ * coverage * (theta_sum / count);
}

double AggregateQuery::MarginalValue(int sensor) const {
  ++valuation_calls_;
  const int ord = OrdinalIn(candidates_, sensor);
  if (ord < 0) return 0.0;  // not a candidate: no change
  const int new_covered = PopCountOr(acc_mask_, MaskOf(ord));
  return ValueFrom(new_covered, theta_sum_ + theta_[ord],
                   static_cast<int>(selected_.size()) + 1) -
         current_value_;
}

void AggregateQuery::MarginalsAt(std::span<const int> keys,
                                 std::span<double> out) const {
  // Selection state and slab stride read once: the memo stores below
  // would otherwise force a reload of each per key.
  const uint64_t version = state_version_;
  const double theta_sum = theta_sum_;
  const double current_value = current_value_;
  const int count = static_cast<int>(selected_.size()) + 1;
  const size_t words = static_cast<size_t>(NumWords());
  for (size_t i = 0; i < keys.size(); ++i) {
    const int ord = keys[i];
    if (cached_at_[ord] == version) {
      out[i] = cached_delta_[ord];
      continue;
    }
    const int new_covered = PopCountOr(
        acc_mask_, mask_words_.data() + static_cast<size_t>(ord) * words);
    out[i] = ValueFrom(new_covered, theta_sum + theta_[ord], count) -
             current_value;
    cached_at_[ord] = version;
    cached_delta_[ord] = out[i];
  }
}

void AggregateQuery::Commit(int sensor, double payment) {
  const int ord = OrdinalIn(candidates_, sensor);
  if (ord >= 0) {
    OrInto(acc_mask_, MaskOf(ord));
    covered_cells_ = PopCount(acc_mask_);
    theta_sum_ += theta_[ord];
  }
  selected_.push_back(sensor);
  current_value_ = ValueFrom(covered_cells_, theta_sum_,
                             static_cast<int>(selected_.size()));
  total_payment_ += payment;
  ++state_version_;  // |S| changed even when ord < 0: every memo is stale
}

void AggregateQuery::ResetSelection() {
  MultiQueryBase::ResetSelection();
  acc_mask_.assign(NumWords(), 0);
  covered_cells_ = 0;
  theta_sum_ = 0.0;
  ++state_version_;
}

double AggregateQuery::CurrentCoverage() const {
  return num_cells_ > 0 ? static_cast<double>(covered_cells_) / num_cells_ : 0.0;
}

double AggregateQuery::ValueOf(const std::vector<int>& sensors) const {
  std::vector<uint64_t> acc(NumWords(), 0);
  double theta_sum = 0.0;
  int count = 0;
  for (int s : sensors) {
    const int ord = OrdinalIn(candidates_, s);
    if (ord >= 0) {
      OrInto(acc, MaskOf(ord));
      theta_sum += theta_[ord];
    }
    ++count;
  }
  return ValueFrom(PopCount(acc), theta_sum, count);
}

}  // namespace psens
