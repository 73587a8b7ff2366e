#include "core/aggregate_query.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "index/spatial_index.h"

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

/// OrdinalIn for a batch of slot rows that usually ascend (the round
/// evaluator's dense keys): a cursor resumes at the previous row's
/// position, so a sweep over every row costs O(1) per row on top of one
/// step per candidate, and a lone row costs O(log C). A row below its
/// predecessor restarts the search, so any order resolves correctly.
class OrdinalCursor {
 public:
  explicit OrdinalCursor(const std::vector<int>* candidates)
      : candidates_(candidates) {}

  int Resolve(int row) {
    const std::vector<int>& c = *candidates_;
    const int size = static_cast<int>(c.size());
    if (row < prev_) at_ = 0;
    prev_ = row;
    if (at_ < size && c[static_cast<size_t>(at_)] < row) {
      ++at_;
      if (at_ < size && c[static_cast<size_t>(at_)] < row) {
        at_ = static_cast<int>(
            std::lower_bound(c.begin() + at_ + 1, c.end(), row) - c.begin());
      }
    }
    return at_ < size && c[static_cast<size_t>(at_)] == row ? at_ : -1;
  }

 private:
  const std::vector<int>* candidates_;
  int at_ = 0;  // first candidate not below the previous row
  int prev_ = 0;
};

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

/// Shared keyed-sweep kernel of the two coverage valuations (Eq. 5 over
/// region cells / trajectory-corridor cells): out[i] = marginal of the
/// sensor keys[i] addresses against the accumulated coverage state. On an
/// indexed slot a key is the candidate ordinal (`row_keyed` is null); on
/// an unindexed one it is a slot row, resolved by an OrdinalCursor over the
/// ascending candidates `row_keyed` (-1: covers nothing, marginal 0).
/// Masks live in one flat word slab (`words` per candidate ordinal) and
/// `theta` is keyed by the same ordinal, so a probe reads both next to
/// each other; `value_from` is the owner's ValueFrom (they differ only in
/// captured params).
///
/// When `cached_at`/`cached_delta` are non-null (SlotContext::use_soa), the
/// kernel memoizes each candidate's delta under `version` — the owner's
/// selection-state version, bumped on every Commit/ResetSelection. A hit
/// replays the exact double computed by this same kernel under identical
/// inputs (acc_mask, theta_sum, count, current_value are all unchanged
/// since the stamp), so served values are bit-identical to recomputation;
/// valuation-call accounting is external (the round evaluator) and does
/// not observe hits. In a joint greedy round only the queries the last
/// commit touched recompute — everyone else's sweep becomes two loads.
template <typename ValueFrom>
void CoverageMarginals(std::span<const int> keys, std::span<double> out,
                       const std::vector<int>* row_keyed,
                       const std::vector<uint64_t>& mask_words, int words,
                       const std::vector<double>& theta,
                       const std::vector<uint64_t>& acc_mask, double theta_sum,
                       int count, double current_value, uint64_t version,
                       uint64_t* cached_at, double* cached_delta,
                       const ValueFrom& value_from) {
  OrdinalCursor cursor(row_keyed);  // unused on an indexed slot
  for (size_t i = 0; i < keys.size(); ++i) {
    const int ord = row_keyed != nullptr ? cursor.Resolve(keys[i]) : keys[i];
    if (ord < 0) {
      out[i] = 0.0;
      continue;
    }
    if (cached_at != nullptr && cached_at[ord] == version) {
      out[i] = cached_delta[ord];
      continue;
    }
    const uint64_t* mask =
        mask_words.data() + static_cast<size_t>(ord) * static_cast<size_t>(words);
    const int new_covered = PopCountOr(acc_mask, mask);
    out[i] =
        value_from(new_covered, theta_sum + theta[ord], count) - current_value;
    if (cached_at != nullptr) {
      cached_at[ord] = version;
      cached_delta[ord] = out[i];
    }
  }
}

}  // namespace

AggregateQuery::AggregateQuery(const Params& params, const SlotContext& slot)
    : MultiQueryBase(params.id), params_(params) {
  const double cell = std::max(1e-9, params_.cell_size);
  cells_x_ = std::max(1, static_cast<int>(std::ceil(params_.region.Width() / cell)));
  const int cells_y =
      std::max(1, static_cast<int>(std::ceil(params_.region.Height() / cell)));
  num_cells_ = cells_x_ * cells_y;
  // Cell centers per axis, from the same expressions (same operand order)
  // a per-cell evaluation would use, so every center keeps its bits.
  std::vector<double> col_x(static_cast<size_t>(cells_x_));
  for (int cx = 0; cx < cells_x_; ++cx) {
    col_x[cx] = params_.region.x_min + (cx + 0.5) * cell;
  }
  std::vector<double> row_y(static_cast<size_t>(cells_y));
  for (int cy = 0; cy < cells_y; ++cy) {
    row_y[cy] = params_.region.y_min + (cy + 0.5) * cell;
  }

  const double range = params_.sensing_range;
  // Quick reject: a sensing disk touching the region requires the sensor
  // inside the region grown by the range. With a slot index this is one
  // rect probe instead of a full population scan; the probe returns
  // exactly the sensors the brute-force Contains test accepts, ascending.
  const Rect grown{params_.region.x_min - range, params_.region.y_min - range,
                   params_.region.x_max + range, params_.region.y_max + range};
  slot_indexed_ = slot.index != nullptr;
  const SlotSensorTable& table = slot.sensors;
  std::vector<int> coarse;
  if (slot_indexed_) {
    slot.index->RectQuery(grown, &coarse);
  } else {
    for (int si = 0; si < static_cast<int>(table.size()); ++si) {
      if (grown.Contains(Point{table.x[si], table.y[si]})) coarse.push_back(si);
    }
  }
  // Bind loop over the coarse survivors, whose location and quality
  // inputs stream from the slot's columns.
  //
  // Each survivor tests only the cells of its exact axis windows. A cell
  // is covered iff Distance(center, loc) <= range, i.e. iff
  // sqrt(fl(fl(dx*dx) + fl(dy*dy))) <= range. IEEE rounding is monotone
  // and fl(dy*dy) >= 0, so the rounded sum is never below fl(dx*dx), and
  // sqrt is monotone: a column failing the 1-D test sqrt(fl(dx*dx)) <=
  // range (the same predicate with dy = 0) fails in every row, and a NaN
  // sum fails the 2-D test outright. Rows likewise. The 1-D test is monotone in |dx| and
  // the centers ascend with the index, so the passing columns form one
  // run, which AxisWindow finds exactly. The unchanged 2-D test over the
  // window therefore sets exactly the bits a test of every region cell
  // would set, in O(window cells) per candidate.
  std::vector<uint64_t> mask(static_cast<size_t>(NumWords()), 0);
  for (int si : coarse) {
    const Point loc{table.x[si], table.y[si]};
    const AxisRun cols =
        AxisWindow(col_x, params_.region.x_min, cell, loc.x, range);
    if (cols.first > cols.last) continue;
    const AxisRun rows =
        AxisWindow(row_y, params_.region.y_min, cell, loc.y, range);
    std::fill(mask.begin(), mask.end(), 0);
    bool any = false;
    for (int cy = rows.first; cy <= rows.last; ++cy) {
      for (int cx = cols.first; cx <= cols.last; ++cx) {
        // Branch-free: which window cells pass is data-dependent.
        const bool in = Distance(Point{col_x[cx], row_y[cy]}, loc) <= range;
        const int c = cy * cells_x_ + cx;
        mask[c / 64] |= uint64_t{in} << (c % 64);
        any |= in;
      }
    }
    if (any) {
      mask_words_.insert(mask_words_.end(), mask.begin(), mask.end());
      theta_.push_back(SensorTheta(table.inaccuracy[si], table.trust[si]));
      candidates_.push_back(si);
    }
  }
  acc_mask_.assign(NumWords(), 0);
  soa_ = slot.use_soa;
  if (soa_) {
    cached_at_.assign(candidates_.size(), 0);
    cached_delta_.resize(candidates_.size());
  }
}

const std::vector<int>* AggregateQuery::CandidateSensors() const {
  return slot_indexed_ ? &candidates_ : nullptr;
}

double AggregateQuery::ValueFrom(int covered_cells, double theta_sum,
                                 int count) const {
  if (count == 0) return 0.0;
  const double coverage = static_cast<double>(covered_cells) / num_cells_;
  return params_.budget * coverage * (theta_sum / count);
}

double AggregateQuery::MarginalValue(int sensor) const {
  ++valuation_calls_;
  const int ord = OrdinalIn(candidates_, sensor);
  if (ord < 0) return 0.0;  // not a candidate: no change
  const uint64_t* mask = mask_words_.data() +
                         static_cast<size_t>(ord) * static_cast<size_t>(NumWords());
  const int new_covered = PopCountOr(acc_mask_, mask);
  const double new_value =
      ValueFrom(new_covered, theta_sum_ + theta_[ord],
                static_cast<int>(selected_.size()) + 1);
  return new_value - current_value_;
}

void AggregateQuery::MarginalsAt(std::span<const int> keys,
                                 std::span<double> out) const {
  CoverageMarginals(keys, out, slot_indexed_ ? nullptr : &candidates_,
                    mask_words_, NumWords(), theta_, acc_mask_, theta_sum_,
                    static_cast<int>(selected_.size()) + 1, current_value_,
                    state_version_, soa_ ? cached_at_.data() : nullptr,
                    soa_ ? cached_delta_.data() : nullptr,
                    [this](int covered, double ts, int count) {
                      return ValueFrom(covered, ts, count);
                    });
}

void AggregateQuery::Commit(int sensor, double payment) {
  const int ord = OrdinalIn(candidates_, sensor);
  if (ord >= 0) {
    OrInto(acc_mask_, mask_words_.data() +
                          static_cast<size_t>(ord) * static_cast<size_t>(NumWords()));
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
      OrInto(acc, mask_words_.data() +
                      static_cast<size_t>(ord) * static_cast<size_t>(NumWords()));
      theta_sum += theta_[ord];
    }
    ++count;
  }
  return ValueFrom(PopCount(acc), theta_sum, count);
}

// ---------------------------------------------------------------------------
// TrajectoryQuery
// ---------------------------------------------------------------------------

TrajectoryQuery::TrajectoryQuery(const Params& params, const SlotContext& slot)
    : MultiQueryBase(params.id), params_(params) {
  // Cells of interest: grid cells of the trajectory's bounding box whose
  // center lies within `corridor` of the polyline.
  const double cell = std::max(1e-9, params_.cell_size);
  const Rect box = params_.trajectory.BoundingBox();
  const int nx = std::max(1, static_cast<int>(std::ceil((box.Width() + 2 * params_.corridor) / cell)));
  const int ny = std::max(1, static_cast<int>(std::ceil((box.Height() + 2 * params_.corridor) / cell)));
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) {
      const Point center{box.x_min - params_.corridor + (x + 0.5) * cell,
                         box.y_min - params_.corridor + (y + 0.5) * cell};
      if (params_.trajectory.DistanceTo(center) <= params_.corridor) {
        cell_centers_.push_back(center);
      }
    }
  }
  num_cells_ = static_cast<int>(cell_centers_.size());
  if (num_cells_ == 0) {
    // Degenerate trajectory: treat its first waypoint (if any) as the
    // single cell of interest.
    if (!params_.trajectory.waypoints.empty()) {
      cell_centers_.push_back(params_.trajectory.waypoints.front());
      num_cells_ = 1;
    } else {
      num_cells_ = 1;
      cell_centers_.push_back(Point{0, 0});
    }
  }

  // Candidates bind in ascending slot order, so candidates_ ascends.
  const SlotSensorTable& table = slot.sensors;
  std::vector<uint64_t> mask(static_cast<size_t>(NumWords()), 0);
  const auto bind = [&](int si) {
    const Point loc{table.x[si], table.y[si]};
    std::fill(mask.begin(), mask.end(), 0);
    bool any = false;
    for (int c = 0; c < num_cells_; ++c) {
      if (Distance(cell_centers_[c], loc) <= params_.sensing_range) {
        mask[c / 64] |= uint64_t{1} << (c % 64);
        any = true;
      }
    }
    if (any) {
      mask_words_.insert(mask_words_.end(), mask.begin(), mask.end());
      theta_.push_back(SensorTheta(table.inaccuracy[si], table.trust[si]));
      candidates_.push_back(si);
    }
  };
  slot_indexed_ = slot.index != nullptr;
  if (slot_indexed_) {
    // Coarse pruning: a sensor covering any corridor cell lies inside the
    // cell centers' bounding box grown by the sensing range.
    Rect grown;
    grown.x_min = grown.x_max = cell_centers_[0].x;
    grown.y_min = grown.y_max = cell_centers_[0].y;
    for (const Point& c : cell_centers_) {
      grown.x_min = std::min(grown.x_min, c.x);
      grown.x_max = std::max(grown.x_max, c.x);
      grown.y_min = std::min(grown.y_min, c.y);
      grown.y_max = std::max(grown.y_max, c.y);
    }
    // Grow by the range plus a rounding slack: unlike AggregateQuery's
    // quick reject (where both paths test the same grown rect), the
    // unindexed trajectory path has no coarse filter at all, so a
    // boundary sensor lost to the +-range arithmetic's rounding would
    // break bit-equality with the dense scan. The slack dwarfs that
    // rounding while staying far below any cell size.
    const double slack =
        1e-9 * (1.0 + std::abs(grown.x_max) + std::abs(grown.y_max) +
                std::abs(grown.x_min) + std::abs(grown.y_min) +
                params_.sensing_range);
    grown.x_min -= params_.sensing_range + slack;
    grown.y_min -= params_.sensing_range + slack;
    grown.x_max += params_.sensing_range + slack;
    grown.y_max += params_.sensing_range + slack;
    std::vector<int> coarse;
    slot.index->RectQuery(grown, &coarse);
    for (int si : coarse) bind(si);
  } else {
    for (int si = 0; si < static_cast<int>(table.size()); ++si) bind(si);
  }
  acc_mask_.assign(NumWords(), 0);
  soa_ = slot.use_soa;
  if (soa_) {
    cached_at_.assign(candidates_.size(), 0);
    cached_delta_.resize(candidates_.size());
  }
}

const std::vector<int>* TrajectoryQuery::CandidateSensors() const {
  return slot_indexed_ ? &candidates_ : nullptr;
}

double TrajectoryQuery::ValueFrom(int covered_cells, double theta_sum,
                                  int count) const {
  if (count == 0) return 0.0;
  const double coverage = static_cast<double>(covered_cells) / num_cells_;
  return params_.budget * coverage * (theta_sum / count);
}

double TrajectoryQuery::MarginalValue(int sensor) const {
  ++valuation_calls_;
  const int ord = OrdinalIn(candidates_, sensor);
  if (ord < 0) return 0.0;
  const uint64_t* mask = mask_words_.data() +
                         static_cast<size_t>(ord) * static_cast<size_t>(NumWords());
  const int new_covered = PopCountOr(acc_mask_, mask);
  const double new_value =
      ValueFrom(new_covered, theta_sum_ + theta_[ord],
                static_cast<int>(selected_.size()) + 1);
  return new_value - current_value_;
}

void TrajectoryQuery::MarginalsAt(std::span<const int> keys,
                                  std::span<double> out) const {
  CoverageMarginals(keys, out, slot_indexed_ ? nullptr : &candidates_,
                    mask_words_, NumWords(), theta_, acc_mask_, theta_sum_,
                    static_cast<int>(selected_.size()) + 1, current_value_,
                    state_version_, soa_ ? cached_at_.data() : nullptr,
                    soa_ ? cached_delta_.data() : nullptr,
                    [this](int covered, double ts, int count) {
                      return ValueFrom(covered, ts, count);
                    });
}

void TrajectoryQuery::Commit(int sensor, double payment) {
  const int ord = OrdinalIn(candidates_, sensor);
  if (ord >= 0) {
    OrInto(acc_mask_, mask_words_.data() +
                          static_cast<size_t>(ord) * static_cast<size_t>(NumWords()));
    covered_cells_ = PopCount(acc_mask_);
    theta_sum_ += theta_[ord];
  }
  selected_.push_back(sensor);
  current_value_ = ValueFrom(covered_cells_, theta_sum_,
                             static_cast<int>(selected_.size()));
  total_payment_ += payment;
  ++state_version_;  // |S| changed even when ord < 0: every memo is stale
}

void TrajectoryQuery::ResetSelection() {
  MultiQueryBase::ResetSelection();
  acc_mask_.assign(NumWords(), 0);
  covered_cells_ = 0;
  theta_sum_ = 0.0;
  ++state_version_;
}

double TrajectoryQuery::CurrentCoverage() const {
  return num_cells_ > 0 ? static_cast<double>(covered_cells_) / num_cells_ : 0.0;
}

double TrajectoryQuery::ValueOf(const std::vector<int>& sensors) const {
  std::vector<uint64_t> acc(NumWords(), 0);
  double theta_sum = 0.0;
  int count = 0;
  for (int s : sensors) {
    const int ord = OrdinalIn(candidates_, s);
    if (ord >= 0) {
      OrInto(acc, mask_words_.data() +
                      static_cast<size_t>(ord) * static_cast<size_t>(NumWords()));
      theta_sum += theta_[ord];
    }
    ++count;
  }
  return ValueFrom(PopCount(acc), theta_sum, count);
}

}  // namespace psens
