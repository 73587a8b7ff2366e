// Tests of the spatial index subsystem (src/index/): the static CSR grid
// and the engine's id-keyed dynamic grid must return *exactly* the
// brute-force result set — same predicate, ascending order — on random,
// clustered, and adversarial (collinear, duplicate-point, degenerate)
// inputs, and the dynamic grid must stay exact through churn histories
// applied as batches.
// Probe outputs stay ascending on both sides of the radix-sort cutoff.

#include "index/spatial_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/slot.h"
#include "index/dynamic_index.h"
#include "index/probe_order.h"
#include "index/uniform_grid.h"

namespace psens {
namespace {

std::vector<int> BruteRange(const std::vector<Point>& points, const Point& center,
                            double radius) {
  std::vector<int> out;
  for (size_t i = 0; i < points.size(); ++i) {
    if (Distance(points[i], center) <= radius) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> BruteRect(const std::vector<Point>& points, const Rect& rect) {
  std::vector<int> out;
  for (size_t i = 0; i < points.size(); ++i) {
    if (rect.Contains(points[i])) out.push_back(static_cast<int>(i));
  }
  return out;
}

/// Draws one location: where a test population puts its points, and
/// (jittered) where the checks probe.
using PointGenerator = std::function<Point(Rng&)>;

/// Uniform over the 50 x 50 box most tests populate.
Point UniformBoxPoint(Rng& rng) {
  return Point{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)};
}

/// A drawn location moved by up to 5 units per axis, so probes land in,
/// between, and just outside the generator's populated areas.
Point ProbeNear(const PointGenerator& draw, Rng& rng) {
  const Point p = draw(rng);
  return Point{p.x + rng.Uniform(-5.0, 5.0), p.y + rng.Uniform(-5.0, 5.0)};
}

/// Rectangle spanned by two probe locations.
Rect ProbeRect(const PointGenerator& draw, Rng& rng) {
  const Point a = ProbeNear(draw, rng);
  const Point b = ProbeNear(draw, rng);
  return Rect{std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
              std::max(a.y, b.y)};
}

/// Exercises every query type of `index` against brute force on `points`,
/// probing around the locations `draw` produces.
void CheckIndexAgainstBruteForce(const SpatialIndex& index,
                                 const std::vector<Point>& points,
                                 uint64_t seed,
                                 const PointGenerator& draw = UniformBoxPoint) {
  Rng rng(seed);
  std::vector<int> got;
  for (int probe = 0; probe < 30; ++probe) {
    const Point center = ProbeNear(draw, rng);
    for (double radius : {0.0, 0.8, 4.0, 12.0, 200.0}) {
      index.RangeQuery(center, radius, &got);
      EXPECT_EQ(got, BruteRange(points, center, radius))
          << "range probe " << probe << " r=" << radius;
    }
    const Rect rect = ProbeRect(draw, rng);
    index.RectQuery(rect, &got);
    EXPECT_EQ(got, BruteRect(points, rect)) << "rect probe " << probe;
  }
  // Degenerate rects: zero width/height lines and a point rect through an
  // actual data point must still honor inclusive Contains semantics.
  if (!points.empty()) {
    const Point& p = points[points.size() / 2];
    const Rect point_rect{p.x, p.y, p.x, p.y};
    index.RectQuery(point_rect, &got);
    EXPECT_EQ(got, BruteRect(points, point_rect));
    const Rect vline{p.x, -100.0, p.x, 100.0};
    index.RectQuery(vline, &got);
    EXPECT_EQ(got, BruteRect(points, vline));
    // Range query centered exactly on a data point with radius 0.
    index.RangeQuery(p, 0.0, &got);
    EXPECT_EQ(got, BruteRange(points, p, 0.0));
  }
  // Far-away probes (everything out of range / out of rect).
  index.RangeQuery(Point{1e6, 1e6}, 1.0, &got);
  EXPECT_TRUE(got.empty());
  index.RectQuery(Rect{1e6, 1e6, 1e6 + 1, 1e6 + 1}, &got);
  EXPECT_TRUE(got.empty());
  // Non-finite and huge probes: infinite radii, +-1e300 and +-inf rect
  // edges, NaN centers and edges. The grids' cell arithmetic must clamp
  // them (an int conversion of such values is undefined) and still
  // return exactly the brute-force set.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Point centers[] = {{25.0, 25.0}, {-1e300, 1e300}, {nan, 10.0},
                           {10.0, nan}, {nan, nan}};
  for (const Point& c : centers) {
    for (double radius : {inf, 1e300, 1e200, nan}) {
      index.RangeQuery(c, radius, &got);
      EXPECT_EQ(got, BruteRange(points, c, radius))
          << "center (" << c.x << ", " << c.y << ") r=" << radius;
    }
  }
  const Rect rects[] = {
      {-inf, -inf, inf, inf},         {-1e300, -1e300, 1e300, 1e300},
      {-inf, 10.0, 20.0, inf},        {15.0, -1e300, 1e300, 30.0},
      {-1e300, -inf, -1e300, inf},    {1e300, 1e300, inf, inf},
      {nan, 0.0, 50.0, 50.0},         {0.0, 0.0, 50.0, nan},
      {-inf, -inf, nan, nan}};
  for (const Rect& r : rects) {
    index.RectQuery(r, &got);
    EXPECT_EQ(got, BruteRect(points, r))
        << "rect {" << r.x_min << ", " << r.y_min << ", " << r.x_max << ", "
        << r.y_max << "}";
  }
}

std::vector<Point> UniformPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (int i = 0; i < n; ++i) {
    points.push_back(Point{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)});
  }
  return points;
}

std::vector<Point> ClusteredPoints(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  const Point centers[] = {{5, 5}, {45, 45}, {5, 45}};
  for (int i = 0; i < n; ++i) {
    const Point& c = centers[i % 3];
    points.push_back(Point{rng.Normal(c.x, 0.7), rng.Normal(c.y, 0.7)});
  }
  return points;
}

struct NamedPoints {
  const char* name;
  std::vector<Point> points;
};

std::vector<NamedPoints> AdversarialSets() {
  std::vector<NamedPoints> sets;
  sets.push_back({"empty", {}});
  sets.push_back({"single", {Point{3.0, 4.0}}});
  std::vector<Point> dup(40, Point{10.0, 20.0});
  sets.push_back({"all-duplicates", dup});
  std::vector<Point> collinear_x;
  for (int i = 0; i < 50; ++i) collinear_x.push_back(Point{i * 1.0, 7.0});
  sets.push_back({"collinear-x", collinear_x});
  std::vector<Point> collinear_y;
  for (int i = 0; i < 50; ++i) collinear_y.push_back(Point{-3.0, i * 0.5});
  sets.push_back({"collinear-y", collinear_y});
  std::vector<Point> diagonal;
  for (int i = 0; i < 50; ++i) diagonal.push_back(Point{i * 1.0, i * 1.0});
  sets.push_back({"diagonal", diagonal});
  // Duplicates mixed with distinct points.
  std::vector<Point> mixed = dup;
  mixed.push_back(Point{10.0, 21.0});
  mixed.insert(mixed.begin(), Point{10.0, 19.0});
  sets.push_back({"duplicates-plus", mixed});
  return sets;
}

TEST(SpatialIndexTest, GridMatchesBruteForceOnRandomInputs) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    const std::vector<Point> points = UniformPoints(400, seed);
    UniformGridIndex grid(points);
    CheckIndexAgainstBruteForce(grid, points, 100 + seed);
  }
}

TEST(SpatialIndexTest, GridMatchesBruteForceOnClusteredInputs) {
  const std::vector<Point> points = ClusteredPoints(300, 7);
  UniformGridIndex grid(points);
  CheckIndexAgainstBruteForce(grid, points, 11);
}

/// One point of a heavily clustered population: three sigma = 0.5
/// clusters at corners of a 1000 x 1000 box, so a grid sized for a few
/// hundred such points (~58-unit cells) holds each cluster in a handful
/// of crowded cells and leaves the rest empty, and about half the points
/// fall just outside the box.
Point CornerClusterPoint(Rng& rng) {
  static constexpr Point kCenters[] = {{0, 0}, {1000, 1000}, {0, 1000}};
  const Point& c = kCenters[rng.UniformInt(0, 2)];
  return Point{rng.Normal(c.x, 0.5), rng.Normal(c.y, 0.5)};
}

TEST(SpatialIndexTest, GridMatchesBruteForceOnHeavilyClusteredInputs) {
  Rng rng(13);
  std::vector<Point> points;
  for (int i = 0; i < 600; ++i) points.push_back(CornerClusterPoint(rng));
  UniformGridIndex grid(points);
  CheckIndexAgainstBruteForce(grid, points, 31, CornerClusterPoint);
}

/// Loads `points` into a dynamic grid as ids 0..n-1, in one batch, so
/// the static brute-force helpers above apply to it unchanged.
void InsertAll(DynamicGridIndex* index, const std::vector<Point>& points) {
  std::vector<GridOp> ops;
  for (size_t i = 0; i < points.size(); ++i) {
    ops.push_back(GridOp{points[i], static_cast<int>(i), /*live=*/true});
  }
  index->Apply(ops);
}

TEST(SpatialIndexTest, AdversarialInputs) {
  for (const NamedPoints& set : AdversarialSets()) {
    SCOPED_TRACE(set.name);
    UniformGridIndex grid(set.points);
    CheckIndexAgainstBruteForce(grid, set.points, 23);
    // The dynamic grid, over fixed bounds some sets leave (the
    // collinear-y set sits at x = -3, in the clamped edge cells).
    DynamicGridIndex dynamic_grid(Rect{0, 0, 50, 50},
                                  static_cast<int>(set.points.size()));
    InsertAll(&dynamic_grid, set.points);
    CheckIndexAgainstBruteForce(dynamic_grid, set.points, 23);
  }
}

TEST(DynamicIndexTest, MatchBruteForceOnRandomInputs) {
  const std::vector<Point> points = UniformPoints(400, 4);
  DynamicGridIndex dynamic_grid(Rect{0, 0, 50, 50}, 400);
  InsertAll(&dynamic_grid, points);
  CheckIndexAgainstBruteForce(dynamic_grid, points, 104);
}

// ---------------------------------------------------------------------------
// The dynamic grid (src/index/dynamic_index.h): Apply's batches must
// keep every probe exactly equal to a brute-force scan of the live set
// through arbitrary churn histories.
// ---------------------------------------------------------------------------

/// Mirror of a dynamic index's live set, with brute-force probes.
class LiveSet {
 public:
  void Insert(int id, const Point& p) { points_[id] = p; }
  void Remove(int id) { points_.erase(id); }

  std::vector<int> Range(const Point& center, double radius) const {
    std::vector<int> out;
    for (const auto& [id, p] : points_) {
      if (Distance(p, center) <= radius) out.push_back(id);
    }
    return out;
  }
  std::vector<int> InRect(const Rect& rect) const {
    std::vector<int> out;
    for (const auto& [id, p] : points_) {
      if (rect.Contains(p)) out.push_back(id);
    }
    return out;
  }
  int size() const { return static_cast<int>(points_.size()); }
  const std::map<int, Point>& points() const { return points_; }

 private:
  std::map<int, Point> points_;  // ordered: brute results ascend by id
};

/// Probes `index` around locations `draw` produces and compares every
/// answer with a brute-force scan of `live`.
void CheckDynamicAgainstLiveSet(const DynamicGridIndex& index,
                                const LiveSet& live,
                                const PointGenerator& draw, uint64_t seed) {
  ASSERT_EQ(index.size(), live.size());
  Rng rng(seed);
  std::vector<int> got;
  for (int probe = 0; probe < 10; ++probe) {
    const Point center = ProbeNear(draw, rng);
    for (double radius : {0.0, 0.5, 2.0, 9.0, 100.0}) {
      index.RangeQuery(center, radius, &got);
      EXPECT_EQ(got, live.Range(center, radius)) << "r=" << radius;
    }
    const Rect rect = ProbeRect(draw, rng);
    index.RectQuery(rect, &got);
    EXPECT_EQ(got, live.InRect(rect)) << "rect probe " << probe;
  }
}

/// Churn history over a sparse id space with locations from `draw`,
/// applied through DynamicGridIndex::Apply in batches of 40 ops and
/// verified against the live set after every batch: first `preload`
/// inserts (ids 0..preload-1), then 12 batches of random inserts,
/// removes, and moves, then removes until nothing is live, then 80 fresh
/// inserts — so a cell that grew also empties and fills again. Ids within
/// a batch must be distinct, so an op on an id the pending batch already
/// holds applies the batch early.
void ChurnAndVerify(DynamicGridIndex* index, const PointGenerator& draw,
                    uint64_t seed, int preload = 0) {
  Rng rng(seed);
  LiveSet live;
  std::vector<int> ids;
  std::vector<GridOp> batch;
  std::set<int> batch_ids;
  uint64_t check = seed;
  const auto flush = [&] {
    index->Apply(batch);
    batch.clear();
    batch_ids.clear();
  };
  const auto queue = [&](int id, const Point& p, bool live_after) {
    if (!batch_ids.insert(id).second) {
      flush();
      batch_ids.insert(id);
    }
    batch.push_back(GridOp{p, id, live_after});
  };
  const auto verify = [&] {
    flush();
    CheckDynamicAgainstLiveSet(*index, live, draw, check++);
  };
  const auto insert = [&](int id) {
    const Point p = draw(rng);
    if (live.points().count(id) != 0) return;
    ids.push_back(id);
    queue(id, p, /*live_after=*/true);
    live.Insert(id, p);
  };
  const auto remove_at = [&](size_t k) {
    const int id = ids[k];
    ids[k] = ids.back();
    ids.pop_back();
    queue(id, Point{}, /*live_after=*/false);
    live.Remove(id);
  };
  for (int id = 0; id < preload; ++id) {
    insert(id);
    if ((id + 1) % 40 == 0 || id + 1 == preload) verify();
  }
  for (int batch_no = 0; batch_no < 12; ++batch_no) {
    for (int op = 0; op < 40; ++op) {
      const int roll = static_cast<int>(rng.UniformInt(0, 99));
      if (roll < 45 || ids.empty()) {
        insert(static_cast<int>(rng.UniformInt(0, 999)));
      } else if (roll < 70) {
        remove_at(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1)));
      } else {
        const size_t k = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1));
        const Point p = draw(rng);
        queue(ids[k], p, /*live_after=*/true);
        live.Insert(ids[k], p);  // overwrite position
      }
    }
    verify();
  }
  while (!ids.empty()) {
    for (int op = 0; op < 40 && !ids.empty(); ++op) {
      remove_at(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1)));
    }
    verify();
  }
  for (int id = 0; id < 80; ++id) {
    insert(2000 + id);
    if ((id + 1) % 40 == 0) verify();
  }
}

TEST(DynamicIndexTest, GridMatchesBruteForceUnderChurn) {
  DynamicGridIndex grid(Rect{0, 0, 50, 50}, 400);
  ChurnAndVerify(&grid, UniformBoxPoint, 101);
}

TEST(DynamicIndexTest, GridMatchesBruteForceUnderClusteredChurn) {
  // Sized for the 600 preloaded points: each cluster's few cells hold
  // far more than Cell::kInline (6) ids and spill to heap blocks, moves
  // carry ids between clusters, and the drain empties the spilled cells
  // before the refill reuses them. Points beyond the box sit in clamped
  // edge cells.
  DynamicGridIndex grid(Rect{0, 0, 1000, 1000}, 600);
  ChurnAndVerify(&grid, CornerClusterPoint, 202, /*preload=*/600);
}

// One batch at every cell edge Apply's cell walk has: a full inline cell
// (Cell::kInline = 6 ids) that loses one id and gains another, a cell
// that grows past kInline and spills, a cell drained to empty, and moves
// across cells and within one. The ops are listed out of id and cell
// order, with the full cell's insert ahead of its remove: applied in op
// order it would spill, and the walk's remove-before-insert keeps it
// inline. Every batch is checked against brute force.
TEST(DynamicIndexTest, OneBatchAcrossCellEdges) {
  const Rect bounds{0, 0, 10, 10};
  // 50 expected points over 100 square units: 2-unit cells, 5 x 5.
  const GridGeometry geo = GridGeometry::Layout(bounds, 50);
  ASSERT_EQ(geo.cell, 2.0);
  ASSERT_EQ(geo.nx, 5);
  ASSERT_EQ(geo.ny, 5);
  // A point in cell (cx, cy) at fractions (fx, fy) of the cell's sides.
  const auto in_cell = [](int cx, int cy, double fx, double fy) {
    return Point{2.0 * (cx + fx), 2.0 * (cy + fy)};
  };
  DynamicGridIndex grid(bounds, 50);
  LiveSet live;
  uint64_t check = 7;
  const PointGenerator box = [](Rng& rng) {
    return Point{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
  };
  const auto apply = [&](const std::vector<GridOp>& ops) {
    grid.Apply(ops);
    for (const GridOp& op : ops) {
      if (op.live) {
        live.Insert(op.id, op.position);
      } else {
        live.Remove(op.id);
      }
    }
    CheckDynamicAgainstLiveSet(grid, live, box, check++);
  };

  // Cell A (0, 0): ids 0-5, full inline. B (2, 2): ids 10-14. C (4, 4):
  // ids 20-22. D (1, 3): ids 30 and 31. E (3, 1): id 40.
  std::vector<GridOp> load;
  for (int k = 5; k >= 0; --k) {
    load.push_back(GridOp{in_cell(0, 0, 0.1 * k + 0.05, 0.5), k, true});
  }
  for (int k = 0; k < 5; ++k) {
    load.push_back(GridOp{in_cell(2, 2, 0.5, 0.15 * k + 0.1), 10 + k, true});
  }
  for (int k = 0; k < 3; ++k) {
    load.push_back(GridOp{in_cell(4, 4, 0.3 * k + 0.1, 0.9), 20 + k, true});
  }
  load.push_back(GridOp{in_cell(1, 3, 0.2, 0.2), 31, true});
  load.push_back(GridOp{in_cell(1, 3, 0.8, 0.8), 30, true});
  load.push_back(GridOp{in_cell(3, 1, 0.5, 0.5), 40, true});
  apply(load);
  EXPECT_EQ(grid.size(), 17);
  EXPECT_EQ(grid.SpilledCells(), 0);

  apply({
      GridOp{in_cell(2, 2, 0.9, 0.9), 15, true},   // B: 6
      GridOp{in_cell(0, 0, 0.95, 0.95), 6, true},  // A gains 6 ...
      GridOp{in_cell(4, 4, 0.0, 0.0), 21, false},  // C drains
      GridOp{in_cell(3, 1, 0.1, 0.9), 30, true},   // D -> E
      GridOp{in_cell(2, 2, 0.1, 0.9), 16, true},   // B: 7, spills
      GridOp{Point{}, 2, false},                   // ... and loses 2
      GridOp{in_cell(1, 3, 0.6, 0.4), 31, true},   // within D
      GridOp{in_cell(0, 0, 0.05, 0.95), 0, true},  // within A
      GridOp{Point{}, 22, false},
      GridOp{in_cell(2, 2, 0.9, 0.1), 17, true},  // B: 8
      GridOp{Point{}, 20, false},
      GridOp{Point{}, 99, false},  // never live: a no-op
  });
  EXPECT_EQ(grid.size(), 17);
  EXPECT_EQ(grid.SpilledCells(), 1);  // B only; A stayed inline
  std::vector<int> got;
  grid.RectQuery(Rect{8.0, 8.0, 10.0, 10.0}, &got);
  EXPECT_TRUE(got.empty()) << "cell C drained";
  grid.RectQuery(Rect{0.0, 0.0, 2.0, 2.0}, &got);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 3, 4, 5, 6}));

  // Refill the drained cell from the spilled one and drain the spilled
  // one to empty; it keeps its heap block.
  std::vector<GridOp> shuffle;
  for (int id = 10; id <= 17; ++id) {
    shuffle.push_back(
        id % 2 == 0 ? GridOp{in_cell(4, 4, 0.1 * (id - 9), 0.5), id, true}
                    : GridOp{Point{}, id, false});
  }
  shuffle.push_back(GridOp{in_cell(4, 4, 0.5, 0.1), 22, true});
  apply(shuffle);
  EXPECT_EQ(grid.SpilledCells(), 1);
  grid.RectQuery(Rect{4.0, 4.0, 6.0, 6.0}, &got);
  EXPECT_TRUE(got.empty()) << "cell B drained";

  // Everything leaves in one batch.
  std::vector<GridOp> clear;
  for (const auto& [id, p] : live.points()) {
    clear.push_back(GridOp{p, id, false});
  }
  apply(clear);
  EXPECT_EQ(grid.size(), 0);
}

TEST(SpatialIndexTest, AttachSlotIndexHonorsPolicy) {
  Rng rng(17);
  SlotContext slot;
  slot.dmax = 5.0;
  for (int i = 0; i < 64; ++i) {
    SlotSensor s;
    s.sensor_id = i;
    s.location = Point{rng.Uniform(0.0, 40.0), rng.Uniform(0.0, 40.0)};
    slot.sensors.Append(s);
  }

  slot.index_policy = SlotIndexPolicy::kNone;
  AttachSlotIndex(slot);
  EXPECT_EQ(slot.index, nullptr);

  slot.index_policy = SlotIndexPolicy::kGrid;
  AttachSlotIndex(slot);
  ASSERT_NE(slot.index, nullptr);
  EXPECT_STREQ(slot.index->Name(), "uniform-grid");

  // An empty slot has nothing to index.
  SlotContext empty;
  AttachSlotIndex(empty);
  EXPECT_EQ(empty.index, nullptr);
}

// ---------------------------------------------------------------------------
// Probe ordering (index/probe_order.h): every backend orders its probe
// output through SortProbeIds, which radix-sorts at or above
// kRadixSortMinIds ids. Results just below, at and above that cutoff must
// equal the brute-force ascending list, over id spaces whose largest id
// needs one, two and three 8-bit radix passes.
// ---------------------------------------------------------------------------

/// `count` distinct ids from [0, id_space), scrambled, holding 0 and
/// id_space - 1 whenever count >= 2.
std::vector<int> PickIds(int id_space, int count, uint64_t seed) {
  std::vector<int> ids;
  if (count >= 2) ids = {id_space - 1, 0};
  // The rest: a partial Fisher-Yates draw over the ids in between.
  std::vector<int> middle;
  for (int i = 1; i < id_space - 1; ++i) middle.push_back(i);
  Rng rng(seed);
  for (size_t k = 0; static_cast<int>(ids.size()) < count; ++k) {
    const size_t j = k + static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(middle.size() - 1 - k)));
    std::swap(middle[k], middle[j]);
    ids.push_back(middle[k]);
  }
  return ids;
}

TEST(ProbeOrderTest, SortProbeIdsMatchesStdSort) {
  // 1 << 8, 1 << 16 and 1 << 24 need one, two and three passes; the last
  // reaches the top byte.
  for (int id_space :
       {1 << 8, 1 << 16, 1 << 24, std::numeric_limits<int>::max()}) {
    for (int count : {0, 1, 2, 255, 256, 257, 3000}) {
      if (count > id_space) continue;
      Rng rng(static_cast<uint64_t>(id_space) + static_cast<uint64_t>(count));
      std::vector<int> ids;
      for (int i = 0; i < count; ++i) {
        ids.push_back(static_cast<int>(rng.UniformInt(0, id_space - 1)));
      }
      if (count >= 2) {
        ids[0] = id_space - 1;
        ids[1] = 0;
      }
      std::vector<int> want = ids;
      std::sort(want.begin(), want.end());
      SortProbeIds(&ids);
      EXPECT_EQ(ids, want) << "id space " << id_space << " count " << count;
    }
  }
  // Every id equal: each digit is shared, so every pass is skipped.
  std::vector<int> same(600, 70000);
  SortProbeIds(&same);
  EXPECT_EQ(same, std::vector<int>(600, 70000));
}

/// The picked ids sit in the unit square; everything else lies far off,
/// so Rect{0, 0, 1, 1} and the 0.75-radius disk around (0.5, 0.5) both
/// return exactly the picked ids.
void ExpectProbesReturnSorted(const SpatialIndex& index,
                              const std::vector<int>& picked,
                              const std::string& label) {
  std::vector<int> want = picked;
  std::sort(want.begin(), want.end());
  std::vector<int> got;
  index.RectQuery(Rect{0.0, 0.0, 1.0, 1.0}, &got);
  EXPECT_EQ(got, want) << label << " rect";
  index.RangeQuery(Point{0.5, 0.5}, 0.75, &got);
  EXPECT_EQ(got, want) << label << " range";
  index.RectQuery(Rect{2.0, 2.0, 3.0, 3.0}, &got);
  EXPECT_TRUE(got.empty()) << label << " empty rect";
}

TEST(ProbeOrderTest, EveryBackendOrdersResultsAroundTheCutoff) {
  const int cutoff = static_cast<int>(kRadixSortMinIds);
  // Largest ids 255, 65535 and 69999: one, two and three radix passes.
  for (int id_space : {256, 1 << 16, 70000}) {
    for (int count : {0, cutoff - 1, cutoff, cutoff + 1, 700}) {
      if (count > id_space) continue;
      const std::string label =
          "ids " + std::to_string(id_space) + " count " + std::to_string(count);
      const std::vector<int> picked =
          PickIds(id_space, count, static_cast<uint64_t>(id_space + count));
      Rng rng(static_cast<uint64_t>(id_space) * 7 +
              static_cast<uint64_t>(count));
      std::vector<char> inside(static_cast<size_t>(id_space), 0);
      for (int id : picked) inside[static_cast<size_t>(id)] = 1;

      // Static backends: id = position, so every id of the space exists.
      std::vector<Point> points(static_cast<size_t>(id_space));
      for (int i = 0; i < id_space; ++i) {
        points[static_cast<size_t>(i)] =
            inside[static_cast<size_t>(i)]
                ? Point{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}
                : Point{rng.Uniform(10.0, 60.0), rng.Uniform(10.0, 60.0)};
      }
      ExpectProbesReturnSorted(UniformGridIndex(points), picked,
                               label + " grid");

      // Dynamic grid: sparse ids — the picked ones plus a few hundred far
      // fillers.
      std::vector<std::pair<int, Point>> live;
      for (int i = 0; i < id_space; ++i) {
        if (inside[static_cast<size_t>(i)] || i % 97 == 3) {
          live.emplace_back(i, points[static_cast<size_t>(i)]);
        }
      }
      DynamicGridIndex grid(Rect{0.0, 0.0, 60.0, 60.0},
                            static_cast<int>(live.size()));
      std::vector<GridOp> ops;
      for (const auto& [id, p] : live) ops.push_back(GridOp{p, id, true});
      grid.Apply(ops);
      ExpectProbesReturnSorted(grid, picked, label + " dynamic grid");
    }
  }
}

}  // namespace
}  // namespace psens
