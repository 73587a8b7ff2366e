// Tests of the spatial index subsystem (src/index/): the uniform grid and
// the k-d tree must return *exactly* the brute-force result set — same
// predicate, ascending order — on random, clustered, and adversarial
// (collinear, duplicate-point, degenerate) inputs, and the auto factory
// must pick the right structure by density. Probe outputs stay ascending
// on both sides of the radix-sort cutoff.

#include "index/spatial_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/slot.h"
#include "index/dynamic_index.h"
#include "index/kd_tree.h"
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

int BruteNearest(const std::vector<Point>& points, const Point& p) {
  int best = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < points.size(); ++i) {
    const double dx = points[i].x - p.x;
    const double dy = points[i].y - p.y;
    const double d2 = dx * dx + dy * dy;
    if (d2 < best_d2) {
      best_d2 = d2;
      best = static_cast<int>(i);
    }
  }
  return best;
}

/// Exercises every query type of `index` against brute force on `points`.
void CheckIndexAgainstBruteForce(const SpatialIndex& index,
                                 const std::vector<Point>& points,
                                 uint64_t seed) {
  ASSERT_EQ(index.size(), static_cast<int>(points.size()));
  Rng rng(seed);
  std::vector<int> got;
  for (int probe = 0; probe < 30; ++probe) {
    const Point center{rng.Uniform(-5.0, 55.0), rng.Uniform(-5.0, 55.0)};
    for (double radius : {0.0, 0.8, 4.0, 12.0, 200.0}) {
      index.RangeQuery(center, radius, &got);
      EXPECT_EQ(got, BruteRange(points, center, radius))
          << "range probe " << probe << " r=" << radius;
    }
    const double x0 = rng.Uniform(-5.0, 55.0), x1 = rng.Uniform(-5.0, 55.0);
    const double y0 = rng.Uniform(-5.0, 55.0), y1 = rng.Uniform(-5.0, 55.0);
    const Rect rect{std::min(x0, x1), std::min(y0, y1), std::max(x0, x1),
                    std::max(y0, y1)};
    index.RectQuery(rect, &got);
    EXPECT_EQ(got, BruteRect(points, rect)) << "rect probe " << probe;
    EXPECT_EQ(index.Nearest(center), BruteNearest(points, center))
        << "nearest probe " << probe;
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
  // Duplicates mixed with distinct points: nearest must tie-break to the
  // lowest index.
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

TEST(SpatialIndexTest, KdTreeMatchesBruteForceOnRandomInputs) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    const std::vector<Point> points = UniformPoints(400, seed);
    KdTreeIndex tree(points);
    CheckIndexAgainstBruteForce(tree, points, 100 + seed);
  }
}

TEST(SpatialIndexTest, BothMatchBruteForceOnClusteredInputs) {
  const std::vector<Point> points = ClusteredPoints(300, 7);
  UniformGridIndex grid(points);
  KdTreeIndex tree(points);
  CheckIndexAgainstBruteForce(grid, points, 11);
  CheckIndexAgainstBruteForce(tree, points, 11);
}

/// Loads `points` into a dynamic index as ids 0..n-1, so the static
/// brute-force helpers above apply to it unchanged.
void InsertAll(SpatialIndex* index, const std::vector<Point>& points) {
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(index->Insert(static_cast<int>(i), points[i]));
  }
}

TEST(SpatialIndexTest, AdversarialInputs) {
  for (const NamedPoints& set : AdversarialSets()) {
    SCOPED_TRACE(set.name);
    UniformGridIndex grid(set.points);
    KdTreeIndex tree(set.points);
    CheckIndexAgainstBruteForce(grid, set.points, 23);
    CheckIndexAgainstBruteForce(tree, set.points, 23);
    if (set.points.empty()) {
      EXPECT_EQ(grid.Nearest(Point{0, 0}), -1);
      EXPECT_EQ(tree.Nearest(Point{0, 0}), -1);
    }
    // Every dynamic backend, over fixed bounds some sets leave (the
    // collinear-y set sits at x = -3, in the clamped edge cells).
    const Rect bounds{0, 0, 50, 50};
    const int n = static_cast<int>(set.points.size());
    DynamicGridIndex dynamic_grid(bounds, n);
    BufferedKdTreeIndex buffered_tree;
    DynamicSpatialIndex auto_index(bounds, SlotIndexPolicy::kAuto, n);
    DynamicSpatialIndex grid_index(bounds, SlotIndexPolicy::kGrid, n);
    DynamicSpatialIndex kd_index(bounds, SlotIndexPolicy::kKdTree, n);
    for (SpatialIndex* index :
         std::initializer_list<SpatialIndex*>{&dynamic_grid, &buffered_tree,
                                              &auto_index, &grid_index,
                                              &kd_index}) {
      SCOPED_TRACE(index->Name());
      InsertAll(index, set.points);
      CheckIndexAgainstBruteForce(*index, set.points, 23);
    }
  }
}

TEST(DynamicIndexTest, MatchBruteForceOnRandomInputs) {
  const std::vector<Point> points = UniformPoints(400, 4);
  const Rect bounds{0, 0, 50, 50};
  DynamicGridIndex dynamic_grid(bounds, 400);
  BufferedKdTreeIndex buffered_tree;
  InsertAll(&dynamic_grid, points);
  InsertAll(&buffered_tree, points);
  CheckIndexAgainstBruteForce(dynamic_grid, points, 104);
  CheckIndexAgainstBruteForce(buffered_tree, points, 104);
}

TEST(SpatialIndexTest, NearestTieBreaksToLowestIndex) {
  // Two points equidistant from the probe; the lower index must win in
  // both implementations (matching the ascending brute-force scan).
  const std::vector<Point> points{Point{0.0, 1.0}, Point{0.0, -1.0},
                                  Point{0.0, 1.0}};
  UniformGridIndex grid(points);
  KdTreeIndex tree(points);
  EXPECT_EQ(grid.Nearest(Point{0.0, 0.0}), 0);
  EXPECT_EQ(tree.Nearest(Point{0.0, 0.0}), 0);
}

TEST(SpatialIndexTest, AutoFactoryPicksGridForDenseUniformPopulations) {
  const std::vector<Point> points = UniformPoints(2000, 9);
  const auto index = BuildSpatialIndexAuto(points);
  EXPECT_STREQ(index->Name(), "uniform-grid");
  CheckIndexAgainstBruteForce(*index, points, 31);
}

TEST(SpatialIndexTest, AutoFactoryPicksKdTreeForHeavilyClusteredPopulations) {
  // Three tight clusters in a huge otherwise-empty bounding box: the
  // auto-sized grid is almost entirely empty cells.
  Rng rng(13);
  std::vector<Point> points;
  const Point centers[] = {{0, 0}, {1000, 1000}, {0, 1000}};
  for (int i = 0; i < 600; ++i) {
    const Point& c = centers[i % 3];
    points.push_back(Point{rng.Normal(c.x, 0.5), rng.Normal(c.y, 0.5)});
  }
  const auto index = BuildSpatialIndexAuto(points);
  EXPECT_STREQ(index->Name(), "kd-tree");
  std::vector<int> got;
  index->RangeQuery(Point{0, 0}, 3.0, &got);
  EXPECT_EQ(got, BruteRange(points, Point{0, 0}, 3.0));
}

// ---------------------------------------------------------------------------
// Dynamic indexes (src/index/dynamic_index.h): Insert/Remove/Move must keep
// every probe exactly equal to a brute-force scan of the live set — and to
// a freshly built static index — through arbitrary churn histories.
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
  int Nearest(const Point& q) const {
    int best = -1;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (const auto& [id, p] : points_) {
      const double dx = p.x - q.x;
      const double dy = p.y - q.y;
      const double d2 = dx * dx + dy * dy;
      if (d2 < best_d2) {
        best_d2 = d2;
        best = id;
      }
    }
    return best;
  }
  int size() const { return static_cast<int>(points_.size()); }
  const std::map<int, Point>& points() const { return points_; }

 private:
  std::map<int, Point> points_;  // ordered: brute results ascend by id
};

void CheckDynamicAgainstLiveSet(const SpatialIndex& index, const LiveSet& live,
                                uint64_t seed) {
  ASSERT_EQ(index.size(), live.size());
  Rng rng(seed);
  std::vector<int> got;
  for (int probe = 0; probe < 10; ++probe) {
    const Point center{rng.Uniform(-5.0, 55.0), rng.Uniform(-5.0, 55.0)};
    for (double radius : {0.0, 2.0, 9.0, 100.0}) {
      index.RangeQuery(center, radius, &got);
      EXPECT_EQ(got, live.Range(center, radius)) << "r=" << radius;
    }
    const double x0 = rng.Uniform(-5.0, 55.0), x1 = rng.Uniform(-5.0, 55.0);
    const double y0 = rng.Uniform(-5.0, 55.0), y1 = rng.Uniform(-5.0, 55.0);
    const Rect rect{std::min(x0, x1), std::min(y0, y1), std::max(x0, x1),
                    std::max(y0, y1)};
    index.RectQuery(rect, &got);
    EXPECT_EQ(got, live.InRect(rect)) << "rect probe " << probe;
    EXPECT_EQ(index.Nearest(center), live.Nearest(center)) << "probe " << probe;
  }
}

/// Random interleaving of inserts, removes, and moves over a sparse id
/// space, verified against the live set after every batch.
void ChurnAndVerify(SpatialIndex* index, uint64_t seed) {
  Rng rng(seed);
  LiveSet live;
  std::vector<int> ids;
  for (int batch = 0; batch < 12; ++batch) {
    for (int op = 0; op < 40; ++op) {
      const int roll = static_cast<int>(rng.UniformInt(0, 99));
      if (roll < 45 || ids.empty()) {
        const int id = static_cast<int>(rng.UniformInt(0, 999));
        const Point p{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)};
        if (live.points().count(id) == 0) {
          ids.push_back(id);
          EXPECT_TRUE(index->Insert(id, p));
          live.Insert(id, p);
        }
      } else if (roll < 70) {
        const size_t k = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1));
        const int id = ids[k];
        ids[k] = ids.back();
        ids.pop_back();
        EXPECT_TRUE(index->Remove(id));
        live.Remove(id);
      } else {
        const size_t k = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1));
        const Point p{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)};
        EXPECT_TRUE(index->Move(ids[k], p));
        live.Insert(ids[k], p);  // overwrite position
      }
    }
    CheckDynamicAgainstLiveSet(*index, live, seed + batch);
  }
}

TEST(DynamicIndexTest, GridMatchesBruteForceUnderChurn) {
  DynamicGridIndex grid(Rect{0, 0, 50, 50}, 400);
  ChurnAndVerify(&grid, 101);
}

TEST(DynamicIndexTest, BufferedKdTreeMatchesBruteForceUnderChurn) {
  // The churn equilibrium stays under RebuildThreshold(), so this
  // exercises the tombstone/buffer delta paths; the snapshot-rebuild
  // crossing is pinned by BufferedKdTreeRebuildPreservesResults below.
  BufferedKdTreeIndex tree;
  ChurnAndVerify(&tree, 202);
}

TEST(DynamicIndexTest, AutoPolicyMatchesBruteForceUnderChurn) {
  DynamicSpatialIndex index(Rect{0, 0, 50, 50}, SlotIndexPolicy::kAuto, 400);
  ChurnAndVerify(&index, 303);
}

TEST(DynamicIndexTest, BufferedKdTreeRebuildPreservesResults) {
  // Deterministic crossing of the rebuild threshold: results before and
  // after the snapshot fold must be identical for the same probes.
  std::vector<std::pair<int, Point>> initial;
  Rng rng(17);
  LiveSet live;
  for (int id = 0; id < 300; ++id) {
    const Point p{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)};
    initial.emplace_back(id, p);
    live.Insert(id, p);
  }
  BufferedKdTreeIndex tree(initial);
  const int64_t rebuilds_at_start = tree.rebuilds();
  // Delete and insert until the delta crosses RebuildThreshold().
  for (int id = 0; id < 200; ++id) {
    tree.Remove(id);
    live.Remove(id);
    const int fresh = 1000 + id;
    const Point p{rng.Uniform(0.0, 50.0), rng.Uniform(0.0, 50.0)};
    tree.Insert(fresh, p);
    live.Insert(fresh, p);
  }
  EXPECT_GT(tree.rebuilds(), rebuilds_at_start);
  CheckDynamicAgainstLiveSet(tree, live, 404);
}

TEST(DynamicIndexTest, AutoPolicyRechoosesBackendWhenDensityDrifts) {
  // Dense uniform load → grid. Collapse to three tight clusters in a huge
  // empty box → after enough churn the auto policy must migrate to the
  // buffered k-d tree, preserving exact results throughout.
  const Rect bounds{0, 0, 1000, 1000};
  DynamicSpatialIndex index(bounds, SlotIndexPolicy::kAuto, 2000);
  Rng rng(23);
  LiveSet live;
  for (int id = 0; id < 2000; ++id) {
    const Point p{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    index.Insert(id, p);
    live.Insert(id, p);
  }
  EXPECT_STREQ(index.Name(), "dynamic-grid");

  for (int id = 0; id < 2000; ++id) {
    index.Remove(id);
    live.Remove(id);
  }
  const Point centers[] = {{1, 1}, {999, 999}, {1, 999}};
  for (int id = 3000; id < 3600; ++id) {
    const Point& c = centers[id % 3];
    const Point p = bounds.Clamp(
        Point{rng.Normal(c.x, 0.5), rng.Normal(c.y, 0.5)});
    index.Insert(id, p);
    live.Insert(id, p);
  }
  EXPECT_STREQ(index.Name(), "kd-buffered");
  CheckDynamicAgainstLiveSet(index, live, 505);
}

TEST(DynamicIndexTest, StaticIndexesRejectDynamicOps) {
  const std::vector<Point> points{{1, 1}, {2, 2}};
  UniformGridIndex grid(points);
  KdTreeIndex tree(points);
  EXPECT_FALSE(grid.Insert(5, Point{3, 3}));
  EXPECT_FALSE(grid.Remove(0));
  EXPECT_FALSE(grid.Move(0, Point{4, 4}));
  EXPECT_FALSE(tree.Insert(5, Point{3, 3}));
  EXPECT_FALSE(tree.Remove(0));
  EXPECT_FALSE(tree.Move(0, Point{4, 4}));
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

  slot.index_policy = SlotIndexPolicy::kAuto;
  AttachSlotIndex(slot);
  ASSERT_NE(slot.index, nullptr);
  EXPECT_EQ(slot.index->size(), 64);

  slot.index_policy = SlotIndexPolicy::kGrid;
  AttachSlotIndex(slot);
  EXPECT_STREQ(slot.index->Name(), "uniform-grid");

  slot.index_policy = SlotIndexPolicy::kKdTree;
  AttachSlotIndex(slot);
  EXPECT_STREQ(slot.index->Name(), "kd-tree");

  // kAuto skips tiny populations (below kSlotIndexAutoThreshold).
  SlotContext tiny;
  for (int i = 0; i < kSlotIndexAutoThreshold - 1; ++i) {
    SlotSensor s;
    s.sensor_id = i;
    s.location = Point{static_cast<double>(i), 0.0};
    tiny.sensors.Append(s);
  }
  tiny.index_policy = SlotIndexPolicy::kAuto;
  AttachSlotIndex(tiny);
  EXPECT_EQ(tiny.index, nullptr);
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
      ExpectProbesReturnSorted(KdTreeIndex(points), picked, label + " kd");

      // Dynamic backends: sparse ids — the picked ones plus a few hundred
      // far fillers — half in the k-d snapshot and half buffered.
      std::vector<std::pair<int, Point>> live;
      for (int i = 0; i < id_space; ++i) {
        if (inside[static_cast<size_t>(i)] || i % 97 == 3) {
          live.emplace_back(i, points[static_cast<size_t>(i)]);
        }
      }
      DynamicGridIndex grid(Rect{0.0, 0.0, 60.0, 60.0},
                            static_cast<int>(live.size()));
      for (const auto& [id, p] : live) ASSERT_TRUE(grid.Insert(id, p));
      ExpectProbesReturnSorted(grid, picked, label + " dynamic grid");
      std::vector<std::pair<int, Point>> snapshot;
      for (size_t k = 0; k < live.size(); k += 2) snapshot.push_back(live[k]);
      BufferedKdTreeIndex buffered(snapshot);
      for (size_t k = 1; k < live.size(); k += 2) {
        ASSERT_TRUE(buffered.Insert(live[k].first, live[k].second));
      }
      ExpectProbesReturnSorted(buffered, picked, label + " buffered kd");
    }
  }
}

}  // namespace
}  // namespace psens
