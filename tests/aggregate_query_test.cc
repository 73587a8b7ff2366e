#include "core/aggregate_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/rng.h"

namespace psens {
namespace {

SlotContext MakeSlot(std::vector<Point> positions, double cost = 10.0) {
  SlotContext slot;
  slot.time = 0;
  slot.dmax = 10.0;
  for (size_t i = 0; i < positions.size(); ++i) {
    SlotSensor s;
    s.sensor_id = static_cast<int>(i);
    s.location = positions[i];
    s.cost = cost;
    s.inaccuracy = 0.0;
    s.trust = 1.0;
    slot.sensors.Append(s);
  }
  return slot;
}

AggregateQuery::Params BaseParams() {
  AggregateQuery::Params params;
  params.id = 1;
  params.region = Rect{0, 0, 20, 20};
  params.budget = 100.0;
  params.sensing_range = 10.0;
  params.cell_size = 2.0;
  return params;
}

TEST(AggregateQueryTest, CenteredSensorCoversWholeSmallRegion) {
  const SlotContext slot = MakeSlot({Point{10, 10}});
  AggregateQuery::Params params = BaseParams();
  params.region = Rect{5, 5, 15, 15};  // all cells within range 10 of center
  AggregateQuery q(params, slot);
  q.Commit(0, 0.0);
  EXPECT_DOUBLE_EQ(q.CurrentCoverage(), 1.0);
  // Value = B * G * theta = 100 * 1 * 1.
  EXPECT_DOUBLE_EQ(q.CurrentValue(), 100.0);
}

TEST(AggregateQueryTest, FarSensorContributesNothing) {
  const SlotContext slot = MakeSlot({Point{200, 200}});
  AggregateQuery q(BaseParams(), slot);
  EXPECT_DOUBLE_EQ(q.MarginalValue(0), 0.0);
}

TEST(AggregateQueryTest, MarginalMatchesValueDifference) {
  Rng rng(3);
  std::vector<Point> positions;
  for (int i = 0; i < 6; ++i) {
    positions.push_back(Point{rng.Uniform(0, 20), rng.Uniform(0, 20)});
  }
  const SlotContext slot = MakeSlot(positions);
  AggregateQuery q(BaseParams(), slot);
  double value = 0.0;
  std::vector<int> committed;
  for (int i = 0; i < 6; ++i) {
    const double marginal = q.MarginalValue(i);
    committed.push_back(i);
    const double direct = q.ValueOf(committed);
    EXPECT_NEAR(value + marginal, direct, 1e-9) << "sensor " << i;
    q.Commit(i, 0.0);
    value = q.CurrentValue();
    EXPECT_NEAR(value, direct, 1e-9);
  }
}

TEST(AggregateQueryTest, ValuationIsNonMonotone) {
  // Adding a low-quality sensor that covers nothing new drags the mean
  // theta down: the Eq. (5) valuation is non-monotone (Section 3.2).
  SlotContext slot = MakeSlot({Point{10, 10}, Point{10, 10}});
  slot.sensors.inaccuracy[1] = 0.9;  // theta = 0.1
  AggregateQuery::Params params = BaseParams();
  params.region = Rect{5, 5, 15, 15};
  AggregateQuery q(params, slot);
  q.Commit(0, 0.0);
  const double before = q.CurrentValue();
  EXPECT_LT(q.MarginalValue(1), 0.0);
  q.Commit(1, 0.0);
  EXPECT_LT(q.CurrentValue(), before);
}

TEST(AggregateQueryTest, CoverageGrowsWithDisjointSensors) {
  AggregateQuery::Params params = BaseParams();
  params.region = Rect{0, 0, 40, 10};
  params.sensing_range = 5.0;
  const SlotContext slot = MakeSlot({Point{5, 5}, Point{35, 5}});
  AggregateQuery q(params, slot);
  q.Commit(0, 0.0);
  const double one = q.CurrentCoverage();
  q.Commit(1, 0.0);
  EXPECT_GT(q.CurrentCoverage(), one);
}

TEST(AggregateQueryTest, ResetSelectionClearsState) {
  const SlotContext slot = MakeSlot({Point{10, 10}});
  AggregateQuery q(BaseParams(), slot);
  q.Commit(0, 5.0);
  EXPECT_GT(q.CurrentValue(), 0.0);
  q.ResetSelection();
  EXPECT_DOUBLE_EQ(q.CurrentValue(), 0.0);
  EXPECT_DOUBLE_EQ(q.TotalPayment(), 0.0);
  EXPECT_DOUBLE_EQ(q.CurrentCoverage(), 0.0);
  EXPECT_TRUE(q.SelectedSensors().empty());
}

TEST(AggregateQueryTest, MaxValueIsBudget) {
  const SlotContext slot = MakeSlot({Point{10, 10}});
  AggregateQuery q(BaseParams(), slot);
  EXPECT_DOUBLE_EQ(q.MaxValue(), 100.0);
}

// ---------------------------------------------------------------------------
// Windowed bind vs the every-cell oracle
// ---------------------------------------------------------------------------

/// The bind the windowed constructor replaced, kept as the test oracle:
/// the grown-rect quick reject, then every region cell tested with
/// Distance(center, loc) <= range.
struct OracleGrid {
  int num_cells = 0;
  /// Per slot sensor: covered cells (empty when the quick reject drops it).
  std::vector<std::vector<bool>> covered;
};

OracleGrid EveryCellBind(const AggregateQuery::Params& p,
                         const SlotContext& slot) {
  const double cell = std::max(1e-9, p.cell_size);
  const int cells_x =
      std::max(1, static_cast<int>(std::ceil(p.region.Width() / cell)));
  const int cells_y =
      std::max(1, static_cast<int>(std::ceil(p.region.Height() / cell)));
  const double range = p.sensing_range;
  const Rect grown{p.region.x_min - range, p.region.y_min - range,
                   p.region.x_max + range, p.region.y_max + range};
  OracleGrid grid;
  grid.num_cells = cells_x * cells_y;
  grid.covered.resize(slot.sensors.size());
  for (size_t si = 0; si < slot.sensors.size(); ++si) {
    const SlotSensor s = slot.sensors.Row(si);
    if (!grown.Contains(s.location)) continue;
    std::vector<bool>& mask = grid.covered[si];
    mask.assign(grid.num_cells, false);
    for (int c = 0; c < grid.num_cells; ++c) {
      const int cx = c % cells_x;
      const int cy = c / cells_x;
      const Point center{p.region.x_min + (cx + 0.5) * cell,
                         p.region.y_min + (cy + 0.5) * cell};
      mask[c] = Distance(center, s.location) <= range;
    }
  }
  return grid;
}

/// Eq. (5) value of `sensors` from the oracle's covered-cell count, in
/// the valuation's own operation order; `*covered_cells` gets the count.
double OracleValue(const AggregateQuery::Params& p, const SlotContext& slot,
                   const OracleGrid& grid, const std::vector<int>& sensors,
                   int* covered_cells) {
  std::vector<bool> acc(grid.num_cells, false);
  double theta_sum = 0.0;
  for (int s : sensors) {
    const std::vector<bool>& mask = grid.covered[s];
    bool any = false;
    for (size_t c = 0; c < mask.size(); ++c) {
      if (mask[c]) acc[c] = any = true;
    }
    const SlotSensor sensor = slot.sensors.Row(s);
    if (any) theta_sum += (1.0 - sensor.inaccuracy) * sensor.trust;
  }
  *covered_cells = static_cast<int>(std::count(acc.begin(), acc.end(), true));
  if (sensors.empty()) return 0.0;
  const double coverage = static_cast<double>(*covered_cells) / grid.num_cells;
  return p.budget * coverage *
         (theta_sum / static_cast<int>(sensors.size()));
}

struct BindCase {
  std::string name;
  Rect region;
  double cell_size;
  double sensing_range;
  std::vector<Point> sensors;  // hand-placed; random ones are appended
};

/// Fixed points plus random ones spread over the grown rect and a margin
/// beyond it, with sensor-specific theta.
SlotContext MakeCaseSlot(const BindCase& bc, uint64_t seed) {
  std::vector<Point> positions = bc.sensors;
  Rng rng(seed);
  const double reach = bc.sensing_range + 2.0;
  for (int i = 0; i < 48; ++i) {
    positions.push_back(
        Point{rng.Uniform(bc.region.x_min - reach, bc.region.x_max + reach),
              rng.Uniform(bc.region.y_min - reach, bc.region.y_max + reach)});
  }
  SlotContext slot = MakeSlot(positions);
  for (size_t i = 0; i < slot.sensors.size(); ++i) {
    slot.sensors.inaccuracy[i] = 0.05 * (i % 7);
    slot.sensors.trust[i] = 1.0 - 0.03 * (i % 5);
  }
  return slot;
}

std::vector<BindCase> BindCases() {
  std::vector<BindCase> cases;
  // Centers sit on odd coordinates; 3-4-5 and 6-8-10 offsets put sensors
  // at exactly `range` from a center, and axis-aligned offsets put them
  // exactly on a column's or row's 1-D window edge.
  cases.push_back({"exact_range", Rect{0, 0, 20, 20}, 2.0, 5.0,
                   {{8, 9}, {9, 8}, {2, 1}, {10, 5}, {5, 0}, {0, 5},
                    {-4, 1}, {24, 19}, {19, 24}, {10, 10}, {15, 3}}});
  cases.push_back({"exact_range_10", Rect{0, 0, 40, 30}, 2.0, 10.0,
                   {{11, 13}, {13, 11}, {-9, 1}, {1, -9}, {49, 29},
                    {39, 39}, {20, 20}}});
  // Coarse survivors outside the region, some covering nothing.
  cases.push_back({"outside_region", Rect{0, 0, 20, 20}, 2.0, 5.0,
                   {{-4.5, 10}, {24, 3}, {-3, -3}, {23.9, 23.9}, {10, -4.99},
                    {10, 25}, {-5, -5}, {25, 25}}});
  // One column whose only center (x = 11) lies past x_max.
  cases.push_back({"narrow_region", Rect{10, 10, 10.5, 30}, 2.0, 3.0,
                   {{8, 21}, {14, 21}, {13.9, 15}, {7.9, 15}, {10.2, 35},
                    {10.25, 10}, {13.5, 33}}});
  // 11 columns for a 20.5 width: the last center (21) lies past x_max.
  cases.push_back({"ragged_width", Rect{0, 0, 20.5, 9}, 2.0, 3.0,
                   {{23.5, 5}, {24, 5}, {23.4, 9}, {21, 12}, {-3, 0},
                    {20.5, 4.5}}});
  cases.push_back({"negative_coords", Rect{-30, -25, -5, -3}, 2.5, 4.0,
                   {{-31.75, -23.75}, {-6.25, -0.75}, {-34, -29}, {-1, 1},
                    {-17.5, -14}}});
  // Range below half a cell: a disk holds at most one center.
  cases.push_back({"tiny_range", Rect{0, 0, 20, 20}, 2.0, 0.7,
                   {{1, 1}, {2, 2}, {1.7, 1}, {19, 19.7}, {10, 10},
                    {-0.7, 1}}});
  // Range beyond the region's diagonal.
  cases.push_back({"huge_range", Rect{0, 0, 10, 10}, 2.0, 50.0,
                   {{5, 5}, {-40, 5}, {55, 55}, {60, -40}, {-39, -39},
                    {5, 59}}});
  return cases;
}

TEST(AggregateQueryTest, WindowedBindMatchesEveryCellOracle) {
  uint64_t seed = 11;
  for (const BindCase& bc : BindCases()) {
    AggregateQuery::Params params = BaseParams();
    params.region = bc.region;
    params.cell_size = bc.cell_size;
    params.sensing_range = bc.sensing_range;
    SlotContext synced = MakeCaseSlot(bc, seed++);
    SlotContext unindexed = synced;
    synced.index_policy = SlotIndexPolicy::kGrid;
    AttachSlotIndex(synced);
    const OracleGrid grid = EveryCellBind(params, synced);
    const int n = static_cast<int>(synced.sensors.size());

    std::vector<std::vector<int>> sets;
    for (int i = 0; i < n; ++i) sets.push_back({i});
    for (int i = 0; i < n; ++i) sets.push_back({i, (i + 1) % n});
    for (int i = 0; i < n; ++i) sets.push_back({i, (i + 5) % n, (i + 13) % n});

    std::vector<int> oracle_candidates;
    for (int i = 0; i < n; ++i) {
      const std::vector<bool>& mask = grid.covered[i];
      if (std::find(mask.begin(), mask.end(), true) != mask.end()) {
        oracle_candidates.push_back(i);
      }
    }

    for (const SlotContext* slot : {&synced, &unindexed}) {
      SCOPED_TRACE(bc.name + (slot == &synced ? " synced" : " unindexed"));
      AggregateQuery q(params, *slot);
      if (slot->index != nullptr) {
        ASSERT_NE(q.CandidateSensors(), nullptr);
        EXPECT_EQ(*q.CandidateSensors(), oracle_candidates);
      }
      for (const std::vector<int>& set : sets) {
        int covered = 0;
        const double expected = OracleValue(params, *slot, grid, set, &covered);
        EXPECT_EQ(q.ValueOf(set), expected) << "set starting " << set[0];
        q.ResetSelection();
        for (int s : set) q.Commit(s, 0.0);
        EXPECT_EQ(q.CurrentCoverage(),
                  static_cast<double>(covered) / grid.num_cells)
            << "set starting " << set[0];
        EXPECT_EQ(q.CurrentValue(), expected) << "set starting " << set[0];
      }
    }
  }
}

// The two binders share one cell numbering (row-major from the raster's
// lower-left cell) and one kernel, so where a trajectory's corridor keeps
// its whole raster, the trajectory query and the region query over that
// raster are the same Eq. 5 instance, bit for bit.
TEST(AggregateQueryTest, TrajectoryAndRegionBindersAgreeWhereCellsCoincide) {
  // Corridor 2 around (0,0)-(20,0) at cell 2 rasterizes 12 x 2 cells
  // centered on x = -1, 1, ..., 21 and y = -1, 1. Every center lies
  // within the corridor (the corner centers sit sqrt(2) from an
  // endpoint), so all 24 are kept: the cells of [-2,22] x [-2,2].
  AggregateQuery::TrajectoryParams tp;
  tp.id = 1;
  tp.trajectory.waypoints = {{0, 0}, {20, 0}};
  tp.budget = 60.0;
  tp.sensing_range = 5.0;
  tp.cell_size = 2.0;
  tp.corridor = 2.0;
  AggregateQuery::Params rp;
  rp.id = 2;
  rp.region = Rect{-2, -2, 22, 2};
  rp.budget = tp.budget;
  rp.sensing_range = tp.sensing_range;
  rp.cell_size = tp.cell_size;

  Rng rng(29);
  SlotContext unindexed;
  unindexed.dmax = 10.0;
  for (int i = 0; i < 40; ++i) {
    SlotSensor s;
    s.sensor_id = i;
    s.location = Point{rng.Uniform(-10, 30), rng.Uniform(-10, 10)};
    s.cost = 1.0;
    s.inaccuracy = rng.Uniform(0.0, 0.4);
    s.trust = rng.Uniform(0.5, 1.0);
    unindexed.sensors.Append(s);
  }
  SlotContext indexed = unindexed;
  AttachSlotIndex(indexed);
  ASSERT_NE(indexed.index, nullptr);

  for (const SlotContext* slot : {&indexed, &unindexed}) {
    SCOPED_TRACE(slot == &indexed ? "indexed" : "unindexed");
    AggregateQuery trajectory(tp, *slot);
    AggregateQuery region(rp, *slot);
    const int n = static_cast<int>(slot->sensors.size());
    // Keys are candidate ordinals on either slot.
    const std::vector<int>* candidates = region.CandidateSensors();
    ASSERT_NE(candidates, nullptr);
    ASSERT_NE(trajectory.CandidateSensors(), nullptr);
    EXPECT_EQ(*trajectory.CandidateSensors(), *candidates);
    const size_t num_keys = candidates->size();
    std::vector<int> keys(num_keys);
    std::iota(keys.begin(), keys.end(), 0);
    std::vector<double> from_trajectory(num_keys);
    std::vector<double> from_region(num_keys);
    std::vector<int> committed;
    // Commit every sensor in row order, candidates or not, checking the
    // empty selection and the state after each commit.
    for (int next = 0; next <= n; ++next) {
      SCOPED_TRACE(::testing::Message() << committed.size() << " committed");
      for (int s = 0; s < n; ++s) {
        EXPECT_EQ(trajectory.MarginalValue(s), region.MarginalValue(s))
            << "sensor " << s;
      }
      trajectory.MarginalsAt(keys, from_trajectory);
      region.MarginalsAt(keys, from_region);
      EXPECT_EQ(from_trajectory, from_region);
      EXPECT_EQ(trajectory.ValueOf(committed), region.ValueOf(committed));
      EXPECT_EQ(trajectory.CurrentValue(), region.CurrentValue());
      EXPECT_EQ(trajectory.CurrentCoverage(), region.CurrentCoverage());
      if (next == n) break;
      trajectory.Commit(next, 0.0);
      region.Commit(next, 0.0);
      committed.push_back(next);
    }
    // The run covered cells and valued them: the comparisons were not
    // all of zeros.
    EXPECT_GT(region.CurrentCoverage(), 0.0);
    EXPECT_GT(region.CurrentValue(), 0.0);
  }
}

TEST(TrajectoryQueryTest, SensorOnTrajectoryCovers) {
  AggregateQuery::TrajectoryParams params;
  params.id = 1;
  params.trajectory.waypoints = {{0, 0}, {20, 0}};
  params.budget = 50.0;
  params.sensing_range = 30.0;
  params.corridor = 2.0;
  const SlotContext slot = MakeSlot({Point{10, 0}});
  AggregateQuery q(params, slot);
  EXPECT_GT(q.MarginalValue(0), 0.0);
  q.Commit(0, 0.0);
  EXPECT_DOUBLE_EQ(q.CurrentCoverage(), 1.0);
  EXPECT_DOUBLE_EQ(q.CurrentValue(), 50.0);
}

TEST(TrajectoryQueryTest, SensorFarFromTrajectoryDoesNot) {
  AggregateQuery::TrajectoryParams params;
  params.id = 1;
  params.trajectory.waypoints = {{0, 0}, {20, 0}};
  params.budget = 50.0;
  params.sensing_range = 5.0;
  params.corridor = 2.0;
  const SlotContext slot = MakeSlot({Point{10, 50}});
  AggregateQuery q(params, slot);
  EXPECT_DOUBLE_EQ(q.MarginalValue(0), 0.0);
}

TEST(TrajectoryQueryTest, PartialCoverageAlongLongRoute) {
  AggregateQuery::TrajectoryParams params;
  params.id = 1;
  params.trajectory.waypoints = {{0, 0}, {100, 0}};
  params.budget = 50.0;
  params.sensing_range = 10.0;
  params.corridor = 2.0;
  const SlotContext slot = MakeSlot({Point{0, 0}});
  AggregateQuery q(params, slot);
  q.Commit(0, 0.0);
  EXPECT_GT(q.CurrentCoverage(), 0.0);
  EXPECT_LT(q.CurrentCoverage(), 0.5);
}

TEST(TrajectoryQueryTest, MarginalConsistentWithValueOf) {
  Rng rng(5);
  AggregateQuery::TrajectoryParams params;
  params.id = 1;
  params.trajectory.waypoints = {{0, 0}, {15, 5}, {30, 0}};
  params.budget = 80.0;
  params.sensing_range = 8.0;
  std::vector<Point> positions;
  for (int i = 0; i < 5; ++i) {
    positions.push_back(Point{rng.Uniform(0, 30), rng.Uniform(-5, 10)});
  }
  const SlotContext slot = MakeSlot(positions);
  AggregateQuery q(params, slot);
  std::vector<int> committed;
  double value = 0.0;
  for (int i = 0; i < 5; ++i) {
    const double marginal = q.MarginalValue(i);
    committed.push_back(i);
    EXPECT_NEAR(value + marginal, q.ValueOf(committed), 1e-9);
    q.Commit(i, 0.0);
    value = q.CurrentValue();
  }
}

TEST(TrajectoryQueryTest, EmptyTrajectoryDoesNotCrash) {
  AggregateQuery::TrajectoryParams params;
  params.budget = 10.0;
  const SlotContext slot = MakeSlot({Point{0, 0}});
  AggregateQuery q(params, slot);
  (void)q.MarginalValue(0);
}

}  // namespace
}  // namespace psens
