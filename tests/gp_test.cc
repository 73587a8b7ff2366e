#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "gp/gaussian_process.h"
#include "gp/gp_selector.h"
#include "gp/kernel.h"
#include "gp/spatio_temporal.h"
#include "la/cholesky.h"

namespace psens {
namespace {

std::shared_ptr<const Kernel> Se(double variance = 2.0, double length = 3.0) {
  return std::make_shared<SquaredExponentialKernel>(variance, length);
}

TEST(KernelTest, VarianceAtZeroDistance) {
  const SquaredExponentialKernel se(2.0, 3.0);
  EXPECT_DOUBLE_EQ(se(Point{1, 1}, Point{1, 1}), 2.0);
}

TEST(KernelTest, SymmetricAndDecaying) {
  const SquaredExponentialKernel se(1.0, 2.0);
  const Point a{0, 0}, b{1, 2}, c{5, 5};
  EXPECT_DOUBLE_EQ(se(a, b), se(b, a));
  EXPECT_GT(se(a, b), se(a, c));
  EXPECT_GT(se(a, b), 0.0);
}

TEST(KernelTest, CovarianceMatrixIsPsd) {
  Rng rng(3);
  std::vector<Point> pts;
  for (int i = 0; i < 10; ++i) {
    pts.push_back(Point{rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  const auto kernel = Se();
  Matrix k = CovarianceMatrix(*kernel, pts, pts);
  // PSD check via Cholesky with tiny jitter.
  EXPECT_TRUE(Cholesky(k, 1e-8).Ok());
}

TEST(GaussianProcessTest, PriorVarianceScalesWithTargets) {
  GaussianProcess gp(Se(2.0), 0.1);
  const std::vector<Point> targets = {{0, 0}, {1, 1}, {2, 2}};
  EXPECT_DOUBLE_EQ(gp.PriorVariance(targets), 6.0);
}

TEST(GaussianProcessTest, NoObservationsMeansNoReduction) {
  GaussianProcess gp(Se(), 0.1);
  const std::vector<Point> targets = {{0, 0}, {5, 5}};
  EXPECT_DOUBLE_EQ(gp.VarianceReduction(targets, {}), 0.0);
}

TEST(GaussianProcessTest, ObservationAtTargetRemovesMostVariance) {
  GaussianProcess gp(Se(2.0, 3.0), 1e-4);
  const std::vector<Point> targets = {{0, 0}};
  const double reduction = gp.VarianceReduction(targets, {{0, 0}});
  EXPECT_GT(reduction, 1.9);  // nearly all of the prior 2.0
  EXPECT_LE(reduction, 2.0);
}

TEST(GaussianProcessTest, ReductionMonotoneInObservations) {
  GaussianProcess gp(Se(), 0.1);
  const std::vector<Point> targets = {{0, 0}, {4, 0}, {8, 0}};
  const double one = gp.VarianceReduction(targets, {{1, 0}});
  const double two = gp.VarianceReduction(targets, {{1, 0}, {7, 0}});
  EXPECT_GT(two, one);
  EXPECT_LE(two, gp.PriorVariance(targets) + 1e-9);
}

TEST(GaussianProcessTest, FarObservationReducesLittle) {
  GaussianProcess gp(Se(1.0, 1.0), 0.1);
  const std::vector<Point> targets = {{0, 0}};
  EXPECT_LT(gp.VarianceReduction(targets, {{100, 100}}), 1e-6);
}

TEST(GridTargetsTest, CoversRegionAtStep) {
  const std::vector<Point> targets = GridTargets(Rect{0, 0, 4, 2}, 2.0);
  EXPECT_EQ(targets.size(), 2u * 1u);
  for (const Point& p : targets) {
    EXPECT_TRUE((Rect{0, 0, 4, 2}).Contains(p));
  }
  EXPECT_TRUE(GridTargets(Rect{0, 0, 4, 2}, 0.0).empty());
}

TEST(IncrementalGpSelectorTest, MatchesDirectVarianceReduction) {
  Rng rng(5);
  const auto kernel = Se(2.0, 2.5);
  const double noise = 0.2;
  std::vector<Point> targets;
  for (int i = 0; i < 12; ++i) {
    targets.push_back(Point{rng.Uniform(0, 10), rng.Uniform(0, 10)});
  }
  GaussianProcess gp(kernel, noise);
  IncrementalGpSelector selector(kernel, noise, targets);
  std::vector<Point> observed;
  for (int i = 0; i < 6; ++i) {
    const Point s{rng.Uniform(0, 10), rng.Uniform(0, 10)};
    const double before = selector.TotalReduction();
    const double gain = selector.MarginalGain(s);
    selector.Add(s);
    observed.push_back(s);
    EXPECT_NEAR(selector.TotalReduction(), before + gain, 1e-8);
    EXPECT_NEAR(selector.TotalReduction(), gp.VarianceReduction(targets, observed),
                1e-6)
        << "after " << i + 1 << " observations";
  }
  EXPECT_EQ(selector.NumObservations(), 6);
  EXPECT_LE(selector.TotalReduction(), selector.PriorVariance() + 1e-9);
}

TEST(IncrementalGpSelectorTest, MarginalGainsNonNegativeAndDiminishing) {
  const auto kernel = Se();
  IncrementalGpSelector selector(kernel, 0.1, {{0, 0}, {2, 0}});
  const Point s{1, 0};
  const double first = selector.MarginalGain(s);
  EXPECT_GE(first, 0.0);
  selector.Add(s);
  const double second = selector.MarginalGain(s);
  EXPECT_GE(second, 0.0);
  EXPECT_LT(second, first);  // re-observing the same spot is nearly useless
}

TEST(SpatioTemporalTest, ReducesToSpatialAtEqualTimes) {
  const auto spatial = Se(2.0, 3.0);
  const SpatioTemporalKernel st(spatial, 2.0);
  const STPoint a{{0, 0}, 5.0}, b{{1, 2}, 5.0};
  EXPECT_DOUBLE_EQ(st(a, b), (*spatial)(a.location, b.location));
}

TEST(SpatioTemporalTest, DecaysOverTime) {
  const SpatioTemporalKernel st(Se(1.0, 3.0), 2.0);
  const STPoint now{{0, 0}, 0.0};
  const STPoint later{{0, 0}, 4.0};
  EXPECT_LT(st(now, later), st(now, now));
  EXPECT_GT(st(now, later), 0.0);
}

TEST(SpatioTemporalTest, StaleObservationReducesLess) {
  const SpatioTemporalKernel st(Se(2.0, 3.0), 1.5);
  std::vector<STPoint> targets = {{{0, 0}, 10.0}, {{2, 0}, 10.0}};
  const double fresh =
      VarianceReductionST(st, 0.1, targets, {{{1, 0}, 10.0}});
  const double stale = VarianceReductionST(st, 0.1, targets, {{{1, 0}, 2.0}});
  EXPECT_GT(fresh, stale);
}

TEST(SpatioTemporalTest, EmptyObservationsZero) {
  const SpatioTemporalKernel st(Se(), 2.0);
  EXPECT_DOUBLE_EQ(VarianceReductionST(st, 0.1, {{{0, 0}, 0.0}}, {}), 0.0);
}

}  // namespace
}  // namespace psens
