#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/point_scheduling.h"
#include "solver/facility_location.h"

namespace psens {
namespace {

FacilityLocationProblem RandomProblem(int sensors, int locations, double cover_p,
                                      Rng& rng) {
  FacilityLocationProblem p;
  p.num_locations = locations;
  p.open_cost.resize(sensors);
  p.value.resize(sensors);
  for (int i = 0; i < sensors; ++i) {
    p.open_cost[i] = rng.Uniform(5.0, 15.0);
    for (int l = 0; l < locations; ++l) {
      if (rng.Bernoulli(cover_p)) {
        p.value[i].emplace_back(l, rng.Uniform(1.0, 12.0));
      }
    }
  }
  return p;
}

TEST(LocalSearchTest, EmptyProblemReturnsEmpty) {
  FacilityLocationProblem p;
  p.num_locations = 0;
  const FacilityLocationSolution s = LocalSearchFacility(p);
  EXPECT_DOUBLE_EQ(s.objective, 0.0);
}

TEST(LocalSearchTest, SolutionIsConsistentlyEvaluated) {
  Rng rng(3);
  const FacilityLocationProblem p = RandomProblem(15, 20, 0.3, rng);
  const FacilityLocationSolution s = LocalSearchFacility(p);
  EXPECT_NEAR(s.objective, EvaluateOpenSet(p, s.open), 1e-9);
}

TEST(LocalSearchTest, NeverNegativeObjective) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const FacilityLocationProblem p = RandomProblem(12, 10, 0.5, rng);
    const FacilityLocationSolution s = LocalSearchFacility(p, false, trial);
    EXPECT_GE(s.objective, 0.0);
  }
}

class LocalSearchApproximationTest : public ::testing::TestWithParam<int> {};

TEST_P(LocalSearchApproximationTest, WithinOneThirdOfOptimum) {
  // Feige et al.'s deterministic local search guarantees u(W) >= 1/3 OPT
  // for non-negative non-monotone submodular functions; our u can dip
  // negative only through costs, and in practice the bound holds on these
  // instances. Verify against brute force.
  Rng rng(400 + GetParam());
  const int sensors = 4 + GetParam() % 9;
  const FacilityLocationProblem p =
      RandomProblem(sensors, 3 + GetParam() % 8, 0.5, rng);
  const FacilityLocationSolution opt = SolveByBruteForce(p);
  const FacilityLocationSolution ls = LocalSearchFacility(p);
  EXPECT_GE(ls.objective + 1e-9, opt.objective / 3.0)
      << "LS " << ls.objective << " vs OPT " << opt.objective;
  EXPECT_LE(ls.objective, opt.objective + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, LocalSearchApproximationTest,
                         ::testing::Range(0, 30));

TEST(LocalSearchTest, LocalOptimumHasNoImprovingSingleMove) {
  Rng rng(7);
  const FacilityLocationProblem p = RandomProblem(12, 15, 0.4, rng);
  const FacilityLocationSolution s = LocalSearchFacility(p);
  const double base = s.objective;
  // Flipping any single sensor must not improve the objective beyond eps.
  for (int i = 0; i < p.NumSensors(); ++i) {
    std::vector<char> flipped = s.open;
    flipped[i] = flipped[i] ? 0 : 1;
    EXPECT_LE(EvaluateOpenSet(p, flipped), base + 1e-6) << "sensor " << i;
  }
}

TEST(LocalSearchTest, RandomizedRestartsNeverWorseThanZero) {
  Rng rng(9);
  const FacilityLocationProblem p = RandomProblem(20, 25, 0.3, rng);
  const FacilityLocationSolution deterministic = LocalSearchFacility(p);
  const FacilityLocationSolution randomized =
      LocalSearchFacility(p, /*randomized=*/true, /*seed=*/42, /*restarts=*/5);
  EXPECT_GE(randomized.objective, 0.0);
  // Both are local optima of the same landscape; neither dominates in
  // general, but both must be consistent evaluations.
  EXPECT_NEAR(randomized.objective, EvaluateOpenSet(p, randomized.open), 1e-9);
  EXPECT_NEAR(deterministic.objective, EvaluateOpenSet(p, deterministic.open), 1e-9);
}

TEST(LocalSearchTest, DeterministicGivenSeed) {
  Rng rng(11);
  const FacilityLocationProblem p = RandomProblem(15, 15, 0.4, rng);
  const FacilityLocationSolution a = LocalSearchFacility(p, true, 123, 3);
  const FacilityLocationSolution b = LocalSearchFacility(p, true, 123, 3);
  EXPECT_EQ(a.open, b.open);
}

}  // namespace
}  // namespace psens
