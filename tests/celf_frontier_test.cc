// Tests of the CELF frontier (src/core/celf_frontier.h): after every
// Update and Remove its front must be the brute-force argmax of the live
// positions under (net desc, position asc), with -0.0 tying +0.0, NaN
// below every number and removed positions below NaN.

#include "core/celf_frontier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace psens {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// True when live net `a` at `pa` ranks above live net `b` at `pb`.
bool RanksAbove(double a, int pa, double b, int pb) {
  if (std::isnan(a) != std::isnan(b)) return std::isnan(b);
  if (!std::isnan(a) && a != b) return a > b;  // -0.0 == +0.0: a tie
  return pa < pb;
}

/// Brute-force front, or -1 when every position is removed.
int BruteTop(const std::vector<double>& net, const std::vector<bool>& live) {
  int top = -1;
  for (int p = 0; p < static_cast<int>(net.size()); ++p) {
    if (!live[p]) continue;
    if (top < 0 || RanksAbove(net[p], p, net[top], top)) top = p;
  }
  return top;
}

void ExpectFront(const CelfFrontier& frontier, const std::vector<double>& net,
                 const std::vector<bool>& live) {
  const int top = BruteTop(net, live);
  if (top < 0) {
    ASSERT_TRUE(frontier.Empty());
    EXPECT_TRUE(std::isnan(frontier.TopNet()));
    return;
  }
  ASSERT_FALSE(frontier.Empty());
  ASSERT_EQ(frontier.Top(), top);
  if (std::isnan(net[top])) {
    EXPECT_TRUE(std::isnan(frontier.TopNet()));
  } else {
    EXPECT_EQ(frontier.TopNet(), net[top]);
  }
}

/// A net from a small tie-heavy set (both zeros, both infinities, NaN) or
/// a uniform draw.
double DrawNet(Rng& rng) {
  static const double kSpecial[] = {-kInf, -1.0, -0.0, 0.0, 0.5,
                                    1.0,   2.0,  kInf, kNan};
  if (rng.Bernoulli(0.6)) {
    return kSpecial[rng.UniformInt(0, std::size(kSpecial) - 1)];
  }
  return rng.Uniform(-3.0, 3.0);
}

TEST(CelfFrontierTest, MatchesBruteForceUnderRandomUpdatesAndRemovals) {
  for (const int m : {0, 1, 2, 3, 5, 64, 1000, 1025}) {
    SCOPED_TRACE(testing::Message() << "m=" << m);
    Rng rng(static_cast<uint64_t>(1000 + m));
    std::vector<double> net(static_cast<size_t>(m));
    for (double& v : net) v = DrawNet(rng);
    std::vector<bool> live(static_cast<size_t>(m), true);
    CelfFrontier frontier(net);
    ExpectFront(frontier, net, live);
    if (m == 0) continue;
    const int ops = 4 * m + 50;
    for (int op = 0; op < ops; ++op) {
      const int pos = static_cast<int>(rng.UniformInt(0, m - 1));
      if (rng.Bernoulli(0.3)) {
        frontier.Remove(pos);
        live[static_cast<size_t>(pos)] = false;
      } else {
        const double v = DrawNet(rng);
        frontier.Update(pos, v);
        net[static_cast<size_t>(pos)] = v;
        live[static_cast<size_t>(pos)] = true;
      }
      ExpectFront(frontier, net, live);
    }
    // Drain: pop the front until nothing is live, as a CELF loop does;
    // m pops must empty it.
    for (int pops = 0; pops < m && !frontier.Empty(); ++pops) {
      const int top = frontier.Top();
      frontier.Remove(top);
      live[static_cast<size_t>(top)] = false;
      ExpectFront(frontier, net, live);
    }
    EXPECT_TRUE(frontier.Empty());
  }
}

TEST(CelfFrontierTest, SignedZerosTieAndTheLowerPositionWins) {
  for (const std::vector<double>& nets :
       {std::vector<double>{0.0, -0.0}, std::vector<double>{-0.0, 0.0}}) {
    CelfFrontier frontier(nets);
    EXPECT_EQ(frontier.Top(), 0);
    EXPECT_EQ(frontier.TopNet(), 0.0);
    EXPECT_FALSE(std::signbit(frontier.TopNet()));
  }
  // The tie also holds when a zero arrives through Update.
  CelfFrontier frontier(std::vector<double>{-1.0, -1.0, -1.0});
  frontier.Update(2, 0.0);
  frontier.Update(1, -0.0);
  EXPECT_EQ(frontier.Top(), 1);
  frontier.Update(0, 0.0);
  EXPECT_EQ(frontier.Top(), 0);
}

TEST(CelfFrontierTest, LiveNegativeInfinityBeatsARemovedLeaf) {
  CelfFrontier frontier(std::vector<double>{5.0, -kInf});
  frontier.Remove(0);
  ASSERT_FALSE(frontier.Empty());
  EXPECT_EQ(frontier.Top(), 1);
  EXPECT_EQ(frontier.TopNet(), -kInf);
  frontier.Remove(1);
  EXPECT_TRUE(frontier.Empty());
}

TEST(CelfFrontierTest, NanRanksBelowEveryNumberAndAboveRemovedLeaves) {
  CelfFrontier frontier(std::vector<double>{kNan, -kInf, 5.0, -kNan});
  EXPECT_EQ(frontier.Top(), 2);
  frontier.Remove(2);
  EXPECT_EQ(frontier.Top(), 1);
  frontier.Remove(1);
  // Two NaNs (either sign) tie: the lower position is the front, and its
  // net reads NaN, so a loop stopping on !(net > 0.0) commits neither.
  ASSERT_FALSE(frontier.Empty());
  EXPECT_EQ(frontier.Top(), 0);
  EXPECT_TRUE(std::isnan(frontier.TopNet()));
  EXPECT_FALSE(frontier.TopNet() > 0.0);
  frontier.Remove(0);
  EXPECT_EQ(frontier.Top(), 3);
  frontier.Remove(3);
  EXPECT_TRUE(frontier.Empty());
  EXPECT_TRUE(std::isnan(frontier.TopNet()));
  // A removed position comes back live through Update.
  frontier.Update(3, -kInf);
  EXPECT_EQ(frontier.Top(), 3);
}

}  // namespace
}  // namespace psens
