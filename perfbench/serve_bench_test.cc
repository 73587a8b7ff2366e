// The benchmark's own tests: smoke-scale workloads emit every named metric
// with clean outcome checks, work counters follow the seed exactly, and
// the outcome digest catches a perturbed outcome.

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/serve_bench.h"

namespace perfbench {
namespace {

constexpr int kSmokeSlots = 6;

/// The metric names BENCHMARK.json lists, in its order.
const std::vector<std::string> kEndToEndNames = {
    "slots_per_s",      "slot_p50_ms", "slot_p90_ms",
    "utility_per_slot", "setup_s",     "peak_rss_mb",
};
const std::vector<std::string> kLayerNames = {
    "engine.apply_delta_ms",  "engine.begin_slot_ms",
    "engine.readings_ms",     "engine.share",
    "engine.members",         "engine.delta_ops",
    "engine.index_backend_switches",
    "bind.aggregate_ms",      "bind.point_ms",
    "bind.share",             "bind.aggregate_candidates",
    "bind.point_candidates",  "select.ms",
    "select.share",           "select.valuation_calls",
    "select.calls_aggregate", "select.calls_point",
    "select.selected",        "select.calls_per_selected",
    "slot.payments_ms",       "slot.unattributed_ms",
    "trace.overhead",
};

struct SmokeResult {
  UntracedRun untraced;
  TracedRun traced;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
};

SmokeResult RunSmoke(const WorkloadSpec& spec, uint64_t seed) {
  const WorkloadSpec smoke = SmokeScale(spec);
  const psens::ChurnScenarioSetup setup = MakeScenario(smoke, seed);
  SmokeResult r;
  r.untraced = RunUntraced(setup, smoke, RunLength{0.0, kSmokeSlots},
                           /*setup_seconds=*/0.0);
  r.traced = RunTraced(setup, smoke, r.untraced.outcomes);
  r.end_to_end = EndToEndMetrics(r.untraced, PeakRssMb());
  r.layers = LayerMetrics(r.traced, r.untraced);
  return r;
}

std::vector<std::string> Names(const std::vector<Metric>& metrics) {
  std::vector<std::string> names;
  for (const Metric& m : metrics) names.push_back(m.name);
  return names;
}

/// Layer metrics that are counts rather than times: deterministic per seed.
std::map<std::string, double> Counters(const SmokeResult& r) {
  std::map<std::string, double> out;
  for (const Metric& m : r.layers) {
    if (m.unit == "count/slot" || m.unit == "count" ||
        m.unit == "calls/selected") {
      out[m.name] = m.value;
    }
  }
  for (const Metric& m : r.end_to_end) {
    if (m.name == "utility_per_slot") out[m.name] = m.value;
  }
  return out;
}

uint64_t Digest(const SmokeResult& r) {
  return DigestOutcomes(r.untraced.outcomes, kWindowSlots);
}

TEST(PerfbenchSmoke, EveryWorkloadEmitsEveryMetricWithCleanChecks) {
  for (const WorkloadSpec& spec : Workloads()) {
    SCOPED_TRACE(spec.name);
    const SmokeResult r = RunSmoke(spec, 1);
    EXPECT_EQ(Names(r.end_to_end), kEndToEndNames);
    EXPECT_EQ(Names(r.layers), kLayerNames);
    for (const Metric& m : r.end_to_end) {
      EXPECT_TRUE(std::isfinite(m.value)) << m.name;
      EXPECT_GT(m.value, 0.0) << m.name;
    }
    for (const Metric& m : r.layers) {
      EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    }
    ASSERT_EQ(r.untraced.outcomes.size(), static_cast<size_t>(kSmokeSlots));
    EXPECT_EQ(r.untraced.failed, 0);
    EXPECT_EQ(r.traced.failed, 0);
    EXPECT_EQ(r.traced.mismatched, 0);
    // One slot span plus seven call spans per slot.
    EXPECT_EQ(r.traced.spans.size(), static_cast<size_t>(8 * kSmokeSlots));
  }
}

TEST(PerfbenchSmoke, CountersRepeatUnderOneSeedAndFollowTheSeed) {
  for (const WorkloadSpec& spec : Workloads()) {
    SCOPED_TRACE(spec.name);
    const SmokeResult run_a = RunSmoke(spec, 7);
    const SmokeResult run_b = RunSmoke(spec, 7);
    const SmokeResult run_c = RunSmoke(spec, 8);
    EXPECT_EQ(Digest(run_a), Digest(run_b));
    EXPECT_NE(Digest(run_a), Digest(run_c));
    const std::map<std::string, double> a = Counters(run_a);
    const std::map<std::string, double> b = Counters(run_b);
    const std::map<std::string, double> c = Counters(run_c);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.at("select.valuation_calls"), c.at("select.valuation_calls"));
    EXPECT_NE(a.at("engine.members"), c.at("engine.members"));
  }
}

TEST(PerfbenchDigest, TripsOnPerturbedOutcome) {
  const SmokeResult r = RunSmoke(Workloads().front(), 1);
  std::vector<psens::SlotOutcome> outcomes = r.untraced.outcomes;
  const uint64_t digest = DigestOutcomes(outcomes, kWindowSlots);
  const std::string pinned = DigestHex(digest);
  const int attempted = static_cast<int>(outcomes.size());
  EXPECT_EQ(FailedAfterDigestCheck(pinned, digest, 0, attempted), 0);
  EXPECT_EQ(FailedAfterDigestCheck("", digest, 0, attempted), 0);

  // One ulp of one payment is enough.
  outcomes.back().total_payment =
      std::nextafter(outcomes.back().total_payment, 1e300);
  const uint64_t perturbed = DigestOutcomes(outcomes, kWindowSlots);
  EXPECT_NE(perturbed, digest);
  EXPECT_EQ(FailedAfterDigestCheck(pinned, perturbed, 0, attempted),
            attempted);
}

TEST(PerfbenchHost, AdjustmentScalesByTheMedianOfNearbyProbes) {
  const std::vector<double> samples(30, 10.0);
  // A host at the reference speed leaves every sample as measured.
  const double ref = kReferenceProbeMs;
  EXPECT_EQ(HostAdjusted(samples, {ref, ref, ref}, 10), samples);
  // A host twice as slow halves them; one disturbed probe moves nothing.
  const std::vector<double> slow =
      HostAdjusted(samples, {2 * ref, 2 * ref, 50.0, 2 * ref}, 10);
  ASSERT_EQ(slow.size(), samples.size());
  for (double v : slow) EXPECT_DOUBLE_EQ(v, 5.0);
  EXPECT_TRUE(HostAdjusted(samples, {}, 10).empty());
}

TEST(PerfbenchHost, WindowedQuantileIgnoresABurstOverFewWindows) {
  // A burst over the last 15% of the slots: the run's p90 takes it in.
  std::vector<double> samples(1000, 10.0);
  std::fill(samples.begin() + 850, samples.end(), 30.0);
  EXPECT_EQ(Quantile(samples, 0.9), 30.0);
  EXPECT_EQ(WindowedQuantile(samples, 0.9), 10.0);
  // Too few samples for two windows: the plain quantile.
  const std::vector<double> few(samples.begin() + 800, samples.begin() + 950);
  EXPECT_EQ(WindowedQuantile(few, 0.9), Quantile(few, 0.9));
}

TEST(PerfbenchChecks, OutcomeChecksRejectBrokenPayments) {
  psens::SlotOutcome o;
  o.selection.total_value = 10.0;
  o.selection.total_cost = 4.0;
  o.total_payment = 4.0;
  EXPECT_TRUE(OutcomeOk(o));
  o.total_payment = 3.9;
  EXPECT_FALSE(OutcomeOk(o));
  o.total_payment = 4.0;
  o.selection.total_value = 3.0;  // negative utility
  EXPECT_FALSE(OutcomeOk(o));
}

}  // namespace
}  // namespace perfbench
