#include "core/sieve_streaming.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "core/batch_eval.h"
#include "core/candidate_pruning.h"
#include "core/celf_frontier.h"
#include "core/sensor_delta.h"

namespace psens {
namespace {

/// Slot index of a global sensor id, or -1 when the sensor is not a slot
/// member. Slot rows ascend by sensor_id (BuildSlotContext walks the
/// id-dense registry in order; the engine maintains a sorted member
/// table), so a binary search of the id column suffices.
int SlotIndexOf(const SlotContext& slot, int sensor_id) {
  const std::vector<int>& ids = slot.sensors.sensor_id;
  const auto it = std::lower_bound(ids.begin(), ids.end(), sensor_id);
  if (it == ids.end() || *it != sensor_id) return -1;
  return static_cast<int>(it - ids.begin());
}

double ClampEpsilon(double epsilon) {
  // The lower clamp bounds the threshold-grid size: the graded bucket
  // count is ~ln(1/eps)/ln(1+eps), so 1e-3 caps it at ~6.9e3 before the
  // explicit kMaxGradedBuckets cap below even engages.
  return std::clamp(epsilon, 1e-3, 0.999);
}

/// Hard cap on instantiated graded buckets: per-slot cost scales with the
/// bucket count, and beyond this many thresholds the grid's quality gain
/// is noise. The cap keeps degenerate epsilon values from turning the
/// sieve into an accidental hang (the floor bucket is extra).
constexpr int kMaxGradedBuckets = 64;

/// Refinement-bench capacity: how many of the best-singleton-net
/// candidates stay in refinement contention across slots. Bounds the
/// refinement pool (hence per-slot refinement cost) independent of the
/// population; sized to comfortably exceed the selection sizes the
/// budget-limited workloads produce.
constexpr size_t kRefineBenchSize = 1024;

/// Per-slot exploration sample fed into the refinement pool: a seeded
/// uniform draw from the slot's candidate scan set. Bucket state and the
/// bench only ever grow through the *streamed* sensors (arrivals, after
/// initialization), but the slot's queries move every slot — the sample
/// is how sensors relevant to the current queries enter contention
/// without a population sweep. Clustered workloads re-draw queries from
/// persistent hotspots, so sampled winners accumulate in the bench.
constexpr size_t kRefineSampleSize = 1536;

/// The bench's order, (net desc, global id asc): deterministic whatever
/// order its entries arrive in.
bool BenchOrder(const std::pair<double, int>& a,
                const std::pair<double, int>& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second < b.second;
}

}  // namespace

SieveStreamingScheduler::SieveStreamingScheduler(const ApproxParams& params)
    : epsilon_(ClampEpsilon(params.epsilon)) {}

double SieveStreamingScheduler::Tau(const Bucket& bucket) const {
  if (bucket.floor) return 0.0;
  return std::pow(1.0 + epsilon_, bucket.exponent);
}

void SieveStreamingScheduler::EnsureBuckets(double m) {
  // The floor bucket (tau = 0, plain accept-any-positive streaming greedy)
  // always exists and always survives grid moves.
  if (buckets_.empty() || !buckets_.back().floor) {
    Bucket floor;
    floor.floor = true;
    buckets_.push_back(floor);
  }
  if (m <= 0.0) return;
  const double log_base = std::log(1.0 + epsilon_);
  const int j_max = static_cast<int>(std::floor(std::log(m) / log_base));
  const int j_min = std::max(
      static_cast<int>(std::ceil(std::log(epsilon_ * m) / log_base)),
      j_max - kMaxGradedBuckets + 1);
  // Drop graded buckets that fell below the classic epsilon * m window
  // (their role is covered by lower-threshold survivors and the floor),
  // then instantiate any missing exponents. Kept sorted descending by
  // threshold, floor last, so winner tie-breaks are deterministic.
  std::vector<Bucket> kept;
  for (Bucket& b : buckets_) {
    if (b.floor || (b.exponent >= j_min && b.exponent <= j_max)) {
      kept.push_back(std::move(b));
    }
  }
  buckets_ = std::move(kept);
  for (int j = j_min; j <= j_max; ++j) {
    bool present = false;
    for (const Bucket& b : buckets_) {
      if (!b.floor && b.exponent == j) present = true;
    }
    if (!present) {
      Bucket bucket;
      bucket.exponent = j;
      buckets_.push_back(bucket);
    }
  }
  std::sort(buckets_.begin(), buckets_.end(),
            [](const Bucket& a, const Bucket& b) {
              if (a.floor != b.floor) return b.floor;  // floor last
              return a.exponent > b.exponent;
            });
}

SelectionResult SieveStreamingScheduler::SelectFull(
    const std::vector<MultiQuery*>& queries, const SlotContext& slot,
    const std::vector<double>* cost_scale) {
  buckets_.clear();
  bench_.clear();
  max_single_net_ = 0.0;
  initialized_ = false;
  return SelectArrivals(queries, slot, {}, cost_scale);
}

SelectionResult SieveStreamingScheduler::SelectDelta(
    const std::vector<MultiQuery*>& queries, const SlotContext& slot,
    const SensorDelta& delta, const std::vector<double>* cost_scale) {
  if (!initialized_) return SelectFull(queries, slot, cost_scale);
  std::vector<int> arrival_ids;
  arrival_ids.reserve(delta.arrivals.size() + delta.moves.size());
  for (const SensorDelta::Placement& a : delta.arrivals) {
    arrival_ids.push_back(a.sensor_id);
  }
  // A move can carry a sensor into the working region (or into range of a
  // query), so moved sensors are re-offered like arrivals; moved members
  // are additionally re-validated by the replay pass.
  for (const SensorDelta::Placement& m : delta.moves) {
    arrival_ids.push_back(m.sensor_id);
  }
  return SelectArrivals(queries, slot, arrival_ids, cost_scale);
}

SelectionResult SieveStreamingScheduler::SelectArrivals(
    const std::vector<MultiQuery*>& queries, const SlotContext& slot,
    const std::vector<int>& arrival_ids,
    const std::vector<double>* cost_scale) {
  SelectionResult result;
  const int64_t calls_before = TotalValuationCalls(queries);
  const int n = static_cast<int>(slot.sensors.size());
  const bool full_stream = !initialized_;

  for (MultiQuery* q : queries) q->ResetSelection();
  const CandidatePlan plan = BuildCandidatePlan(queries, n, slot.arena);
  NetEvaluator evaluator(queries, plan, slot, cost_scale);

  // The offered stream, ascending slot indices: the whole candidate set on
  // (re)initialization, only the delta's arrivals afterwards.
  std::vector<int> offered;
  if (full_stream) {
    const std::span<const int> scan = plan.ScanSensors();
    offered.assign(scan.begin(), scan.end());
  } else {
    for (int id : arrival_ids) {
      const int idx = SlotIndexOf(slot, id);
      if (idx >= 0) offered.push_back(idx);
    }
    std::sort(offered.begin(), offered.end());
    offered.erase(std::unique(offered.begin(), offered.end()), offered.end());
  }

  // Single-sensor nets of the offered stream against the empty selection:
  // they seed the threshold grid, and (for submodular valuations) they
  // upper-bound any later marginal, so a bucket only streams sensors whose
  // single net reaches its threshold.
  std::vector<double> net0(offered.size());
  evaluator.EvaluateSensorNets(offered, net0.data());
  for (double v : net0) max_single_net_ = std::max(max_single_net_, v);
  EnsureBuckets(max_single_net_);

  // Bench maintenance (refinement candidate pool): remember the top
  // streamed candidates by singleton net whether or not any bucket
  // accepts them — a high-singleton sensor rejected mid-stream (its
  // marginal had collapsed against that bucket's selection) is exactly
  // what the refinement pass needs back in contention. Re-uses the
  // net0 sweep, so the bench costs no extra valuations; entries whose
  // sensor left the slot are dropped (a returning sensor re-enters via
  // the arrival/move stream).
  {
    std::unordered_map<int, double> merged;
    merged.reserve(bench_.size() + offered.size());
    for (const auto& [net, gid] : bench_) {
      if (SlotIndexOf(slot, gid) >= 0) merged.emplace(gid, net);
    }
    for (size_t k = 0; k < offered.size(); ++k) {
      if (net0[k] <= 0.0) continue;
      const int gid =
          slot.sensors.sensor_id[static_cast<size_t>(offered[k])];
      merged[gid] = net0[k];  // newest observation wins
    }
    bench_.clear();
    bench_.reserve(merged.size());
    for (const auto& [gid, net] : merged) bench_.emplace_back(net, gid);
    std::sort(bench_.begin(), bench_.end(), BenchOrder);
    if (bench_.size() > kRefineBenchSize) bench_.resize(kRefineBenchSize);
  }

  // EnsureBuckets always keeps the floor bucket, so there is at least one
  // bucket and the first one seeds the running best.
  double best_utility = 0.0;
  size_t best_bucket = 0;
  std::vector<std::vector<int>> new_members(buckets_.size());
  std::vector<int> sorted_members;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    Bucket& bucket = buckets_[b];
    const double tau = Tau(bucket);
    for (MultiQuery* q : queries) q->ResetSelection();
    double cost_sum = 0.0;
    std::vector<int>& members = new_members[b];
    // Replay carried members against the new slot: departed sensors have
    // no slot index and drop out; repriced or moved members whose net is
    // no longer positive are evicted (hysteresis: retention only needs a
    // positive net, not the full threshold, so marginal price jitter does
    // not thrash the bucket).
    for (int gid : bucket.members) {
      const int idx = SlotIndexOf(slot, gid);
      if (idx < 0) continue;
      if (evaluator.EvaluateSensorNet(idx) <= 0.0) continue;
      cost_sum += CommitWithProportionalPayments(queries, plan, slot, idx);
      members.push_back(gid);
    }
    sorted_members = members;
    std::sort(sorted_members.begin(), sorted_members.end());
    // Offer the stream in announcement (ascending-index) order.
    for (size_t k = 0; k < offered.size(); ++k) {
      if (net0[k] <= 0.0 || net0[k] < tau) continue;
      const int idx = offered[k];
      const int gid = slot.sensors.sensor_id[static_cast<size_t>(idx)];
      if (std::binary_search(sorted_members.begin(), sorted_members.end(),
                             gid)) {
        continue;
      }
      const double net = evaluator.EvaluateSensorNet(idx);
      if (net <= 0.0 || net < tau) continue;
      cost_sum += CommitWithProportionalPayments(queries, plan, slot, idx);
      members.push_back(gid);
    }
    double value = 0.0;
    for (const MultiQuery* q : queries) value += q->CurrentValue();
    const double utility = value - cost_sum;
    // Strict >: ties go to the higher-threshold (cheaper) bucket.
    if (b == 0 || utility > best_utility) {
      best_utility = utility;
      best_bucket = b;
    }
  }
  for (size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b].members = std::move(new_members[b]);
  }

  // Commit the winning bucket for real: replaying its acceptance sequence
  // reproduces its selection state and payments exactly.
  for (MultiQuery* q : queries) q->ResetSelection();
  winner_members_.clear();
  std::vector<int> winner_sel;
  double winner_cost = 0.0;
  for (int gid : buckets_[best_bucket].members) {
    const int idx = SlotIndexOf(slot, gid);
    if (idx < 0) continue;
    winner_cost += CommitWithProportionalPayments(queries, plan, slot, idx);
    winner_sel.push_back(idx);
  }
  double winner_value = 0.0;
  for (const MultiQuery* q : queries) winner_value += q->CurrentValue();

  // Refinement pass: the winner's single pass both misses late value (a
  // high threshold rejected a sensor whose marginal is large against the
  // final selection) and over-commits (the mean-quality factor of the
  // aggregate valuation is non-submodular, so accept-any-positive
  // dilutes). An add-only pass on top of the winner cannot fix the
  // second failure, so the
  // refinement runs CELF-style greedy rounds FROM SCRATCH over a
  // population-independent pool — the buckets' members plus the bench
  // of top singleton-net candidates — and keeps whichever selection,
  // winner replay or refined, realizes the higher utility. Realized
  // utility climbs from the single-pass ~0.5x of exact to >= 0.8x at
  // >= 20x speedup (the fig13 gate floors).
  std::vector<int> pool;
  for (const Bucket& bucket : buckets_) {
    for (int gid : bucket.members) {
      const int idx = SlotIndexOf(slot, gid);
      if (idx >= 0) pool.push_back(idx);
    }
  }
  for (const auto& [net, gid] : bench_) {
    const int idx = SlotIndexOf(slot, gid);
    if (idx >= 0) pool.push_back(idx);
  }
  {
    // Exploration sample (see kRefineSampleSize). Seeded from the slot
    // seed the engine stamps (pinned on replay), xored with a fixed
    // constant — the sample, and hence the whole refinement, is
    // bit-reproducible.
    const std::span<const int> scan = plan.ScanSensors();
    const size_t sample = std::min(kRefineSampleSize, scan.size());
    if (sample > 0) {
      Rng rng(ApproxSlotSeed(slot.approx, slot.time) ^ 0x51E7EBE7C4ULL);
      std::vector<int> scratch(scan.begin(), scan.end());
      for (size_t i = 0; i < sample; ++i) {
        const size_t j =
            i + static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(scratch.size() - i) - 1));
        std::swap(scratch[i], scratch[j]);
        pool.push_back(scratch[i]);
      }
    }
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  for (MultiQuery* q : queries) q->ResetSelection();
  // CELF over the pool: one batched fill, then only stale fronts
  // re-evaluate. `stamp` is the round a cached net was computed in; a
  // fresh front commits. The pool ascends by slot index, so the
  // frontier's (net desc, position asc) order reproduces the eager
  // loop's strict-> lowest-index tie-break, and the pass is
  // deterministic. The mean-quality factor's mild non-submodularity
  // carries the same caveat as the CELF engine: a stale cache can
  // under-rank a marginal that grew — Theorem 1's payment properties
  // are unaffected.
  std::vector<double> fill(pool.size());
  evaluator.EvaluateSensorNets(pool, fill.data());
  // Bench refresh: the fill just computed every pool sensor's
  // singleton net against the CURRENT queries — the ranking the cap
  // eviction should use (the net0-based merge above ranks arrivals by
  // whatever slot they streamed in). Sampled winners earn their seat
  // here; sensors whose relevance moved away with the queries age
  // out.
  bench_.clear();
  bench_.reserve(pool.size());
  for (size_t k = 0; k < pool.size(); ++k) {
    if (fill[k] <= 0.0) continue;
    bench_.emplace_back(
        fill[k], slot.sensors.sensor_id[static_cast<size_t>(pool[k])]);
  }
  std::sort(bench_.begin(), bench_.end(), BenchOrder);
  if (bench_.size() > kRefineBenchSize) bench_.resize(kRefineBenchSize);
  // Pool entries without a positive fill stay live but rank below every
  // positive one: the first to reach the front means no positive net is
  // left, and the stop rule ends the pass there.
  CelfFrontier frontier(fill);
  std::vector<int> stamp(pool.size(), 0);
  int round = 0;
  std::vector<int> refined_sel;
  double refined_cost = 0.0;
  while (frontier.TopNet() > 0.0) {
    const int k = frontier.Top();
    const int idx = pool[static_cast<size_t>(k)];
    if (stamp[static_cast<size_t>(k)] == round) {
      refined_cost += CommitWithProportionalPayments(queries, plan, slot, idx);
      refined_sel.push_back(idx);
      frontier.Remove(k);
      ++round;
      continue;
    }
    const double net = evaluator.EvaluateSensorNet(idx);
    stamp[static_cast<size_t>(k)] = round;
    if (net > 0.0) {
      frontier.Update(k, net);
    } else {
      frontier.Remove(k);  // marginals only shrink (modulo caveat)
    }
  }
  double refined_value = 0.0;
  for (const MultiQuery* q : queries) refined_value += q->CurrentValue();
  const bool use_refined =
      refined_value - refined_cost > winner_value - winner_cost;
  if (!use_refined) {
    // Re-commit the winner so the queries' selection/payment state
    // matches the returned result (SlotServer charges TotalPayment
    // from the queries, not from the result).
    for (MultiQuery* q : queries) q->ResetSelection();
    winner_cost = 0.0;
    for (int idx : winner_sel) {
      winner_cost += CommitWithProportionalPayments(queries, plan, slot, idx);
    }
  }
  const std::vector<int>& final_sel = use_refined ? refined_sel : winner_sel;
  result.total_cost = use_refined ? refined_cost : winner_cost;
  result.selected_sensors = final_sel;
  for (int idx : final_sel) {
    winner_members_.push_back(slot.sensors.sensor_id[static_cast<size_t>(idx)]);
  }
  evaluator.FlushValuationCalls();

  for (const MultiQuery* q : queries) result.total_value += q->CurrentValue();
  result.valuation_calls = TotalValuationCalls(queries) - calls_before;
  initialized_ = true;
  return result;
}

SelectionResult SieveStreamingSensorSelection(
    const std::vector<MultiQuery*>& queries, const SlotContext& slot,
    const std::vector<double>* cost_scale) {
  SieveStreamingScheduler scheduler(slot.approx);
  return scheduler.SelectFull(queries, slot, cost_scale);
}

}  // namespace psens
