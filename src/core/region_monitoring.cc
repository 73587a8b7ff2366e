#include "core/region_monitoring.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "gp/gaussian_process.h"

namespace psens {

double SharingWeight(int k) {
  if (k <= 1) return 1.0;
  if (k < 10) return (11.0 - static_cast<double>(k)) / 10.0;
  return 0.1;
}

RegionMonitoringManager::RegionMonitoringManager(
    std::shared_ptr<const Kernel> spatial_kernel, const Config& config)
    : spatial_kernel_(spatial_kernel),
      st_kernel_(spatial_kernel, config.temporal_length),
      config_(config) {}

void RegionMonitoringManager::AddQuery(const RegionMonitoringQuery& query) {
  queries_.push_back(query);
  RegionMonitoringQuery& q = queries_.back();
  q.samples.clear();
  q.qualities.clear();
  q.spent = 0.0;
  q.value = 0.0;
  q.requested = 0.0;
}

std::vector<STPoint> RegionMonitoringManager::RecentSamples(
    const RegionMonitoringQuery& query, int t) const {
  std::vector<STPoint> recent;
  for (const STPoint& s : query.samples) {
    if (t - s.time <= static_cast<double>(config_.temporal_window)) {
      recent.push_back(s);
    }
  }
  return recent;
}

double RegionMonitoringManager::SlotValue(const RegionMonitoringQuery& query, int t,
                                          const std::vector<STPoint>& conditioning,
                                          double mean_quality) const {
  std::vector<Point> grid = GridTargets(query.region, config_.target_step);
  if (grid.empty()) return 0.0;
  std::vector<STPoint> targets;
  targets.reserve(grid.size());
  for (const Point& p : grid) targets.push_back(STPoint{p, static_cast<double>(t)});
  const double prior =
      static_cast<double>(targets.size()) * st_kernel_.Variance();
  if (prior <= 0.0) return 0.0;
  const double reduction =
      VarianceReductionST(st_kernel_, config_.noise_variance, targets, conditioning);
  const double share = query.budget / static_cast<double>(query.DurationSlots());
  return share * (reduction / prior) * mean_quality;
}

std::vector<double> RegionMonitoringManager::CostScale(const SlotContext& slot) const {
  std::vector<double> scale(slot.sensors.size(), 1.0);
  if (!config_.cost_weighting) return scale;
  // k = number of active query regions containing each sensor: one rect
  // probe per query on an indexed slot, a Contains scan otherwise.
  std::vector<int> counts(slot.sensors.size(), 0);
  std::vector<int> in_region;
  for (const RegionMonitoringQuery& q : queries_) {
    if (!q.ActiveAt(slot.time)) continue;
    SlotRowsInRect(slot, q.region, &in_region);
    for (int si : in_region) ++counts[si];
  }
  for (size_t si = 0; si < counts.size(); ++si) {
    if (counts[si] > 0) scale[si] = SharingWeight(counts[si]);
  }
  return scale;
}

std::vector<int> RegionMonitoringManager::SelectSamplingPoints(
    const RegionMonitoringQuery& query, const SlotContext& slot,
    const std::vector<int>& in_region, const std::vector<double>& cost_scale,
    double budget) const {
  std::vector<int> chosen;
  if (in_region.empty() || budget <= 0.0) return chosen;
  const int tc = slot.time;
  const int t2 = query.t2;
  const std::vector<Point> targets = GridTargets(query.region, config_.target_step);
  if (targets.empty()) return chosen;

  // Kernel-support candidate pruning: a candidate farther from the target
  // region than the spatial kernel's support radius has (numerically) zero
  // covariance with every target, hence zero variance-reduction gain. The
  // radius is conservative — in-region candidates sit at distance 0 and
  // always survive, so with the in-region lists CreatePointQueries passes
  // this never prunes; it guards callers (tests, future sharing schemes)
  // that offer wider candidate sets — and the debug cross-check below
  // asserts that nothing with nonzero marginal gain is ever dropped.
  const double support =
      spatial_kernel_->SupportRadius(1e-12 * spatial_kernel_->Variance());
  std::vector<int> candidates;
  candidates.reserve(in_region.size());
#ifndef NDEBUG
  std::vector<int> dropped;
#endif
  for (int si : in_region) {
    const Point loc = slot.sensors.Row(si).location;
    if (Distance(loc, query.region.Clamp(loc)) <= support) {
      candidates.push_back(si);
    } else {
#ifndef NDEBUG
      dropped.push_back(si);
#endif
    }
  }

  // One spatial selector per future slot (Algorithm 4 lines 2, 5-9): the
  // sets S_t grow independently; only S_tc is returned.
  std::vector<IncrementalGpSelector> selectors;
  selectors.reserve(static_cast<size_t>(t2 - tc + 1));
  for (int t = tc; t <= t2; ++t) {
    selectors.emplace_back(spatial_kernel_, config_.noise_variance, targets);
  }
#ifndef NDEBUG
  // Cross-check against the fresh selector (empty conditioning set, where
  // gains are largest): IncrementalGpSelector::MarginalGain must agree
  // that every pruned candidate is worthless.
  for (int si : dropped) {
    assert(selectors[0].MarginalGain(slot.sensors.Row(si).location) <=
               1e-6 * spatial_kernel_->Variance() &&
           "kernel-support pruning dropped a sensor with nonzero marginal gain");
  }
#endif
  // Membership of each (sensor, t) pair.
  std::vector<std::vector<char>> member(selectors.size(),
                                        std::vector<char>(slot.sensors.size(), 0));

  const double denom = static_cast<double>(t2 - query.t1 + 1);
  double cost_so_far = 0.0;
  // Gain table (selector x candidate position) filled by batched sweeps:
  // each selector probes all its non-member candidates through one
  // MarginalGains call — consecutive probes of the *same* selector, so
  // its Cholesky rows and per-target whitened vectors stay cached, where
  // the reference (candidate-outer, selector-inner) loop interleaved
  // selectors per probe — then the argmax below replays the reference
  // comparison order on the precomputed values: the same gains compared
  // in the same order means the identical pick, tie-breaks included.
  // MarginalGain is
  // a pure function of the selector's conditioning set and only the
  // winning slot's selector grows per round, so after the first fill only
  // that selector's row is re-swept — every other row's cached gains are
  // bit-identical to a recomputation.
  std::vector<std::vector<double>> gains(selectors.size(),
                                         std::vector<double>(candidates.size()));
  std::vector<Point> batch_points;
  std::vector<double> batch_gains;
  std::vector<size_t> batch_pos;
  const auto refresh_row = [&](size_t ti) {
    batch_points.clear();
    batch_pos.clear();
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      const int si = candidates[ci];
      if (member[ti][si]) continue;
      batch_points.push_back(slot.sensors.Row(si).location);
      batch_pos.push_back(ci);
    }
    batch_gains.resize(batch_points.size());
    selectors[ti].MarginalGains(batch_points, batch_gains);
    for (size_t j = 0; j < batch_pos.size(); ++j) {
      gains[ti][batch_pos[j]] = batch_gains[j];
    }
  };
  for (size_t ti = 0; ti < selectors.size(); ++ti) refresh_row(ti);
  while (cost_so_far < budget) {
    int best_sensor = -1;
    int best_t = -1;
    double best_delta = 0.0;
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      const int si = candidates[ci];
      const double theta =
          (1.0 - slot.sensors.inaccuracy[si]) * slot.sensors.trust[si];
      for (size_t ti = 0; ti < selectors.size(); ++ti) {
        if (member[ti][si]) continue;
        const int t = tc + static_cast<int>(ti);
        // Time-preference factor: the paper's (t2 - t)/(t2 - t1) vanishes
        // at t = t2, which would starve the final slot; we use the
        // (t2 - t + 1)/(duration) variant that keeps the same monotone
        // preference for the present.
        const double time_factor = static_cast<double>(t2 - t + 1) / denom;
        const double delta = gains[ti][ci] * theta * time_factor;
        if (delta > best_delta) {
          best_delta = delta;
          best_sensor = si;
          best_t = static_cast<int>(ti);
        }
      }
    }
    if (best_sensor < 0 || best_delta <= 1e-12) break;
    selectors[static_cast<size_t>(best_t)].Add(
        slot.sensors.Row(best_sensor).location);
    member[static_cast<size_t>(best_t)][best_sensor] = 1;
    cost_so_far += slot.sensors.cost[best_sensor] * cost_scale[best_sensor];
    if (best_t == 0) chosen.push_back(best_sensor);
    // Re-sweep the one row whose conditioning set grew — unless the
    // budget is spent and no further round will read it.
    if (cost_so_far < budget) refresh_row(static_cast<size_t>(best_t));
  }
  return chosen;
}

std::vector<PointQuery> RegionMonitoringManager::CreatePointQueries(
    const SlotContext& slot) {
  std::vector<PointQuery> created;
  planned_.assign(queries_.size(), {});
  expected_cost_.assign(queries_.size(), 0.0);
  const std::vector<double> cost_scale = CostScale(slot);

  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    RegionMonitoringQuery& q = queries_[qi];
    if (!q.ActiveAt(slot.time)) continue;
    const double remaining = q.budget - q.spent;
    if (remaining <= 0.0) continue;
    std::vector<int> in_region;
    SlotRowsInRect(slot, q.region, &in_region);
    const std::vector<int> planned =
        SelectSamplingPoints(q, slot, in_region, cost_scale, remaining);
    planned_[qi] = planned;
    double expected = 0.0;
    for (int si : planned) expected += slot.sensors.cost[si];
    expected_cost_[qi] = expected;

    // Point query per planned sensor, valued at its marginal contribution
    // v_pq = v_q(S_t) - v_q(S_t \ {s}) (CreatePointQueries line 6).
    const std::vector<STPoint> recent = RecentSamples(q, slot.time);
    std::vector<STPoint> full = recent;
    for (int si : planned) {
      full.push_back(STPoint{slot.sensors.Row(si).location,
                             static_cast<double>(slot.time)});
    }
    const double full_value = SlotValue(q, slot.time, full, 1.0);
    for (int si : planned) {
      std::vector<STPoint> without = recent;
      for (int sj : planned) {
        if (sj == si) continue;
        without.push_back(STPoint{slot.sensors.Row(sj).location,
                                  static_cast<double>(slot.time)});
      }
      const double marginal = full_value - SlotValue(q, slot.time, without, 1.0);
      if (marginal <= 0.0) continue;
      PointQuery pq;
      pq.id = q.id;
      pq.location = slot.sensors.Row(si).location;
      pq.budget = marginal;
      pq.theta_min = config_.theta_min;
      pq.parent = static_cast<int>(qi);
      created.push_back(pq);
    }
  }
  return created;
}

RegionMonitoringManager::SlotOutcome RegionMonitoringManager::ApplyResults(
    const SlotContext& slot, const std::vector<PointQuery>& created,
    const std::vector<PointAssignment>& assignments,
    const std::vector<int>& other_selected) {
  SlotOutcome outcome;
  const int t = slot.time;

  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    RegionMonitoringQuery& q = queries_[qi];
    if (!q.ActiveAt(t)) continue;

    // Collect this query's satisfied point-query outcomes.
    std::vector<STPoint> new_samples;
    std::vector<double> new_qualities;
    double paid = 0.0;
    for (size_t i = 0; i < created.size() && i < assignments.size(); ++i) {
      if (created[i].parent != static_cast<int>(qi)) continue;
      const PointAssignment& a = assignments[i];
      if (!a.satisfied()) continue;  // unsatisfied planned sample: dropped
      new_samples.push_back(
          STPoint{slot.sensors.Row(a.sensor).location, static_cast<double>(t)});
      new_qualities.push_back(a.quality);
      paid += a.payment;
    }

    const std::vector<STPoint> recent = RecentSamples(q, t);
    const double base_value = SlotValue(q, t, recent, 1.0);

    // Opportunistic sharing (ApplyResults line 4): contribute up to
    // alpha (C_t - C-hat_t) toward sensors selected for other queries that
    // fall inside this region, gaining their samples.
    double allowance = 0.0;
    if (config_.share_extra_sensors) {
      allowance = config_.alpha * std::max(0.0, expected_cost_[qi] - paid);
    }
    if (allowance > 0.0) {
      for (int si : other_selected) {
        if (allowance <= 0.0) break;
        const SlotSensor s = slot.sensors.Row(si);
        if (!q.region.Contains(s.location)) continue;
        bool duplicate = false;
        for (const STPoint& ns : new_samples) {
          if (ns.location == s.location) duplicate = true;
        }
        if (duplicate) continue;
        // Marginal value of this extra sample given what we have so far.
        std::vector<STPoint> cond = recent;
        cond.insert(cond.end(), new_samples.begin(), new_samples.end());
        const double before = SlotValue(q, t, cond, 1.0);
        cond.push_back(STPoint{s.location, static_cast<double>(t)});
        const double gain = SlotValue(q, t, cond, 1.0) - before;
        if (gain <= 1e-9) continue;
        const double contribution = std::min({allowance, s.cost, gain});
        allowance -= contribution;
        paid += contribution;
        outcome.contribution += contribution;
        new_samples.push_back(STPoint{s.location, static_cast<double>(t)});
        new_qualities.push_back((1.0 - s.inaccuracy) * s.trust);
      }
    }

    // Requested value this slot: what the plan would have delivered with
    // perfect-quality readings (denominator of the quality metric).
    std::vector<STPoint> planned_cond = recent;
    for (int si : planned_[qi]) {
      planned_cond.push_back(
          STPoint{slot.sensors.Row(si).location, static_cast<double>(t)});
    }
    const double requested_gain =
        SlotValue(q, t, planned_cond, 1.0) - base_value;

    double value_gain = 0.0;
    if (!new_samples.empty()) {
      double quality_sum = 0.0;
      for (double quality : new_qualities) quality_sum += quality;
      const double mean_quality =
          quality_sum / static_cast<double>(new_qualities.size());
      std::vector<STPoint> achieved = recent;
      achieved.insert(achieved.end(), new_samples.begin(), new_samples.end());
      value_gain = (SlotValue(q, t, achieved, 1.0) - base_value) * mean_quality;
    }

    q.samples.insert(q.samples.end(), new_samples.begin(), new_samples.end());
    q.qualities.insert(q.qualities.end(), new_qualities.begin(), new_qualities.end());
    q.spent += paid;
    q.value += value_gain;
    q.requested += std::max(0.0, requested_gain);
    outcome.value_gain += value_gain;
  }
  return outcome;
}

void RegionMonitoringManager::RemoveExpired(int t) {
  std::vector<RegionMonitoringQuery> alive;
  alive.reserve(queries_.size());
  for (RegionMonitoringQuery& q : queries_) {
    if (q.t2 < t) {
      ++num_completed_;
      if (q.requested > 0.0) completed_quality_sum_ += q.value / q.requested;
      else if (q.value > 0.0) completed_quality_sum_ += 1.0;
    } else {
      alive.push_back(std::move(q));
    }
  }
  queries_ = std::move(alive);
}

double RegionMonitoringManager::MeanCompletedQuality() const {
  return num_completed_ > 0 ? completed_quality_sum_ / num_completed_ : 0.0;
}

}  // namespace psens
