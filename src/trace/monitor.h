#ifndef PSENS_TRACE_MONITOR_H_
#define PSENS_TRACE_MONITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace/slot_server.h"

namespace psens {

/// Passive performance probes attachable to a serving loop — live or
/// replayed (SlotServer::ServeSlot calls them in both). Monitors
/// observe; they never feed back into scheduling, and attaching any set
/// of them changes no selection bit (tests/monitor_test.cc asserts the
/// monitored and unmonitored replays of one trace schedule identically).
///
/// One hook: OnSlot sees each served slot's SlotOutcome once, after the
/// slot's total time is measured, and folds what it needs from it.
class MonitorBase {
 public:
  virtual ~MonitorBase() = default;

  virtual const char* Name() const = 0;

  /// One served slot: its selection and its stage timings.
  virtual void OnSlot(const SlotOutcome& out) = 0;

  /// Appends this monitor's accumulated data as one JSON object (the
  /// shape bench JSON embeds and scripts/check_bench_regression.py
  /// artifacts carry).
  virtual void AppendJson(std::string* out) const = 0;
};

/// Per-slot serve-latency histogram (SlotOutcome::total_ms) over
/// power-of-two buckets: bucket i spans [2^i, 2^(i+1)) microseconds, with
/// underflows clamped into bucket 0 and overflows into the last bucket.
class LatencyHistogramMonitor : public MonitorBase {
 public:
  static constexpr int kNumBuckets = 32;

  const char* Name() const override { return "latency_histogram"; }

  void OnSlot(const SlotOutcome& out) override;

  /// Bucket for a latency sample: floor(log2(us)) clamped to
  /// [0, kNumBuckets - 1]; samples below 1 us land in bucket 0.
  static int BucketIndex(double ms);
  /// Inclusive lower edge of bucket `i`, in milliseconds.
  static double BucketLowMs(int i);

  int64_t count() const { return count_; }
  double total_ms() const { return total_ms_; }
  double min_ms() const { return count_ > 0 ? min_ms_ : 0.0; }
  double max_ms() const { return max_ms_; }
  int64_t bucket_count(int i) const { return buckets_[i]; }

  void AppendJson(std::string* out) const override;

 private:
  int64_t buckets_[kNumBuckets] = {};
  int64_t count_ = 0;
  double total_ms_ = 0.0;
  double min_ms_ = 0.0;
  double max_ms_ = 0.0;
};

/// Per-stage valuation-call counters: total calls, per-slot peak, plus
/// slot/selection/commit tallies — the work-metric view of a run that
/// stays bit-identical across hosts (the same role fig11's pruned_pairs
/// and fig13's valuation_calls play in the regression gate). Every
/// served slot counts one selection, query-free slots included.
class ValuationCounterMonitor : public MonitorBase {
 public:
  const char* Name() const override { return "valuation_counters"; }

  void OnSlot(const SlotOutcome& out) override;

  int64_t total_calls() const { return total_calls_; }
  int64_t max_slot_calls() const { return max_slot_calls_; }
  int64_t selections() const { return selections_; }
  int64_t selected_sensors() const { return selected_sensors_; }
  int64_t slots() const { return slots_; }

  void AppendJson(std::string* out) const override;

 private:
  int64_t total_calls_ = 0;
  int64_t max_slot_calls_ = 0;
  int64_t selections_ = 0;
  int64_t selected_sensors_ = 0;
  int64_t slots_ = 0;
};

/// Index/context repair (slot turnover, SlotOutcome::turnover_ms)
/// timing: total, min, max, mean.
class IndexRepairMonitor : public MonitorBase {
 public:
  const char* Name() const override { return "index_repair"; }

  void OnSlot(const SlotOutcome& out) override;

  int64_t count() const { return count_; }
  double total_ms() const { return total_ms_; }
  double min_ms() const { return count_ > 0 ? min_ms_ : 0.0; }
  double max_ms() const { return max_ms_; }
  double mean_ms() const {
    return count_ > 0 ? total_ms_ / static_cast<double>(count_) : 0.0;
  }

  void AppendJson(std::string* out) const override;

 private:
  int64_t count_ = 0;
  double total_ms_ = 0.0;
  double min_ms_ = 0.0;
  double max_ms_ = 0.0;
};

/// The attachment point serving loops carry: a non-owning set of
/// monitors. An empty or null set is free — the serving substrate checks
/// one pointer per slot.
class MonitorSet {
 public:
  void Attach(MonitorBase* monitor) { monitors_.push_back(monitor); }

  void NotifySlot(const SlotOutcome& out) {
    for (MonitorBase* m : monitors_) m->OnSlot(out);
  }

  /// JSON object keyed by monitor name.
  void AppendJson(std::string* out) const;

 private:
  std::vector<MonitorBase*> monitors_;
};

}  // namespace psens

#endif  // PSENS_TRACE_MONITOR_H_
