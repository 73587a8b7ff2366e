#ifndef PSENS_TRACE_MONITOR_H_
#define PSENS_TRACE_MONITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/greedy.h"

namespace psens {

/// Passive performance probes attachable to a serving loop — live or
/// replayed (trace/slot_server.h invokes the hooks in both). Monitors
/// observe; they never feed back into scheduling, and attaching any set
/// of them changes no selection bit (tests/monitor_test.cc asserts the
/// monitored and unmonitored replays of one trace schedule identically).
///
/// Lifecycle (FlexiCAS-style): a monitor starts idle; Start() arms it,
/// Pause() suspends event delivery without losing state, Resume() re-arms,
/// Stop() ends the observation window, Reset() clears accumulated data
/// (legal in any state, keeps the current state). MonitorSet only
/// forwards events to monitors in the running state.
class MonitorBase {
 public:
  enum class State { kIdle, kRunning, kPaused, kStopped };

  virtual ~MonitorBase() = default;

  virtual const char* Name() const = 0;

  void Start() { state_ = State::kRunning; }
  void Pause() {
    if (state_ == State::kRunning) state_ = State::kPaused;
  }
  void Resume() {
    if (state_ == State::kPaused) state_ = State::kRunning;
  }
  void Stop() { state_ = State::kStopped; }
  void Reset() { ClearData(); }

  State state() const { return state_; }
  bool running() const { return state_ == State::kRunning; }

  // Event hooks, called only while running.
  /// A slot transition (ApplyDelta + BeginSlot) finished: index/context
  /// repair latency.
  virtual void OnTurnover(int time, double ms) { (void)time; (void)ms; }
  /// A slot's selection finished.
  virtual void OnSelection(int time, const SelectionResult& result,
                           double ms) {
    (void)time; (void)result; (void)ms;
  }
  /// A slot fully served (turnover + binding + selection + commit).
  virtual void OnSlotEnd(int time, double total_ms) { (void)time; (void)total_ms; }

  /// Appends this monitor's accumulated data as one JSON object (the
  /// shape bench JSON embeds and scripts/check_bench_regression.py
  /// artifacts carry).
  virtual void AppendJson(std::string* out) const = 0;

 protected:
  /// Drops accumulated observations (Reset).
  virtual void ClearData() = 0;

 private:
  State state_ = State::kIdle;
};

/// Per-slot serve-latency histogram over power-of-two buckets: bucket i
/// spans [2^i, 2^(i+1)) microseconds, with underflows clamped into
/// bucket 0 and overflows into the last bucket. Mergeable across runs.
class LatencyHistogramMonitor : public MonitorBase {
 public:
  static constexpr int kNumBuckets = 32;

  const char* Name() const override { return "latency_histogram"; }

  void OnSlotEnd(int time, double total_ms) override;

  /// Bucket for a latency sample: floor(log2(us)) clamped to
  /// [0, kNumBuckets - 1]; samples below 1 us land in bucket 0.
  static int BucketIndex(double ms);
  /// Inclusive lower edge of bucket `i`, in milliseconds.
  static double BucketLowMs(int i);

  /// Adds another histogram's counts into this one.
  void Merge(const LatencyHistogramMonitor& other);

  int64_t count() const { return count_; }
  double total_ms() const { return total_ms_; }
  double min_ms() const { return count_ > 0 ? min_ms_ : 0.0; }
  double max_ms() const { return max_ms_; }
  int64_t bucket_count(int i) const { return buckets_[i]; }

  void AppendJson(std::string* out) const override;

 protected:
  void ClearData() override;

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
/// and fig13's valuation_calls play in the regression gate).
class ValuationCounterMonitor : public MonitorBase {
 public:
  const char* Name() const override { return "valuation_counters"; }

  void OnSelection(int time, const SelectionResult& result,
                   double ms) override;
  void OnSlotEnd(int time, double total_ms) override;

  int64_t total_calls() const { return total_calls_; }
  int64_t max_slot_calls() const { return max_slot_calls_; }
  int64_t selections() const { return selections_; }
  int64_t selected_sensors() const { return selected_sensors_; }
  int64_t slots() const { return slots_; }

  void AppendJson(std::string* out) const override;

 protected:
  void ClearData() override;

 private:
  int64_t total_calls_ = 0;
  int64_t max_slot_calls_ = 0;
  int64_t selections_ = 0;
  int64_t selected_sensors_ = 0;
  int64_t slots_ = 0;
};

/// Index/context repair (slot turnover) timing: total, min, max, mean.
class IndexRepairMonitor : public MonitorBase {
 public:
  const char* Name() const override { return "index_repair"; }

  void OnTurnover(int time, double ms) override;

  int64_t count() const { return count_; }
  double total_ms() const { return total_ms_; }
  double min_ms() const { return count_ > 0 ? min_ms_ : 0.0; }
  double max_ms() const { return max_ms_; }
  double mean_ms() const {
    return count_ > 0 ? total_ms_ / static_cast<double>(count_) : 0.0;
  }

  void AppendJson(std::string* out) const override;

 protected:
  void ClearData() override;

 private:
  int64_t count_ = 0;
  double total_ms_ = 0.0;
  double min_ms_ = 0.0;
  double max_ms_ = 0.0;
};

/// The attachment point serving loops carry: a non-owning set of
/// monitors with guarded dispatch (events reach only running monitors).
/// An empty or null set is free — the serving substrate checks one
/// pointer per event.
class MonitorSet {
 public:
  void Attach(MonitorBase* monitor) { monitors_.push_back(monitor); }

  void StartAll() {
    for (MonitorBase* m : monitors_) m->Start();
  }
  void StopAll() {
    for (MonitorBase* m : monitors_) m->Stop();
  }
  void ResetAll() {
    for (MonitorBase* m : monitors_) m->Reset();
  }

  void NotifyTurnover(int time, double ms) {
    for (MonitorBase* m : monitors_) {
      if (m->running()) m->OnTurnover(time, ms);
    }
  }
  void NotifySelection(int time, const SelectionResult& result, double ms) {
    for (MonitorBase* m : monitors_) {
      if (m->running()) m->OnSelection(time, result, ms);
    }
  }
  void NotifySlotEnd(int time, double total_ms) {
    for (MonitorBase* m : monitors_) {
      if (m->running()) m->OnSlotEnd(time, total_ms);
    }
  }

  const std::vector<MonitorBase*>& monitors() const { return monitors_; }

  /// JSON object keyed by monitor name.
  void AppendJson(std::string* out) const;

 private:
  std::vector<MonitorBase*> monitors_;
};

}  // namespace psens

#endif  // PSENS_TRACE_MONITOR_H_
