#include "trace/monitor.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace psens {
namespace {

void AppendF(std::string* out, const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (n > 0) out->append(buffer, std::min<size_t>(static_cast<size_t>(n), sizeof(buffer) - 1));
}

}  // namespace

// ---------------------------------------------------------------------------
// LatencyHistogramMonitor
// ---------------------------------------------------------------------------

int LatencyHistogramMonitor::BucketIndex(double ms) {
  const double us = ms * 1000.0;
  if (!(us >= 1.0)) return 0;  // sub-microsecond and NaN clamp low
  const int i = static_cast<int>(std::floor(std::log2(us)));
  return std::min(i, kNumBuckets - 1);
}

double LatencyHistogramMonitor::BucketLowMs(int i) {
  return i == 0 ? 0.0 : std::ldexp(1.0, i) / 1000.0;
}

void LatencyHistogramMonitor::OnSlot(const SlotOutcome& out) {
  const double ms = out.total_ms;
  ++buckets_[BucketIndex(ms)];
  if (count_ == 0 || ms < min_ms_) min_ms_ = ms;
  if (ms > max_ms_) max_ms_ = ms;
  ++count_;
  total_ms_ += ms;
}

void LatencyHistogramMonitor::AppendJson(std::string* out) const {
  AppendF(out,
          "{\"count\": %" PRId64 ", \"total_ms\": %.4f, \"min_ms\": %.4f, "
          "\"max_ms\": %.4f, \"buckets\": [",
          count_, total_ms_, min_ms(), max_ms_);
  // Sparse emission: [bucket_low_ms, count] pairs for occupied buckets
  // only — 32 mostly-zero entries would bloat every bench artifact.
  bool first = true;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    AppendF(out, "%s[%.4f, %" PRId64 "]", first ? "" : ", ", BucketLowMs(i),
            buckets_[i]);
    first = false;
  }
  out->append("]}");
}

// ---------------------------------------------------------------------------
// ValuationCounterMonitor
// ---------------------------------------------------------------------------

void ValuationCounterMonitor::OnSlot(const SlotOutcome& out) {
  const SelectionResult& result = out.selection;
  total_calls_ += result.valuation_calls;
  max_slot_calls_ = std::max(max_slot_calls_, result.valuation_calls);
  ++selections_;
  selected_sensors_ += static_cast<int64_t>(result.selected_sensors.size());
  ++slots_;
}

void ValuationCounterMonitor::AppendJson(std::string* out) const {
  AppendF(out,
          "{\"total_calls\": %" PRId64 ", \"max_slot_calls\": %" PRId64
          ", \"selections\": %" PRId64 ", \"selected_sensors\": %" PRId64
          ", \"slots\": %" PRId64 "}",
          total_calls_, max_slot_calls_, selections_, selected_sensors_,
          slots_);
}

// ---------------------------------------------------------------------------
// IndexRepairMonitor
// ---------------------------------------------------------------------------

void IndexRepairMonitor::OnSlot(const SlotOutcome& out) {
  const double ms = out.turnover_ms;
  if (count_ == 0 || ms < min_ms_) min_ms_ = ms;
  if (ms > max_ms_) max_ms_ = ms;
  ++count_;
  total_ms_ += ms;
}

void IndexRepairMonitor::AppendJson(std::string* out) const {
  AppendF(out,
          "{\"count\": %" PRId64 ", \"total_ms\": %.4f, \"min_ms\": %.4f, "
          "\"max_ms\": %.4f, \"mean_ms\": %.4f}",
          count_, total_ms_, min_ms(), max_ms_, mean_ms());
}

// ---------------------------------------------------------------------------
// MonitorSet
// ---------------------------------------------------------------------------

void MonitorSet::AppendJson(std::string* out) const {
  out->append("{");
  for (size_t i = 0; i < monitors_.size(); ++i) {
    if (i > 0) out->append(", ");
    out->append("\"");
    out->append(monitors_[i]->Name());
    out->append("\": ");
    monitors_[i]->AppendJson(out);
  }
  out->append("}");
}

}  // namespace psens
