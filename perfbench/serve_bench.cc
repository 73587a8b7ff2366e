#include "perfbench/serve_bench.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>

#include "bench/bench_util.h"
#include "core/aggregate_query.h"
#include "core/multi_query.h"
#include "engine/serving_engine.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using psens::SlotOutcome;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// CPU time of this process, in ms. It advances only while one of the
/// process's threads runs: time the scheduler gives to other processes,
/// or the hypervisor to other guests (steal), is not counted.
double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Relative tolerance of the floating-point outcome checks.
constexpr double kTolerance = 1e-9;

bool WithinTolerance(double a, double b) {
  return std::fabs(a - b) <= kTolerance * std::max({1.0, std::fabs(a),
                                                    std::fabs(b)});
}

/// Span list with a shared time origin. Spans are kept in memory and only
/// written after the run.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::vector<Span>* spans)
      : spans_(spans), origin_(Clock::now()) {}

  int Open(SpanName name, int slot, int parent) {
    spans_->push_back(Span{name, slot, parent, Now(), 0});
    return static_cast<int>(spans_->size()) - 1;
  }
  void Close(int span) { (*spans_)[static_cast<size_t>(span)].end_ns = Now(); }

  template <typename Fn>
  void Record(SpanName name, int slot, int parent, const Fn& fn) {
    const int span = Open(name, slot, parent);
    fn();
    Close(span);
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  std::vector<Span>* spans_;
  Clock::time_point origin_;
};

double SpanMs(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
}

/// SlotServer::ServeSlot's statements in its order, each public call
/// wrapped in a span under the slot span. Trace recording is off in every
/// workload, so the trace-writer staging is the one statement left out.
SlotOutcome TracedServeSlot(psens::ServingEngine* engine, int time,
                            const psens::SensorDelta& delta,
                            const psens::SlotQueryBatch& queries,
                            SpanRecorder* rec, std::string* backend,
                            SlotCounters* counters, bool* queries_ok) {
  SlotOutcome out;
  out.time = time;
  const int slot_span = rec->Open(SpanName::kSlot, time, -1);
  {
    const psens::SlotContext* slot = nullptr;
    const auto turnover_start = Clock::now();
    rec->Record(SpanName::kApplyDelta, time, slot_span,
                [&] { engine->ApplyDelta(delta); });
    rec->Record(SpanName::kBeginSlot, time, slot_span,
                [&] { slot = &engine->BeginSlot(time); });
    out.turnover_ms = MsSince(turnover_start);
    engine->NoteTurnoverMs(out.turnover_ms);

    std::vector<std::unique_ptr<psens::AggregateQuery>> aggregates;
    std::vector<std::unique_ptr<psens::PointMultiQuery>> points;
    std::vector<psens::MultiQuery*> all;
    aggregates.reserve(queries.aggregates.size());
    points.reserve(queries.points.size());
    all.reserve(queries.aggregates.size() + queries.points.size());
    rec->Record(SpanName::kBindAggregate, time, slot_span, [&] {
      for (const psens::AggregateQuery::Params& params : queries.aggregates) {
        aggregates.push_back(
            std::make_unique<psens::AggregateQuery>(params, *slot));
        all.push_back(aggregates.back().get());
      }
    });
    rec->Record(SpanName::kBindPoint, time, slot_span, [&] {
      for (const psens::PointQuery& spec : queries.points) {
        points.push_back(std::make_unique<psens::PointMultiQuery>(spec, slot));
        all.push_back(points.back().get());
      }
    });
    rec->Record(SpanName::kSelect, time, slot_span, [&] {
      if (!all.empty()) out.selection = engine->Select(all, *slot, delta);
    });
    rec->Record(SpanName::kPayments, time, slot_span, [&] {
      for (const psens::MultiQuery* q : all) {
        out.total_payment += q->TotalPayment();
      }
    });
    rec->Record(SpanName::kReadings, time, slot_span, [&] {
      if (engine->config().record_readings) {
        engine->RecordSlotReadings(out.selection.selected_sensors, time);
      }
    });

    // Counter reads: cached state only (the candidate lists were built at
    // bind or by Select's pruning plan), so they cost microseconds.
    counters->members = static_cast<int64_t>(slot->sensors.size());
    counters->delta_ops = static_cast<int64_t>(
        delta.arrivals.size() + delta.departures.size() + delta.moves.size() +
        delta.price_changes.size());
    const char* name = engine->IndexBackendName();
    counters->backend_switched = *backend != name;
    *backend = name;
    for (const auto& q : aggregates) {
      if (const std::vector<int>* c = q->CandidateSensors()) {
        counters->aggregate_candidates += static_cast<int64_t>(c->size());
      }
      counters->calls_aggregate += q->ValuationCalls();
    }
    for (const auto& q : points) {
      if (const std::vector<int>* c = q->CandidateSensors()) {
        counters->point_candidates += static_cast<int64_t>(c->size());
      }
      counters->calls_point += q->ValuationCalls();
    }
    counters->valuation_calls = out.selection.valuation_calls;
    counters->selected =
        static_cast<int64_t>(out.selection.selected_sensors.size());
    // Theorem 1: no query pays more than the value it receives.
    for (const psens::MultiQuery* q : all) {
      if (q->TotalPayment() > q->CurrentValue() &&
          !WithinTolerance(q->TotalPayment(), q->CurrentValue())) {
        *queries_ok = false;
      }
    }
  }  // query teardown is part of the slot, as in ServeSlot
  rec->Close(slot_span);
  return out;
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kSlot: return "slot";
    case SpanName::kApplyDelta: return "engine.apply_delta";
    case SpanName::kBeginSlot: return "engine.begin_slot";
    case SpanName::kBindAggregate: return "bind.aggregate";
    case SpanName::kBindPoint: return "bind.point";
    case SpanName::kSelect: return "select";
    case SpanName::kPayments: return "slot.payments";
    case SpanName::kReadings: return "engine.readings";
  }
  return "unknown";
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t i = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(i, samples.size() - 1)];
}

double WindowedQuantile(const std::vector<double>& samples, double q) {
  const size_t windows = std::clamp<size_t>(
      samples.size() / kMinWindowSlots, 1, kMaxWindows);
  std::vector<double> per_window;
  per_window.reserve(windows);
  for (size_t w = 0; w < windows; ++w) {
    per_window.push_back(Quantile(
        std::vector<double>(samples.begin() + w * samples.size() / windows,
                            samples.begin() +
                                (w + 1) * samples.size() / windows),
        q));
  }
  return Quantile(std::move(per_window), 0.5);
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"mixed_100k", 100'000, 0.01, 128, 16},
      {"points_100k", 100'000, 0.01, 512, 0},
      {"churn_1m", 1'000'000, 0.02, 16, 0},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

WorkloadSpec SmokeScale(const WorkloadSpec& spec) {
  WorkloadSpec smoke = spec;
  smoke.sensors = 4000;
  return smoke;
}

psens::ChurnScenarioSetup MakeScenario(const WorkloadSpec& spec,
                                       uint64_t seed) {
  psens::SensorPopulationConfig profile;
  profile.linear_energy = true;
  profile.random_privacy = true;
  profile.lifetime = 10'000;  // readings; no run serves this many slots
  psens::ChurnScenarioSetup setup =
      psens::MakeChurnScenario(spec.sensors, spec.churn, kPopulationSeed,
                               /*with_mobility=*/true, profile);
  // The run seed drives the churn and query streams (forks 7 and 8 of
  // this generator); the population stays the workload's own.
  setup.rng_after_generation = psens::Rng(seed);
  return setup;
}

psens::ChurnQueryConfig QueriesFor(const WorkloadSpec& spec) {
  psens::ChurnQueryConfig q;
  q.queries_per_slot = spec.points;
  q.aggregates_per_slot = spec.aggregates;
  return q;
}

psens::ServingConfig ServingFor(const psens::ChurnScenarioSetup& setup) {
  return psens::ServingConfig().WithRegion(setup.field).WithDmax(setup.dmax);
}

bool OutcomeOk(const SlotOutcome& o) {
  const psens::SelectionResult& s = o.selection;
  return WithinTolerance(o.total_payment, s.total_cost) &&
         (s.Utility() >= 0.0 || WithinTolerance(s.total_value, s.total_cost));
}

uint64_t DigestOutcomes(const std::vector<SlotOutcome>& outcomes,
                        size_t window) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto bytes = [&hash](const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      hash ^= p[i];
      hash *= 0x100000001b3ULL;
    }
  };
  const auto int64 = [&bytes](int64_t v) { bytes(&v, sizeof(v)); };
  const auto real = [&bytes](double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    bytes(&bits, sizeof(bits));
  };
  const size_t n = std::min(window, outcomes.size());
  int64(static_cast<int64_t>(n));
  for (size_t i = 0; i < n; ++i) {
    const SlotOutcome& o = outcomes[i];
    int64(o.time);
    int64(static_cast<int64_t>(o.selection.selected_sensors.size()));
    for (int id : o.selection.selected_sensors) int64(id);
    real(o.selection.total_value);
    real(o.selection.total_cost);
    int64(o.selection.valuation_calls);
    real(o.total_payment);
  }
  return hash;
}

HostProbe::HostProbe() : buffer_((size_t{16} << 20) / sizeof(uint64_t)) {
  for (size_t i = 0; i < buffer_.size(); ++i) buffer_[i] = i;
}

double HostProbe::Ms() {
  const double start = CpuMs();
  uint64_t sum = 0;
  for (uint64_t v : buffer_) sum += v;
  const double ms = CpuMs() - start;
  sink_ = sum;  // volatile: keeps the pass
  return ms;
}

std::vector<double> HostAdjusted(const std::vector<double>& samples,
                                 const std::vector<double>& probes,
                                 int every) {
  std::vector<double> out;
  out.reserve(samples.size());
  if (probes.empty()) return out;
  for (size_t i = 0; i < samples.size(); ++i) {
    const size_t at = std::min(i / static_cast<size_t>(every),
                               probes.size() - 1);
    const size_t lo = at >= 2 ? at - 2 : 0;
    const size_t hi = std::min(at + 3, probes.size());
    const std::vector<double> near(probes.begin() + lo, probes.begin() + hi);
    out.push_back(samples[i] * kReferenceProbeMs / Quantile(near, 0.5));
  }
  return out;
}

UntracedRun RunUntraced(const psens::ChurnScenarioSetup& setup,
                        const WorkloadSpec& spec, const RunLength& length,
                        double setup_seconds) {
  UntracedRun run;
  HostProbe probe;
  const psens::ServingConfig config = ServingFor(setup);
  std::unique_ptr<psens::ServingEngine> engine;
  double setup_total = 0.0;
  do {
    engine.reset();  // one engine alive at a time
    run.setup_probe_ms.push_back(probe.Ms());
    const double start = CpuMs();
    engine = psens::MakeServingEngine(setup.scenario.sensors, config);
    psens::SlotServer(engine.get())
        .ServeSlot(0, psens::SensorDelta{}, psens::SlotQueryBatch{});
    run.setup_s.push_back((CpuMs() - start) / 1e3);
    setup_total += run.setup_s.back();
  } while (setup_total < setup_seconds &&
           static_cast<int>(run.setup_s.size()) < kMaxSetups);

  psens::SlotServer server(engine.get());
  psens::ChurnWorkload workload(&setup, QueriesFor(spec));
  const auto loop_start = Clock::now();
  for (int t = 1;; ++t) {
    const int served = t - 1;
    if (served >= length.min_slots &&
        MsSince(loop_start) >= length.seconds * 1e3) {
      break;
    }
    if (served % kProbeEverySlots == 0) {
      run.slot_probe_ms.push_back(probe.Ms());
    }
    const psens::SensorDelta delta = workload.NextDelta();
    const psens::SlotQueryBatch queries = workload.NextQueries(t);
    const auto start = Clock::now();
    const double cpu_start = CpuMs();
    SlotOutcome out = server.ServeSlot(t, delta, queries);
    run.slot_cpu_ms.push_back(CpuMs() - cpu_start);
    run.slot_ms.push_back(MsSince(start));
    if (!OutcomeOk(out)) ++run.failed;
    run.outcomes.push_back(std::move(out));
  }
  return run;
}

TracedRun RunTraced(const psens::ChurnScenarioSetup& setup,
                    const WorkloadSpec& spec,
                    const std::vector<SlotOutcome>& reference) {
  TracedRun run;
  std::unique_ptr<psens::ServingEngine> engine =
      psens::MakeServingEngine(setup.scenario.sensors, ServingFor(setup));
  psens::SlotServer(engine.get())
      .ServeSlot(0, psens::SensorDelta{}, psens::SlotQueryBatch{});
  psens::ChurnWorkload workload(&setup, QueriesFor(spec));

  constexpr size_t kSpansPerSlot = 8;
  run.spans.reserve(reference.size() * kSpansPerSlot);
  run.outcomes.reserve(reference.size());
  run.counters.reserve(reference.size());
  SpanRecorder rec(&run.spans);
  std::string backend = engine->IndexBackendName();
  for (size_t i = 0; i < reference.size(); ++i) {
    const int t = static_cast<int>(i) + 1;
    const psens::SensorDelta delta = workload.NextDelta();
    const psens::SlotQueryBatch queries = workload.NextQueries(t);
    SlotCounters counters;
    bool queries_ok = true;
    SlotOutcome out = TracedServeSlot(engine.get(), t, delta, queries, &rec,
                                      &backend, &counters, &queries_ok);
    const bool same = psens::SameOutcome(out, reference[i]);
    if (!same) ++run.mismatched;
    if (!same || !queries_ok || !OutcomeOk(out)) ++run.failed;
    run.outcomes.push_back(std::move(out));
    run.counters.push_back(counters);
  }
  return run;
}

std::vector<Metric> EndToEndMetrics(const UntracedRun& run,
                                    double peak_rss_mb) {
  const std::vector<double> slot_ms =
      HostAdjusted(run.slot_cpu_ms, run.slot_probe_ms, kProbeEverySlots);
  double total_ms = 0.0;
  for (double ms : slot_ms) total_ms += ms;
  const size_t window = std::min<size_t>(kWindowSlots, run.outcomes.size());
  double utility = 0.0;
  for (size_t i = 0; i < window; ++i) {
    utility += run.outcomes[i].selection.Utility();
  }
  return {
      {"slots_per_s",
       total_ms > 0.0 ? 1e3 * static_cast<double>(slot_ms.size()) / total_ms
                      : 0.0,
       "slots/s"},
      {"slot_p50_ms", Quantile(slot_ms, 0.5), "ms"},
      {"slot_p90_ms", WindowedQuantile(slot_ms, 0.9), "ms"},
      {"utility_per_slot",
       window > 0 ? utility / static_cast<double>(window) : 0.0, "utility"},
      {"setup_s",
       Quantile(HostAdjusted(run.setup_s, run.setup_probe_ms, 1), 0.5), "s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
}

std::vector<Metric> LayerMetrics(const TracedRun& traced,
                                 const UntracedRun& untraced) {
  // Per traced slot: the slot span and its children's durations by name.
  constexpr size_t kNames = static_cast<size_t>(SpanName::kReadings) + 1;
  struct SlotTimes {
    double slot_ms = 0.0;
    double child_ms[kNames] = {};
  };
  std::vector<SlotTimes> slots;
  std::vector<int> slot_of(traced.spans.size(), -1);
  for (size_t i = 0; i < traced.spans.size(); ++i) {
    const Span& s = traced.spans[i];
    if (s.parent < 0) {
      slot_of[i] = static_cast<int>(slots.size());
      slots.push_back(SlotTimes{SpanMs(s), {}});
    } else {
      const int k = slot_of[static_cast<size_t>(s.parent)];
      slots[static_cast<size_t>(k)].child_ms[static_cast<size_t>(s.name)] +=
          SpanMs(s);
    }
  }

  const auto p50_ms = [&slots](SpanName n) {
    std::vector<double> v;
    v.reserve(slots.size());
    for (const SlotTimes& st : slots) {
      v.push_back(st.child_ms[static_cast<size_t>(n)]);
    }
    return Quantile(std::move(v), 0.5);
  };
  double slot_total = 0.0;
  for (const SlotTimes& st : slots) slot_total += st.slot_ms;
  const auto share = [&](std::initializer_list<SpanName> names) {
    double sum = 0.0;
    for (const SlotTimes& st : slots) {
      for (SpanName n : names) sum += st.child_ms[static_cast<size_t>(n)];
    }
    return slot_total > 0.0 ? sum / slot_total : 0.0;
  };
  std::vector<double> unattributed;
  unattributed.reserve(slots.size());
  for (const SlotTimes& st : slots) {
    double children = 0.0;
    for (double c : st.child_ms) children += c;
    unattributed.push_back(st.slot_ms - children);
  }

  // Counters over the deterministic window.
  const size_t window = std::min<size_t>(kWindowSlots, traced.counters.size());
  const auto mean = [&](int64_t SlotCounters::*field) {
    double sum = 0.0;
    for (size_t i = 0; i < window; ++i) {
      sum += static_cast<double>(traced.counters[i].*field);
    }
    return window > 0 ? sum / static_cast<double>(window) : 0.0;
  };
  double switches = 0.0;
  for (size_t i = 0; i < window; ++i) {
    if (traced.counters[i].backend_switched) switches += 1.0;
  }
  const double selected = mean(&SlotCounters::selected);
  const double calls = mean(&SlotCounters::valuation_calls);

  double untraced_ms = 0.0;
  for (double x : untraced.slot_ms) untraced_ms += x;
  const double traced_rate =
      slot_total > 0.0 ? static_cast<double>(slots.size()) / slot_total : 0.0;
  const double untraced_rate =
      untraced_ms > 0.0
          ? static_cast<double>(untraced.slot_ms.size()) / untraced_ms
          : 0.0;

  return {
      {"engine.apply_delta_ms", p50_ms(SpanName::kApplyDelta), "ms"},
      {"engine.begin_slot_ms", p50_ms(SpanName::kBeginSlot), "ms"},
      {"engine.readings_ms", p50_ms(SpanName::kReadings), "ms"},
      {"engine.share",
       share({SpanName::kApplyDelta, SpanName::kBeginSlot,
              SpanName::kReadings}),
       "fraction"},
      {"engine.members", mean(&SlotCounters::members), "count/slot"},
      {"engine.delta_ops", mean(&SlotCounters::delta_ops), "count/slot"},
      {"engine.index_backend_switches", switches, "count"},
      {"bind.aggregate_ms", p50_ms(SpanName::kBindAggregate), "ms"},
      {"bind.point_ms", p50_ms(SpanName::kBindPoint), "ms"},
      {"bind.share", share({SpanName::kBindAggregate, SpanName::kBindPoint}),
       "fraction"},
      {"bind.aggregate_candidates", mean(&SlotCounters::aggregate_candidates),
       "count/slot"},
      {"bind.point_candidates", mean(&SlotCounters::point_candidates),
       "count/slot"},
      {"select.ms", p50_ms(SpanName::kSelect), "ms"},
      {"select.share", share({SpanName::kSelect}), "fraction"},
      {"select.valuation_calls", calls, "count/slot"},
      {"select.calls_aggregate", mean(&SlotCounters::calls_aggregate),
       "count/slot"},
      {"select.calls_point", mean(&SlotCounters::calls_point), "count/slot"},
      {"select.selected", selected, "count/slot"},
      {"select.calls_per_selected", selected > 0.0 ? calls / selected : 0.0,
       "calls/selected"},
      {"slot.payments_ms", p50_ms(SpanName::kPayments), "ms"},
      {"slot.unattributed_ms", Quantile(unattributed, 0.5), "ms"},
      {"trace.overhead",
       untraced_rate > 0.0 ? 1.0 - traced_rate / untraced_rate : 0.0,
       "fraction"},
  };
}

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  return buf;
}

int FailedAfterDigestCheck(const std::string& pinned, uint64_t digest,
                           int failed, int attempted) {
  if (pinned.empty() || pinned == DigestHex(digest)) return failed;
  return attempted;
}

HostContext MeasureHost() {
  HostContext host;
  host.cal_ms = psens::bench::CalibrationMs();
  cpu_set_t set;
  CPU_ZERO(&set);
  host.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                   ? CPU_COUNT(&set)
                   : static_cast<int>(std::thread::hardware_concurrency());
  host.nproc = std::max(1, host.nproc);

  // The same calibration loop on nproc threads at once, against cal_ms on
  // one thread; perfect scaling keeps each thread's time at cal_ms.
  std::vector<double> loaded(static_cast<size_t>(host.nproc), 0.0);
  std::vector<std::thread> threads;
  threads.reserve(loaded.size());
  for (double& ms : loaded) {
    threads.emplace_back([&ms] { ms = psens::bench::CalibrationMs(); });
  }
  for (std::thread& th : threads) th.join();
  double loaded_sum = 0.0;
  for (double ms : loaded) loaded_sum += ms;
  host.effective_cores =
      loaded_sum > 0.0 ? host.nproc * host.cal_ms * host.nproc / loaded_sum
                       : 0.0;
  return host;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool WriteSpans(const std::string& path, const std::string& header,
                const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"slot\": %d, \"parent\": %d, "
                 "\"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64 "}\n",
                 SpanNameString(s.name), s.slot, s.parent, s.start_ns,
                 s.end_ns);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
