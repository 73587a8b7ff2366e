#ifndef PERFBENCH_SERVE_BENCH_H_
#define PERFBENCH_SERVE_BENCH_H_

// Closed-loop serving benchmark: one acquisition round per slot, served
// through the public serving API (MakeServingEngine, SlotServer::ServeSlot)
// on a named workload, plus an outside-in traced copy of the serving step
// that times each layer's public call. Everything here measures from the
// outside; no engine code is instrumented. See perfbench/README.md for the
// metric definitions and why each workload exists.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/workload.h"
#include "trace/closed_loop.h"
#include "trace/slot_server.h"

namespace perfbench {

/// One named workload: a clustered churn population with mobility and
/// price jitter, and a fixed per-slot query mix.
struct WorkloadSpec {
  std::string name;
  int sensors = 0;
  double churn = 0.0;
  int points = 0;
  int aggregates = 0;
};

/// The three benchmark workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);
/// The same query mix and churn rate over a few thousand sensors, for the
/// benchmark's own tests.
WorkloadSpec SmokeScale(const WorkloadSpec& spec);

/// Slots every run serves at least, and the window (served slots 1..K)
/// over which the deterministic results are taken: the outcome digest,
/// utility_per_slot and every work counter. A fixed window keeps them
/// independent of how many slots the host manages in the time budget.
/// 100 slots also give slot_p90_ms ten samples beyond it.
constexpr int kWindowSlots = 100;

/// Seed of every workload's population (layout and sensor profiles). A
/// workload is one population; run seeds vary its traffic. A per-seed
/// layout would move the per-slot work by +-10% between seeds (cluster
/// placement decides how many sensors the queries land on), hiding a
/// regression of that size.
constexpr uint64_t kPopulationSeed = 1;

/// The scenario every workload shares: MakeChurnScenario's clustered
/// population with mobility, linear energy and random privacy (so readings
/// feedback moves announced prices), and a lifetime longer than any run.
/// `seed` drives the churn, mobility, price and query streams.
psens::ChurnScenarioSetup MakeScenario(const WorkloadSpec& spec, uint64_t seed);
psens::ChurnQueryConfig QueriesFor(const WorkloadSpec& spec);
/// Default ServingConfig (lazy, threads = 1, shards = 1, pipeline = 0,
/// slo_ms = 0, no trace recording) over the scenario's field.
psens::ServingConfig ServingFor(const psens::ChurnScenarioSetup& setup);

/// How long a run serves: until `seconds` of wall time have passed and at
/// least `min_slots` slots are served. seconds = 0 serves exactly
/// `min_slots`.
struct RunLength {
  double seconds = 10.0;
  int min_slots = kWindowSlots;
};

/// Slot-level outcome checks shared by both runs: the payments charged
/// equal the selection's total cost (Algorithm 1 splits each sensor's full
/// cost), and the slot's utility is non-negative (Theorem 1).
bool OutcomeOk(const psens::SlotOutcome& outcome);

/// FNV-1a over the SameOutcome fields of the first `window` outcomes.
uint64_t DigestOutcomes(const std::vector<psens::SlotOutcome>& outcomes,
                        size_t window);

/// Host-speed probe. On a shared host, neighbours slow the serving loop by
/// up to ~35% for seconds to minutes, mostly by contending for the shared
/// last-level cache and memory bandwidth; a fixed FP loop barely moves
/// then. The probe re-reads one fixed buffer, so its time tracks that
/// contention. It runs outside every timed region.
class HostProbe {
 public:
  HostProbe();
  /// CPU time (ms) of one sequential pass over the buffer.
  double Ms();

 private:
  std::vector<uint64_t> buffer_;
  volatile uint64_t sink_ = 0;
};

/// The probe's time on the reference host (README, "Host adjustment"). A
/// time metric is the measured CPU time × kReferenceProbeMs ÷ the probe
/// time around it: the time the step would take on the reference host.
constexpr double kReferenceProbeMs = 2.0;
/// The untraced loop probes the host before every kProbeEverySlots-th slot.
constexpr int kProbeEverySlots = 10;

/// `samples` adjusted to the reference host. Probe j was taken just before
/// sample j × `every`; sample i is scaled by kReferenceProbeMs ÷ the median
/// of the probes within two probe intervals of it, so one disturbed probe
/// does not move it.
std::vector<double> HostAdjusted(const std::vector<double>& samples,
                                 const std::vector<double>& probes,
                                 int every);

/// Cap on setup repetitions per run.
constexpr int kMaxSetups = 40;

/// The untraced run: setup (engine construction plus the slot-0 cold
/// build), repeated until `setup_seconds` of setup time are in (at least
/// once, at most kMaxSetups times), then the closed loop through
/// SlotServer::ServeSlot with the last engine. Inputs are generated
/// outside the timed region. A host probe precedes every setup and every
/// kProbeEverySlots-th slot. Setup and slot times are the process's CPU
/// time, which leaves out the gaps in which the host runs someone else;
/// slot wall time is kept for the printed wall figures and trace.overhead.
struct UntracedRun {
  std::vector<double> setup_s;           // CPU time of each repeat
  std::vector<double> setup_probe_ms;    // one probe per repeat
  std::vector<psens::SlotOutcome> outcomes;  // served slots 1..N
  std::vector<double> slot_ms;           // wall time around each ServeSlot
  std::vector<double> slot_cpu_ms;       // CPU time around each ServeSlot
  std::vector<double> slot_probe_ms;     // one per kProbeEverySlots slots
  int failed = 0;                        // slots failing OutcomeOk
};
UntracedRun RunUntraced(const psens::ChurnScenarioSetup& setup,
                        const WorkloadSpec& spec, const RunLength& length,
                        double setup_seconds);

/// Public calls the traced run wraps, in ServeSlot's order. kSlot is the
/// parent of all others.
enum class SpanName : uint8_t {
  kSlot,
  kApplyDelta,
  kBeginSlot,
  kBindAggregate,
  kBindPoint,
  kSelect,
  kPayments,
  kReadings,
};

struct Span {
  SpanName name = SpanName::kSlot;
  int slot = 0;
  int parent = -1;  // index into the span list; -1 for slot spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Work counters of one traced slot, read at the layer boundaries.
struct SlotCounters {
  int64_t members = 0;           // slot context size after BeginSlot
  int64_t delta_ops = 0;         // arrivals + departures + moves + prices
  bool backend_switched = false; // IndexBackendName() changed this slot
  int64_t aggregate_candidates = 0;  // sum of CandidateSensors() sizes
  int64_t point_candidates = 0;
  int64_t calls_aggregate = 0;   // per-query ValuationCalls(), by type
  int64_t calls_point = 0;
  int64_t valuation_calls = 0;   // SelectionResult::valuation_calls
  int64_t selected = 0;
};

/// The traced run: a fresh engine over the same inputs, serving exactly
/// `reference.size()` slots through an outside-in copy of ServeSlot with a
/// span around every public call. Spans stay in memory. `failed` counts
/// slots failing OutcomeOk, a per-query TotalPayment() <= CurrentValue()
/// check, or SameOutcome against the untraced run's slot.
struct TracedRun {
  std::vector<psens::SlotOutcome> outcomes;
  std::vector<Span> spans;
  std::vector<SlotCounters> counters;
  int failed = 0;
  int mismatched = 0;  // slots differing from the untraced run
};
TracedRun RunTraced(const psens::ChurnScenarioSetup& setup,
                    const WorkloadSpec& spec,
                    const std::vector<psens::SlotOutcome>& reference);

/// Nearest-rank quantile (q in (0, 1]) of `samples`; 0 when empty.
double Quantile(std::vector<double> samples, double q);

/// slot_p90_ms cuts the served slots into consecutive windows of at least
/// kMinWindowSlots (so each window's p90 has ten samples beyond it), at
/// most kMaxWindows of them.
constexpr size_t kMinWindowSlots = 100;
constexpr size_t kMaxWindows = 10;
/// The median over those windows of each window's q-quantile. A burst of
/// host interference moves it only when the burst covers half of the
/// windows; the run's plain p90 takes in any burst over a tenth of the
/// slots. Fewer than 2 × kMinWindowSlots samples form one window.
double WindowedQuantile(const std::vector<double>& samples, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// End-to-end metrics of the untraced run: slots_per_s, slot_p50_ms,
/// slot_p90_ms (WindowedQuantile), utility_per_slot, setup_s (the median
/// repeat), peak_rss_mb. The times are CPU times, host-adjusted
/// (HostAdjusted).
std::vector<Metric> EndToEndMetrics(const UntracedRun& run,
                                    double peak_rss_mb);
/// Per-layer metrics, with self times derived from the traced run's spans
/// and counters taken over the deterministic window.
std::vector<Metric> LayerMetrics(const TracedRun& traced,
                                 const UntracedRun& untraced);

/// A pinned digest check: when `pinned` is non-empty and differs from the
/// run's digest (as 16 hex digits), every attempted slot fails.
int FailedAfterDigestCheck(const std::string& pinned, uint64_t digest,
                           int failed, int attempted);
std::string DigestHex(uint64_t digest);

/// Host context attached to every result and never gated.
struct HostContext {
  double probe_ms = 0.0;         // median host probe of the serving loop
  double cal_ms = 0.0;           // bench::CalibrationMs fixed FP loop
  int nproc = 0;                 // CPUs this process may run on
  double effective_cores = 0.0;  // fixed parallel loop, nproc threads vs 1
};
HostContext MeasureHost();

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Writes `header` (one JSON object) and then the traced run's spans, one
/// JSON object per line.
bool WriteSpans(const std::string& path, const std::string& header,
                const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_BENCH_H_
