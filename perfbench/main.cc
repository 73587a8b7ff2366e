// Closed-loop serving benchmark: one run serves one workload.
//
//   perfbench_serve --workload NAME --seed N --seconds S --trace 0|1
//                   [--pinned-digest HEX] [--spans-out PATH]
//
// --trace 0 reports the end-to-end metrics of the untraced run (setup
// repeated for about four seconds, then the closed loop through
// SlotServer::ServeSlot). Its times are process CPU time, adjusted to the
// reference host by the interleaved host probe (HostAdjusted).
// --trace 1 serves the same untraced loop for half the time, then replays
// its inputs through the outside-in traced copy of the serving step and
// reports the per-layer metrics. Both check every slot's outcome;
// --pinned-digest fails every slot when the outcome digest over the first
// kWindowSlots slots differs.
// The last line of stdout is the JSON result; exit code 2 means bad usage
// and no result.

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/serve_bench.h"

namespace {

/// Setup CPU time an untraced run spends on repeated setups; setup_s is
/// their host-adjusted median.
constexpr double kSetupSeconds = 4.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string pinned_digest;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0' || errno != 0 || value[0] == '-') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds >= 0.0) || args->seconds > 600.0) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] - '0';
    } else if (flag == "--pinned-digest") {
      args->pinned_digest = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty();
}

void PrintMetrics(const std::vector<perfbench::Metric>& metrics) {
  for (const perfbench::Metric& m : metrics) {
    std::printf("  %-30s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_serve --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--pinned-digest HEX] "
                 "[--spans-out PATH]\n");
    return 2;
  }
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  RunLength length;
  // A traced run serves the untraced loop for half the time, then the
  // traced copy over the same slots, so both modes take about --seconds.
  length.seconds = args.trace == 1 ? args.seconds / 2.0 : args.seconds;

  const psens::ChurnScenarioSetup setup = MakeScenario(spec, args.seed);
  const UntracedRun untraced =
      RunUntraced(setup, spec, length, args.trace == 1 ? 0.0 : kSetupSeconds);
  const uint64_t digest = DigestOutcomes(untraced.outcomes, kWindowSlots);

  int attempted = static_cast<int>(untraced.outcomes.size());
  int failed = untraced.failed;
  std::vector<Metric> metrics;
  TracedRun traced;
  if (args.trace == 1) {
    traced = RunTraced(setup, spec, untraced.outcomes);
    attempted += static_cast<int>(traced.outcomes.size());
    failed += traced.failed;
    metrics = LayerMetrics(traced, untraced);
  } else {
    metrics = EndToEndMetrics(untraced, PeakRssMb());
  }
  failed = FailedAfterDigestCheck(args.pinned_digest, digest, failed,
                                  attempted);

  HostContext host = MeasureHost();
  host.probe_ms = Quantile(untraced.slot_probe_ms, 0.5);
  char host_json[256];
  std::snprintf(host_json, sizeof(host_json),
                "{\"probe_ms\": %.4f, \"reference_probe_ms\": %.4f, "
                "\"cal_ms\": %.4f, \"nproc\": %d, \"effective_cores\": %.3f}",
                host.probe_ms, kReferenceProbeMs, host.cal_ms, host.nproc,
                host.effective_cores);

  std::printf("perfbench serve: workload=%s seed=%" PRIu64
              " trace=%d sensors=%d slots=%zu window=%d\n",
              spec.name.c_str(), args.seed,
              args.trace, spec.sensors, untraced.outcomes.size(),
              kWindowSlots);
  std::printf("host: %s\n", host_json);
  std::printf("digest: %s (%s)\n", DigestHex(digest).c_str(),
              args.pinned_digest.empty()
                  ? "unpinned"
                  : (args.pinned_digest == DigestHex(digest) ? "matches pin"
                                                             : "MISMATCH"));
  std::printf("checks: attempted=%d failed=%d failed_slot_share=%.6f",
              attempted, failed,
              attempted > 0 ? static_cast<double>(failed) / attempted : 1.0);
  if (args.trace == 1) {
    std::printf(" traced_mismatches=%d", traced.mismatched);
  }
  std::printf("\nsamples: slots=%zu setups=%zu [", untraced.slot_ms.size(),
              untraced.setup_s.size());
  for (double s : untraced.setup_s) std::printf(" %.3f", s);
  std::printf(" ] s\n");
  // The unadjusted wall times, for reading the run against its host.
  std::printf("wall: slot_p50 %.3f ms, slot_p90 %.3f ms (unadjusted)\n",
              Quantile(untraced.slot_ms, 0.5),
              Quantile(untraced.slot_ms, 0.9));
  PrintMetrics(metrics);

  if (args.trace == 1 && !args.spans_out.empty()) {
    char header[512];
    std::snprintf(header, sizeof(header),
                  "{\"workload\": \"%s\", \"seed\": %" PRIu64
                  ", \"slots\": %zu, \"host\": %s}",
                  spec.name.c_str(), args.seed, traced.outcomes.size(),
                  host_json);
    if (!WriteSpans(args.spans_out, header, traced.spans)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.spans_out.c_str());
      return 1;
    }
  }

  bool finite = true;
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    finite = finite && std::isfinite(metrics[i].value);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  if (!finite) {
    std::fprintf(stderr, "non-finite metric value\n");
    return 1;
  }
  std::printf("%s\n", json.c_str());
  return 0;
}
