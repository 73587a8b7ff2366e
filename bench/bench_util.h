#ifndef PSENS_BENCH_BENCH_UTIL_H_
#define PSENS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/point_scheduling.h"
#include "core/slot.h"
#include "sim/workload.h"

namespace psens::bench {

/// Bit-exact equality of two schedule outcomes (selections, assignments,
/// payments, totals). Any drift means an "equivalent" execution path
/// changed an answer — both the fig11 (indexed vs. brute force) and
/// fig12 (incremental vs. rebuild) gates rest on this one comparator.
inline bool SameSchedule(const PointScheduleResult& a,
                         const PointScheduleResult& b) {
  if (a.selected_sensors != b.selected_sensors) return false;
  if (a.total_value != b.total_value || a.total_cost != b.total_cost) {
    return false;
  }
  if (a.assignments.size() != b.assignments.size()) return false;
  for (size_t i = 0; i < a.assignments.size(); ++i) {
    const PointAssignment& x = a.assignments[i];
    const PointAssignment& y = b.assignments[i];
    if (x.sensor != y.sensor || x.value != y.value || x.quality != y.quality ||
        x.payment != y.payment) {
      return false;
    }
  }
  return true;
}

/// Shared command-line handling for the figure binaries:
///   --slots N        simulate N time slots (default 50, the paper's setting)
///   --seed S         base RNG seed
///   --quick          shorthand for a fast smoke run (--slots 10)
///   --threads N      worker threads for independent sweep points / slots
///                    (default 0 = hardware concurrency; results are
///                    bit-identical for any value). fig02-fig04, fig06
///                    and fig07 shard simulation slots (fig06's feedback
///                    population runs them in order anyway); fig05 and
///                    bench_alpha_sweep shard sweep points. fig08-fig10
///                    serve slots sequentially, because their monitoring
///                    managers carry state across slots.
///   --json PATH      also write machine-readable results to PATH (only
///                    binaries that support it: fig11, fig12, fig13,
///                    fig14 and fig16 do)
///   --max-sensors N  cap the population sweep (fig11/fig12)
///   --index-policy P spatial-index policy for the indexed runs: grid
///                    (default) or none; any other value prints the valid
///                    ones and exits with status 2
///   --epsilon E      quality knob of the approximate scheduler
///                    (fig13_approx_quality; default 0.1)
///   --huge           extend the full-mode population sweep with a
///                    10M-sensor point (nightly runs; ignored in --quick)
struct BenchArgs {
  int slots = 50;
  uint64_t seed = 123;
  bool quick = false;
  bool huge = false;
  bool ablation = false;
  int threads = 0;
  std::string json_path;
  int max_sensors = 0;
  SlotIndexPolicy index_policy = SlotIndexPolicy::kGrid;
  double epsilon = 0.1;

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0) {
        args.quick = true;
        args.slots = 10;
      } else if (std::strcmp(argv[i], "--huge") == 0) {
        args.huge = true;
      } else if (std::strcmp(argv[i], "--ablation") == 0) {
        args.ablation = true;
      } else if (std::strcmp(argv[i], "--slots") == 0 && i + 1 < argc) {
        args.slots = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        args.seed = static_cast<uint64_t>(std::atoll(argv[++i]));
      } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
        args.threads = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        args.json_path = argv[++i];
      } else if (std::strcmp(argv[i], "--max-sensors") == 0 && i + 1 < argc) {
        args.max_sensors = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--index-policy") == 0 && i + 1 < argc) {
        args.index_policy = ParseIndexPolicy(argv[++i]);
      } else if (std::strcmp(argv[i], "--epsilon") == 0 && i + 1 < argc) {
        args.epsilon = std::atof(argv[++i]);
      }
    }
    return args;
  }

  /// Refuses a name it cannot run rather than measuring another policy
  /// under that name.
  static SlotIndexPolicy ParseIndexPolicy(const char* name) {
    if (std::strcmp(name, "grid") == 0) return SlotIndexPolicy::kGrid;
    if (std::strcmp(name, "none") == 0) return SlotIndexPolicy::kNone;
    std::fprintf(stderr,
                 "unknown --index-policy '%s'; valid values: grid, none\n",
                 name);
    std::exit(2);
  }
};

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Median of a set of per-slot latency samples.
inline double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples.empty() ? 0.0 : samples[samples.size() / 2];
}

/// Wall-clock of one call of `fn`, in milliseconds.
template <typename Fn>
double TimeMs(const Fn& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Host-speed calibration: wall-clock (ms) of a fixed floating-point loop.
/// The benchmark-regression gate divides measured times by this value so a
/// committed baseline from one machine remains comparable on another (see
/// docs/BENCHMARKS.md, "Regression gate contract").
inline double CalibrationMs() {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const double ms = TimeMs([] {
      double acc = 1.0;
      for (int i = 1; i <= 20'000'000; ++i) {
        acc = acc * 0.999999 + 1.0 / static_cast<double>(i);
      }
      // Defeat dead-code elimination; the branch is never taken.
      if (acc == 0.12345) std::printf("never\n");
    });
    if (ms < best) best = ms;
  }
  return best;
}

}  // namespace psens::bench

#endif  // PSENS_BENCH_BENCH_UTIL_H_
