// Fig. 18 (beyond the paper): latency-SLO adaptive scheduling under a
// load spike.
//
// ServingConfig::slo_ms arms the AdaptivePolicy
// (src/engine/adaptive_policy.h): each slot, Select predicts every
// engine's cost from the slot's features (members, churn, query batch)
// with an online per-engine cost model and runs the best engine whose
// prediction fits the remaining budget, degrading down the quality
// ladder (lazy -> sieve) when the configured scheduler
// would blow the deadline and climbing back when load drops. This bench
// measures exactly that story on a three-phase workload over the
// fig12/fig13 churn scenario:
//
//   base     slots 1..P        the steady query rate
//   spike    slots P+1..2P     spike_queries per slot (6x base)
//   recover  slots 2P+1..3P    back to the base rate
//
// The SLO is self-calibrated — a static-lazy run is measured first and
// its base-phase median per-slot latency (turnover + selection) becomes
// the unit — so the classification is host-independent: the spike costs
// ~6x base under lazy, the "medium" SLO is 3x base, and a static
// scheduler therefore misses every spike deadline on any machine while
// the adaptive engine degrades and keeps hitting. Three SLO levels are
// swept (tight 0.6x, medium 3x, loose 50x base median) and for each the
// static run's hit rates are re-scored next to a live adaptive run.
//
// Every adaptive run records a version-2 trace (per-slot engine choices)
// and is replayed through TraceReplayer; the replay must reproduce every
// slot's schedule, payments, and valuation-call count bit for bit even
// though the live choices came from wall-clock observations — the
// recorded choices are pinned, not re-derived.
//
// `--json PATH` emits the record consumed by
// scripts/check_bench_regression.py, which fails on any
// `replay_identical: false` adaptive row (always fatal) and, on hosts
// with >= 2 hardware threads, gates the medium-SLO adaptive hit_rate
// >= 0.95 (0.90 in the nightly), the medium-SLO static spike_hit_rate
// <= 0.5, the loose-SLO adaptive run staying undegraded (all-lazy), and
// recovery (the recover phase back on lazy) — see docs/BENCHMARKS.md,
// "fig18 gate". `--trace-dir DIR` keeps the recorded traces.
//
// Each row also reports `spike_median_ms`, the median turnover +
// selection time over its spike-phase slots, and `spike_units`, that
// median divided by the unit: what the spike costs the engines the run
// chose, in SLO units (the medium SLO is 3 units). Both are
// informational; no gate reads them.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/greedy.h"
#include "engine/serving_engine.h"
#include "sim/workload.h"
#include "trace/slot_server.h"
#include "trace/trace_replayer.h"

namespace psens {
namespace {

struct PhasePlan {
  int slots = 0;          // total slots after the cold slot 0
  int phase = 0;          // slots per phase (base / spike / recover)
  int base_points = 0;
  int base_aggregates = 0;
  int spike_points = 0;
  int spike_aggregates = 0;

  bool IsSpike(int t) const { return t > phase && t <= 2 * phase; }
  bool IsRecover(int t) const { return t > 2 * phase; }
  int PointsAt(int t) const { return IsSpike(t) ? spike_points : base_points; }
  int AggregatesAt(int t) const {
    return IsSpike(t) ? spike_aggregates : base_aggregates;
  }
};

/// One served run over the scenario: every slot's outcome plus the
/// engine Select actually ran (from ServingEngine::last_select_engine).
struct RunStats {
  std::vector<SlotOutcome> outcomes;   // slots 1..plan.slots
  std::vector<GreedyEngine> engines;   // parallel to outcomes
  double utility = 0.0;
};

/// Serves the three-phase workload once. Inputs are regenerated from the
/// same scenario forks every call, so every run (static, each adaptive
/// level, and — through the trace — each replay) sees the identical
/// delta and query streams.
RunStats ServeRun(const ChurnScenarioSetup& setup, const PhasePlan& plan,
                  const bench::BenchArgs& args, double slo_ms,
                  const std::string& trace_path) {
  ServingConfig cfg;
  cfg.working_region = setup.field;
  cfg.dmax = setup.dmax;
  cfg.scheduler = GreedyEngine::kLazy;
  cfg.index_policy = args.index_policy;
  cfg.approx.epsilon = args.epsilon;
  cfg.approx.seed = args.seed;
  cfg.slo_ms = slo_ms;
  cfg.trace_path = trace_path;
  std::unique_ptr<ServingEngine> engine =
      MakeServingEngine(setup.scenario.sensors, cfg);
  SlotServer server(engine.get());

  ChurnStream stream(setup.churn, setup.scenario.sensors, setup.field);
  stream.SetClusteredPlacement(&setup.scenario, &setup.config);
  Rng fork_base = setup.rng_after_generation;
  Rng churn_rng = fork_base.Fork(7);
  Rng query_rng = fork_base.Fork(8);

  const double side = setup.side;
  const double agg_half = 25.0;
  const double agg_range = 10.0;

  // Cold build, query-free — excluded from hit rates (its "turnover" is
  // the full registry build).
  server.ServeSlot(0, SensorDelta{}, SlotQueryBatch{});

  RunStats stats;
  for (int t = 1; t <= plan.slots; ++t) {
    const SensorDelta delta = stream.Next(churn_rng);
    SlotQueryBatch batch;
    batch.points = GenerateClusteredPointQueries(
        plan.PointsAt(t), setup.scenario, setup.config,
        BudgetScheme{15.0, false, 0.0},
        /*theta_min=*/0.2, /*id_base=*/t * 10'000, query_rng);
    const int aggs = plan.AggregatesAt(t);
    for (int i = 0; i < aggs; ++i) {
      const Point c = DrawScenarioLocation(setup.scenario, setup.config,
                                           query_rng);
      AggregateQuery::Params params;
      params.id = t * 1000 + i;
      params.region =
          Rect{std::max(0.0, c.x - agg_half), std::max(0.0, c.y - agg_half),
               std::min(side, c.x + agg_half), std::min(side, c.y + agg_half)};
      params.budget = params.region.Width() * params.region.Height() /
                      (1.5 * agg_range) * 2.0;
      params.sensing_range = agg_range;
      params.cell_size = 5.0;
      batch.aggregates.push_back(params);
    }
    SlotOutcome out = server.ServeSlot(t, delta, batch);
    stats.utility += out.selection.Utility();
    stats.outcomes.push_back(std::move(out));
    stats.engines.push_back(engine->last_select_engine());
  }
  if (!trace_path.empty()) engine->FinishTrace();
  return stats;
}

struct SloRow {
  std::string mode;       // "static" | "adaptive"
  std::string slo_label;  // "tight" | "medium" | "loose"
  double slo_ms = 0.0;
  int sensors = 0;
  int slots = 0;
  int base_queries = 0;
  int spike_queries = 0;
  int hardware_threads = 0;
  double hit_rate = 0.0;
  double spike_hit_rate = 0.0;
  /// Median turnover + selection over spike-phase slots, and that median
  /// in units of the static lazy base-phase median.
  double spike_median_ms = 0.0;
  double spike_units = 0.0;
  int lazy_slots = 0;
  int sieve_slots = 0;
  double utility_ratio_vs_static = 0.0;
  bool replay_identical = true;
  bool recovered = true;
};

/// A slot hits its deadline when the stages the SLO governs — turnover
/// plus selection — fit the budget. Binding/payment bookkeeping is
/// query-arrival work outside the scheduler's control and is excluded,
/// the same split the policy itself budgets with.
bool Hit(const SlotOutcome& out, double slo_ms) {
  return out.turnover_ms + out.selection_ms <= slo_ms;
}

SloRow ScoreRun(const RunStats& run, const PhasePlan& plan, double slo_ms,
                double base_median_ms) {
  SloRow row;
  row.slo_ms = slo_ms;
  int hits = 0;
  int spike_hits = 0;
  int recover_lazy = 0;
  std::vector<double> spike_ms;
  for (size_t i = 0; i < run.outcomes.size(); ++i) {
    const SlotOutcome& out = run.outcomes[i];
    const int t = out.time;
    const bool hit = Hit(out, slo_ms);
    hits += hit ? 1 : 0;
    if (plan.IsSpike(t)) {
      spike_hits += hit ? 1 : 0;
      spike_ms.push_back(out.turnover_ms + out.selection_ms);
    }
    switch (run.engines[i]) {
      case GreedyEngine::kLazy: ++row.lazy_slots; break;
      case GreedyEngine::kSieve: ++row.sieve_slots; break;
    }
    if (plan.IsRecover(t) && run.engines[i] == GreedyEngine::kLazy) {
      ++recover_lazy;
    }
  }
  const int n = static_cast<int>(run.outcomes.size());
  row.slots = n;
  row.hit_rate = n > 0 ? static_cast<double>(hits) / n : 0.0;
  row.spike_hit_rate =
      plan.phase > 0 ? static_cast<double>(spike_hits) / plan.phase : 0.0;
  row.spike_median_ms = bench::MedianMs(spike_ms);
  row.spike_units =
      base_median_ms > 0.0 ? row.spike_median_ms / base_median_ms : 0.0;
  // "Recovered" = the recover phase is (mostly) back on the quality
  // ceiling; the one-slot tail of a sieve re-entry is tolerated.
  row.recovered = plan.phase > 0 &&
                  recover_lazy >= (8 * plan.phase + 9) / 10;  // ceil(0.8 P)
  return row;
}

void WriteJson(const std::string& path, double cal_ms, double base_median_ms,
               const std::vector<SloRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig18_adaptive_slo\",\n");
  std::fprintf(f, "  \"cal_ms\": %.6f,\n", cal_ms);
  std::fprintf(f, "  \"base_median_ms\": %.4f,\n  \"results\": [\n",
               base_median_ms);
  for (size_t i = 0; i < rows.size(); ++i) {
    const SloRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"slo_label\": \"%s\", \"slo_ms\": %.4f, "
        "\"sensors\": %d, \"slots\": %d, \"base_queries\": %d, "
        "\"spike_queries\": %d, \"hardware_threads\": %d, "
        "\"hit_rate\": %.4f, \"spike_hit_rate\": %.4f, "
        "\"spike_median_ms\": %.4f, \"spike_units\": %.4f, "
        "\"lazy_slots\": %d, "
        "\"sieve_slots\": %d, \"utility_ratio_vs_static\": %.5f, "
        "\"replay_identical\": %s, \"recovered\": %s}%s\n",
        r.mode.c_str(), r.slo_label.c_str(), r.slo_ms, r.sensors, r.slots,
        r.base_queries, r.spike_queries, r.hardware_threads, r.hit_rate,
        r.spike_hit_rate, r.spike_median_ms, r.spike_units, r.lazy_slots,
        r.sieve_slots, r.utility_ratio_vs_static,
        r.replay_identical ? "true" : "false",
        r.recovered ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace psens

int main(int argc, char** argv) {
  using namespace psens;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  // fig18-specific flag (BenchArgs ignores what it does not know):
  //   --trace-dir DIR   keep the recorded adaptive traces under DIR
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-dir") == 0 && i + 1 < argc) {
      trace_dir = argv[++i];
    }
  }
  const bool keep_traces = !trace_dir.empty();
  if (!keep_traces) {
    const char* tmp = std::getenv("TMPDIR");
    trace_dir = tmp != nullptr ? tmp : "/tmp";
  }

  // The phase structure is the experiment — fixed per mode rather than
  // taken from --slots, so the gate workload is reproducible.
  PhasePlan plan;
  plan.phase = args.quick ? 16 : 20;
  plan.slots = 3 * plan.phase;
  plan.base_points = args.quick ? 24 : 32;
  plan.base_aggregates = args.quick ? 3 : 4;
  plan.spike_points = 6 * plan.base_points;
  plan.spike_aggregates = 6 * plan.base_aggregates;

  int sensors = args.quick ? 40'000 : 100'000;
  if (args.max_sensors > 0) sensors = std::min(sensors, args.max_sensors);
  const double churn_fraction = 0.01;
  const ChurnScenarioSetup setup = MakeChurnScenario(
      sensors, churn_fraction, args.seed, /*with_mobility=*/false);

  bench::PrintHeader("fig18: latency-SLO adaptive scheduling under load spike");
  const double cal_ms = bench::CalibrationMs();
  const int hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());

  // Static reference run (lazy, no SLO): the baseline utility, the hit
  // rates every SLO level is re-scored against, and the calibration
  // unit — the base-phase median of turnover + selection.
  const RunStats st = ServeRun(setup, plan, args, /*slo_ms=*/0.0,
                               /*trace_path=*/std::string());
  std::vector<double> base_ms;
  for (const SlotOutcome& out : st.outcomes) {
    if (out.time <= plan.phase) {
      base_ms.push_back(out.turnover_ms + out.selection_ms);
    }
  }
  const double base_median_ms = bench::MedianMs(base_ms);
  std::printf("static lazy base-phase median: %.3f ms "
              "(turnover + selection; the SLO unit)\n\n", base_median_ms);

  struct SloLevel {
    const char* label;
    double factor;
  };
  const SloLevel levels[] = {{"tight", 0.6}, {"medium", 3.0}, {"loose", 50.0}};

  std::printf("%-9s %-7s %10s %9s %10s %9s %6s %6s %6s %8s %8s\n", "mode",
              "slo", "slo_ms", "hit_rate", "spike_hit", "spike_ms", "units",
              "lazy", "sieve", "replay", "recov");
  std::vector<SloRow> rows;
  bool all_identical = true;
  for (const SloLevel& level : levels) {
    const double slo_ms = level.factor * base_median_ms;

    SloRow srow = ScoreRun(st, plan, slo_ms, base_median_ms);
    srow.mode = "static";
    srow.slo_label = level.label;
    srow.sensors = sensors;
    srow.base_queries = plan.base_points + plan.base_aggregates;
    srow.spike_queries = plan.spike_points + plan.spike_aggregates;
    srow.hardware_threads = hardware_threads;
    srow.utility_ratio_vs_static = 1.0;

    char path[512];
    std::snprintf(path, sizeof(path), "%s/fig18_adaptive_%s.trace",
                  trace_dir.c_str(), level.label);
    const RunStats ad = ServeRun(setup, plan, args, slo_ms, path);

    // Replay the recorded adaptive trace: the choices were made from
    // wall-clock observations, yet the replay must be bit-identical
    // because the trace pins them.
    const ServingConfig replay_serving =
        ServingConfig()
            .WithScheduler(GreedyEngine::kLazy)
            .WithIndexPolicy(args.index_policy);
    const ReplayResult replayed =
        TraceReplayer(replay_serving).Replay(path, setup.scenario.sensors);
    bool identical = replayed.ok &&
                     replayed.outcomes.size() == ad.outcomes.size() + 1;
    if (!replayed.ok) {
      std::fprintf(stderr, "fig18 %s: replay failed: %s\n", level.label,
                   replayed.error.c_str());
    }
    if (identical) {
      // Replay outcome 0 is the recorded cold slot; live outcomes start
      // at slot 1.
      for (size_t i = 0; i < ad.outcomes.size(); ++i) {
        if (!SameOutcome(ad.outcomes[i], replayed.outcomes[i + 1])) {
          identical = false;
          std::fprintf(stderr,
                       "fig18 %s: slot %d replay diverged from live\n",
                       level.label, ad.outcomes[i].time);
          break;
        }
      }
    }
    all_identical = all_identical && identical;
    if (!keep_traces) std::remove(path);

    SloRow arow = ScoreRun(ad, plan, slo_ms, base_median_ms);
    arow.mode = "adaptive";
    arow.slo_label = level.label;
    arow.sensors = sensors;
    arow.base_queries = srow.base_queries;
    arow.spike_queries = srow.spike_queries;
    arow.hardware_threads = hardware_threads;
    arow.utility_ratio_vs_static =
        st.utility != 0.0 ? ad.utility / st.utility : 0.0;
    arow.replay_identical = identical;

    for (const SloRow* r : {&srow, &arow}) {
      std::printf(
          "%-9s %-7s %10.3f %8.1f%% %9.1f%% %9.3f %6.2f %6d %6d %8s %8s\n",
          r->mode.c_str(), r->slo_label.c_str(), r->slo_ms,
          100.0 * r->hit_rate, 100.0 * r->spike_hit_rate, r->spike_median_ms,
          r->spike_units, r->lazy_slots, r->sieve_slots,
          r->replay_identical ? "yes" : "NO", r->recovered ? "yes" : "no");
      rows.push_back(*r);
    }
  }

  std::printf("\ncalibration: %.2f ms (fixed FP loop; regression-gate time "
              "normalizer)\n", cal_ms);
  if (keep_traces) std::printf("traces kept under %s\n", trace_dir.c_str());
  if (!args.json_path.empty()) {
    WriteJson(args.json_path, cal_ms, base_median_ms, rows);
  }
  return all_identical ? 0 : 1;
}
