// Fig. 16 (beyond the paper): column-kernel valuation microbench.
//
// The slot stores its announcements once, as columns (core/slot.h,
// SlotSensorTable), and the per-query delta loops of all four query
// families — PointMultiQuery, MultiSensorPointQuery, and AggregateQuery
// over regions and over trajectories — run as branch-light sweeps over
// those columns. This sweep isolates the kernels: per population
// (10k..1M) and per query family it times the identical exact-greedy
// selection against the engine's slot context and reports its median
// selection latency and an FNV-1a digest of the outcome's raw bit
// patterns (selections, values, costs, payments, ValuationCalls).
//
// The digest is the bit-equality witness. The counted-reference check of
// every kernel lives in tests/soa_kernel_equivalence_test.cc; the digests
// pin the answers across builds and changes: `--json PATH` emits the
// record scripts/check_bench_regression.py diffs against the committed
// baseline digests, and `--digest PATH` writes one line per row, which the
// CI flag-invariance job diffs between the default -O3 build and a plain
// -O2 build to prove the kernels are flag-invariant (docs/BENCHMARKS.md,
// "fig16 kernel digests").

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/aggregate_query.h"
#include "core/arena.h"
#include "core/greedy.h"
#include "core/multi_query.h"
#include "core/multi_sensor_point_query.h"
#include "core/slot.h"
#include "engine/acquisition_engine.h"
#include "sim/workload.h"

namespace psens {
namespace {

/// Everything an observer can see from one selection run; the digest
/// hashes exactly these fields.
struct Outcome {
  SelectionResult selection;
  std::vector<double> payments;
  std::vector<double> values;
  std::vector<int64_t> calls;
};

/// FNV-1a over the outcome's raw bit patterns. Doubles are hashed by
/// their byte representation, so the digest is a bit-equality witness,
/// not an approximate one.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Double(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Bytes(&bits, sizeof(bits));
  }
  void Int64(int64_t v) { Bytes(&v, sizeof(v)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

uint64_t DigestOutcome(const Outcome& out) {
  Fnv1a h;
  for (int id : out.selection.selected_sensors) h.Int64(id);
  h.Double(out.selection.total_value);
  h.Double(out.selection.total_cost);
  h.Int64(out.selection.valuation_calls);
  for (double p : out.payments) h.Double(p);
  for (double v : out.values) h.Double(v);
  for (int64_t c : out.calls) h.Int64(c);
  return h.value();
}

/// One homogeneous query batch bound against `slot`. The batch owns its
/// query objects; `all` is the selection view.
struct Batch {
  std::vector<std::unique_ptr<PointMultiQuery>> points;
  std::vector<std::unique_ptr<MultiSensorPointQuery>> multi_points;
  std::vector<std::unique_ptr<AggregateQuery>> aggregates;
  std::vector<std::unique_ptr<AggregateQuery>> trajectories;
  std::vector<MultiQuery*> all;
};

enum class QueryKind { kPoint, kMultiPoint, kAggregate, kTrajectory };

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPoint: return "point";
    case QueryKind::kMultiPoint: return "multi_point";
    case QueryKind::kAggregate: return "aggregate";
    case QueryKind::kTrajectory: return "trajectory";
  }
  return "?";
}

/// Binding is untimed: queries are generated from `seed`, so every run
/// binds the same batch.
Batch MakeBatch(QueryKind kind, const SlotContext& slot, const Rect& field,
                uint64_t seed, bool quick) {
  Batch batch;
  Rng rng(seed);
  const double side = field.x_max;
  switch (kind) {
    case QueryKind::kPoint: {
      const int count = quick ? 48 : 96;
      const std::vector<PointQuery> specs = GeneratePointQueries(
          count, field, BudgetScheme{15.0, false, 0.0}, 0.2, 100, rng);
      for (const PointQuery& p : specs) {
        batch.points.push_back(std::make_unique<PointMultiQuery>(p, &slot));
        batch.all.push_back(batch.points.back().get());
      }
      break;
    }
    case QueryKind::kMultiPoint: {
      const int count = quick ? 16 : 32;
      for (int k = 0; k < count; ++k) {
        MultiSensorPointQuery::Params mp;
        mp.id = 500 + k;
        mp.location = Point{rng.Uniform(0.0, field.x_max),
                            rng.Uniform(0.0, field.y_max)};
        mp.budget = 20.0;
        mp.theta_min = 0.2;
        mp.redundancy = 1 + k % 3;
        batch.multi_points.push_back(
            std::make_unique<MultiSensorPointQuery>(mp, &slot));
        batch.all.push_back(batch.multi_points.back().get());
      }
      break;
    }
    case QueryKind::kAggregate: {
      // fig13-scale monitoring regions (50x50, cell 5, range 10): bounded
      // mask slabs at any population, unlike RandomRect over the whole
      // field which goes quadratic in the field side.
      const int count = quick ? 8 : 16;
      const double agg_half = 25.0;
      const double agg_range = 10.0;
      for (int k = 0; k < count; ++k) {
        const Point c = {rng.Uniform(0.0, field.x_max),
                         rng.Uniform(0.0, field.y_max)};
        AggregateQuery::Params p;
        p.id = 400 + k;
        p.region =
            Rect{std::max(0.0, c.x - agg_half), std::max(0.0, c.y - agg_half),
                 std::min(side, c.x + agg_half), std::min(side, c.y + agg_half)};
        p.budget = p.region.Width() * p.region.Height() / (1.5 * agg_range) *
                   2.0;
        p.sensing_range = agg_range;
        p.cell_size = 5.0;
        batch.aggregates.push_back(std::make_unique<AggregateQuery>(p, slot));
        batch.all.push_back(batch.aggregates.back().get());
      }
      break;
    }
    case QueryKind::kTrajectory: {
      const int count = quick ? 4 : 8;
      for (int k = 0; k < count; ++k) {
        AggregateQuery::TrajectoryParams tp;
        tp.id = 700 + k;
        const double y = rng.Uniform(0.0, field.y_max);
        tp.trajectory.waypoints = {Point{0.0, y}, Point{side / 2, y},
                                   Point{side, rng.Uniform(0.0, field.y_max)}};
        tp.budget = 30.0;
        tp.sensing_range = 12.0;
        tp.cell_size = 4.0;
        tp.corridor = 4.0;
        batch.trajectories.push_back(
            std::make_unique<AggregateQuery>(tp, slot));
        batch.all.push_back(batch.trajectories.back().get());
      }
      break;
    }
  }
  return batch;
}

/// Selection-only timing, fig13-style: the batch is bound once, every
/// rep resets selection state and re-runs eager Algorithm 1
/// (EagerGreedySensorSelection). The first rep warms any per-query
/// candidate caches and is excluded from the median.
Outcome TimeSelection(Batch* batch, const SlotContext& slot, int reps,
                      std::vector<double>* ms_out) {
  Outcome out;
  for (int rep = 0; rep <= reps; ++rep) {
    // In production a slot runs one selection and the next BeginSlot
    // resets the arena. Reps that skip the reset would bump-allocate
    // each rep's scratch onto fresh cold pages — a page-fault tax no
    // real slot pays. Reset re-creates the slot-scoped lifetime (the
    // prior rep's scratch is already dead: nothing arena-backed
    // survives GreedySensorSelection).
    if (slot.arena != nullptr) slot.arena->Reset();
    for (MultiQuery* q : batch->all) q->ResetSelection();
    SelectionResult result;
    const double ms = bench::TimeMs([&] {
      result = EagerGreedySensorSelection(batch->all, slot);
    });
    if (rep > 0) ms_out->push_back(ms);
    out.selection = std::move(result);
  }
  out.payments.clear();
  out.values.clear();
  out.calls.clear();
  for (const MultiQuery* q : batch->all) {
    out.payments.push_back(q->TotalPayment());
    out.values.push_back(q->CurrentValue());
    out.calls.push_back(q->ValuationCalls());
  }
  return out;
}

struct KernelRow {
  std::string query;
  int sensors = 0;
  int queries = 0;
  double median_ms = 0.0;
  uint64_t digest = 0;
};

std::vector<KernelRow> RunOne(int n, const bench::BenchArgs& args) {
  // Same city-scale geometry/churn generator as the fig12/fig13 gates;
  // a few warm slots of churn so the columns being measured went through
  // the O(churn) repair path, not just the cold build.
  const ChurnScenarioSetup setup =
      MakeChurnScenario(n, /*churn_fraction=*/0.01, args.seed,
                        /*with_mobility=*/false);
  ServingConfig ecfg;
  ecfg.working_region = setup.field;
  ecfg.dmax = setup.dmax;
  ecfg.index_policy = args.index_policy;
  AcquisitionEngine engine(setup.scenario.sensors, ecfg);
  ChurnStream stream(setup.churn, setup.scenario.sensors, setup.field);
  stream.SetClusteredPlacement(&setup.scenario, &setup.config);
  Rng fork_base = setup.rng_after_generation;
  Rng churn_rng = fork_base.Fork(7);
  engine.BeginSlot(0);
  const int warm_slots = 3;
  for (int t = 1; t <= warm_slots; ++t) {
    engine.ApplyDelta(stream.Next(churn_rng));
    engine.BeginSlot(t);
  }
  const SlotContext& slot = engine.BeginSlot(warm_slots + 1);

  const int reps = args.quick ? 3 : 7;
  std::vector<KernelRow> rows;
  for (QueryKind kind :
       {QueryKind::kPoint, QueryKind::kMultiPoint, QueryKind::kAggregate,
        QueryKind::kTrajectory}) {
    const uint64_t seed = args.seed + 1000 + static_cast<uint64_t>(kind);
    Batch batch = MakeBatch(kind, slot, setup.field, seed, args.quick);
    std::vector<double> ms;
    const Outcome outcome = TimeSelection(&batch, slot, reps, &ms);

    KernelRow row;
    row.query = KindName(kind);
    row.sensors = n;
    row.queries = static_cast<int>(batch.all.size());
    row.median_ms = bench::MedianMs(ms);
    row.digest = DigestOutcome(outcome);
    rows.push_back(row);
  }
  return rows;
}

void WriteJson(const std::string& path, double cal_ms,
               const std::vector<KernelRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig16_kernel_microbench\",\n");
  std::fprintf(f, "  \"cal_ms\": %.6f,\n  \"results\": [\n", cal_ms);
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    // `soa_median_ms` keeps the committed baseline's field name.
    std::fprintf(f,
                 "    {\"query\": \"%s\", \"sensors\": %d, \"queries\": %d, "
                 "\"soa_median_ms\": %.4f, "
                 "\"digest\": \"%016" PRIx64 "\"}%s\n",
                 r.query.c_str(), r.sensors, r.queries, r.median_ms, r.digest,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

/// Digest file: one line per row, no timings — everything in it is a
/// deterministic function of the input stream, so two builds of the same
/// source at different optimization levels must produce byte-identical
/// files (the CI portable-flags job literally diffs them).
void WriteDigests(const std::string& path, const std::vector<KernelRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  for (const KernelRow& r : rows) {
    std::fprintf(f, "fig16 %s %d %016" PRIx64 "\n", r.query.c_str(), r.sensors,
                 r.digest);
  }
  std::fclose(f);
}

}  // namespace
}  // namespace psens

int main(int argc, char** argv) {
  using namespace psens;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  std::string digest_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--digest") == 0 && i + 1 < argc) {
      digest_path = argv[i + 1];
    }
  }

  std::vector<int> populations = args.quick
                                     ? std::vector<int>{10'000}
                                     : std::vector<int>{10'000, 100'000,
                                                        1'000'000};
  if (args.max_sensors > 0) {
    std::vector<int> capped;
    for (int n : populations) {
      if (n <= args.max_sensors) capped.push_back(n);
    }
    if (capped.empty()) capped.push_back(args.max_sensors);
    populations = capped;
  }

  bench::PrintHeader("fig16: column valuation kernels");
  std::printf("%-12s %9s %8s %12s %18s\n", "query", "sensors", "queries",
              "median_ms", "digest");

  const double cal_ms = bench::CalibrationMs();
  std::vector<KernelRow> rows;
  for (int n : populations) {
    for (const KernelRow& r : RunOne(n, args)) {
      std::printf("%-12s %9d %8d %12.3f   %016" PRIx64 "\n", r.query.c_str(),
                  r.sensors, r.queries, r.median_ms, r.digest);
      rows.push_back(r);
    }
  }

  std::printf("\ncalibration: %.2f ms (fixed FP loop; regression-gate time "
              "normalizer)\n", cal_ms);
  if (!args.json_path.empty()) WriteJson(args.json_path, cal_ms, rows);
  if (!digest_path.empty()) WriteDigests(digest_path, rows);
  return 0;
}
