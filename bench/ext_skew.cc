// Extension: data skew — offense and defense. The paper's experiments
// assume "non-skewed data partitioning" (§3.5) and leave real-life
// workloads as future work (§5). The workload generator plays offense:
// Zipf(theta) join keys pile the hot fragment onto one processor, m:n
// fanout multiplies the hot key through every join of the chain, and
// selectivity < 1 adds probe rows that provably match nothing. The skew
// defense (hot-key repartitioning + Bloom predicate transfer) plays
// defense on the same plans.
//
// Two parts, written as JSON (committed as BENCH_skew.json):
//
//   sweep:    theta x fanout x selectivity x strategy x defense on the
//             thread backend — wall clock, result checksum vs the
//             reference, and the defense counters for every cell.
//   headline: the adversarial workload (Zipf(1.0), m:n fanout 4,
//             selectivity 0.25) on the process backend's shm data plane
//             at 8 workers, defense off vs on: wall-clock speedup and
//             max/mean per-processor busy-time imbalance, from the same
//             trace machinery that renders the utilization diagrams.
//
// Queries are right-linear chains: every intermediate result crosses a
// hash-split probe edge — the edge the defense reroutes and prunes.
// (Left-linear chains feed intermediates into build slots and probe from
// colocated scans; there is nothing to defend there.)
//
// Flags: --smoke (tiny sweep, 1 rep — the CI guard),
//        --out=FILE (default BENCH_skew.json),
//        --workers=N (process backend; default 0 = one per processor).
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "common/logging.h"
#include "engine/database.h"
#include "engine/process_executor.h"
#include "engine/reference.h"
#include "engine/thread_executor.h"
#include "engine/thread_trace.h"
#include "plan/wisconsin_query.h"
#include "skew/defense.h"
#include "strategy/strategy.h"
#include "workload/workload.h"

namespace mjoin {
namespace {

struct Config {
  bool smoke = false;
  std::string out = "BENCH_skew.json";
  int relations = 4;
  uint32_t processors = 8;
  uint32_t workers = 0;  // 0 = one per processor
  int reps = 3;
  // Zipf(1) m:n chains diverge geometrically: at selectivity 1.0 each
  // extra join multiplies the intermediate by ~card * sum(p_k^2), so the
  // sweep runs short chains at modest cardinality to keep its worst cell
  // (theta=1, fanout=4, selectivity=1.0) near ~250 K result rows. The
  // headline scales the cardinality up but keeps selectivity at 0.25.
  int sweep_relations = 3;
  uint32_t sweep_cardinality = 400;
  uint32_t headline_cardinality = 2000;
};

// Bench-scale detection thresholds: the generated hot keys hold tens of
// rows, so the production defaults (min_hot_count=256) would never fire.
SkewDefenseOptions BenchDefense(SkewDefenseMode mode) {
  SkewDefenseOptions defense;
  defense.mode = mode;
  defense.min_hot_count = 12;
  defense.hot_fraction = 0.05;
  // The default 1 Mi-bit filters are sized for production builds; at a
  // few thousand build keys, 32 Ki bits keeps the false-positive rate
  // under a percent at 1/32 the report/directive wire cost.
  defense.bloom_bits = 1u << 15;
  return defense;
}

WorkloadSpec SweepSpec(const Config& cfg, double theta, uint32_t fanout,
                       double selectivity, uint32_t cardinality) {
  WorkloadSpec spec;
  spec.name = "sweep";
  spec.num_relations = cfg.sweep_relations;
  spec.cardinality = cardinality;
  spec.zipf_theta = theta;
  spec.fanout = fanout;
  spec.selectivity = selectivity;
  spec.seed = 37;
  return spec;
}

// Defense counters summed over a run's per-op metrics.
struct SkewCounters {
  uint64_t hot_keys = 0;
  uint64_t replicated = 0;
  uint64_t repartitioned = 0;
  uint64_t bloom_filtered = 0;
};

SkewCounters SumCounters(const std::vector<QueryOpStats>& per_op) {
  SkewCounters out;
  for (const QueryOpStats& op : per_op) {
    out.hot_keys += op.metrics.skew_hot_keys;
    out.replicated += op.metrics.skew_replicated_rows;
    out.repartitioned += op.metrics.skew_repartitioned_rows;
    out.bloom_filtered += op.metrics.skew_bloom_filtered_rows;
  }
  return out;
}

// Busy seconds per trace lane (kBlocked is waiting, not work).
std::vector<double> BusyByWorker(const ThreadTraceRecorder& trace) {
  std::vector<double> busy(trace.num_workers(), 0.0);
  for (uint32_t w = 0; w < trace.num_workers(); ++w) {
    for (const ThreadTraceEvent& event : trace.events_by_worker()[w]) {
      if (event.type == ThreadWorkType::kBlocked) continue;
      busy[w] += static_cast<double>(event.end_ns - event.start_ns) / 1e9;
    }
  }
  return busy;
}

// max/mean of the per-lane busy seconds; 0 when the trace is empty.
double BusyImbalance(const std::vector<double>& busy) {
  double max = 0, sum = 0;
  for (double b : busy) {
    if (b > max) max = b;
    sum += b;
  }
  double mean = busy.empty() ? 0 : sum / static_cast<double>(busy.size());
  return mean > 0 ? max / mean : 0;
}

struct SweepRow {
  double theta = 0;
  uint32_t fanout = 1;
  double selectivity = 1;
  StrategyKind strategy = StrategyKind::kSP;
  SkewDefenseMode defense = SkewDefenseMode::kOff;
  double wall = 0;
  uint64_t result_rows = 0;
  bool verified = false;
  SkewCounters counters;
};

struct HeadlineSide {
  double wall = 0;
  double imbalance = 0;
  std::vector<double> busy;
  uint64_t shm_bytes_sent = 0;
  SkewCounters counters;
};

struct Headline {
  WorkloadSpec spec;
  HeadlineSide off;
  HeadlineSide on;
};

HeadlineSide RunHeadlineSide(const Database& db, const ParallelPlan& plan,
                             const ResultSummary& reference,
                             const Config& cfg, SkewDefenseMode mode) {
  HeadlineSide side;
  ProcessExecutor processes(&db);
  for (int rep = 0; rep < cfg.reps; ++rep) {
    ProcessExecOptions options;
    options.exec.collect_metrics = true;
    options.exec.record_trace = true;
    options.exec.skew_defense = BenchDefense(mode);
    options.num_workers = cfg.workers;
    options.use_shm_data_plane = true;
    auto run = processes.Execute(plan, options);
    MJOIN_CHECK(run.ok()) << run.status();
    MJOIN_CHECK(run->exec.result == reference)
        << "headline run diverged from the reference, defense="
        << SkewDefenseModeName(mode);
    if (side.wall == 0 || run->exec.seconds < side.wall) {
      side.wall = run->exec.seconds;
      side.busy = run->exec.trace != nullptr
                      ? BusyByWorker(*run->exec.trace)
                      : std::vector<double>();
      side.imbalance = BusyImbalance(side.busy);
      side.shm_bytes_sent = run->net.shm_bytes_sent;
      side.counters = SumCounters(run->exec.stats.per_op);
    }
  }
  return side;
}

int Main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      cfg.smoke = true;
      cfg.reps = 1;
      cfg.sweep_cardinality = 400;
      cfg.headline_cardinality = 2000;
    } else if (arg.rfind("--out=", 0) == 0) {
      cfg.out = arg.substr(6);
    } else if (arg.rfind("--workers=", 0) == 0) {
      cfg.workers = static_cast<uint32_t>(std::stoul(arg.substr(10)));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  // ------------------------------------------------------------------
  // Sweep: theta x fanout x selectivity x strategy x defense, thread
  // backend. Smoke keeps one cell per axis end so the CI run stays fast.
  // ------------------------------------------------------------------
  std::vector<double> thetas = cfg.smoke ? std::vector<double>{1.0}
                                         : std::vector<double>{0.0, 1.0};
  std::vector<uint32_t> fanouts =
      cfg.smoke ? std::vector<uint32_t>{4} : std::vector<uint32_t>{1, 4};
  // Smoke keeps both selectivity ends: 1.0 is the repartition showcase
  // (every probe key matches, so the win is queue-balance), 0.25 the
  // Bloom showcase (75% of probe rows prune pre-wire).
  std::vector<double> selectivities = cfg.smoke
                                          ? std::vector<double>{1.0, 0.25}
                                          : std::vector<double>{1.0, 0.25};
  std::vector<StrategyKind> strategies =
      cfg.smoke ? std::vector<StrategyKind>{StrategyKind::kSP}
                : std::vector<StrategyKind>(std::begin(kAllStrategies),
                                            std::end(kAllStrategies));

  std::vector<SweepRow> sweep;
  for (double theta : thetas) {
    for (uint32_t fanout : fanouts) {
      for (double selectivity : selectivities) {
        WorkloadSpec spec = SweepSpec(cfg, theta, fanout, selectivity,
                                      cfg.sweep_cardinality);
        MJOIN_CHECK(spec.Validate().ok());
        auto db = MakeWorkloadDatabase(spec);
        MJOIN_CHECK(db.ok()) << db.status();
        auto query = MakeWisconsinChainQuery(QueryShape::kRightLinear,
                                             spec.num_relations,
                                             spec.cardinality);
        MJOIN_CHECK(query.ok());
        auto reference = ReferenceSummary(*query, *db);
        MJOIN_CHECK(reference.ok()) << reference.status();

        for (StrategyKind strategy : strategies) {
          auto plan = MakeStrategy(strategy)->Parallelize(
              *query, cfg.processors, TotalCostModel());
          MJOIN_CHECK(plan.ok()) << plan.status();
          ThreadExecutor threads(&*db);
          for (SkewDefenseMode mode :
               {SkewDefenseMode::kOff, SkewDefenseMode::kOn}) {
            SweepRow row;
            row.theta = theta;
            row.fanout = fanout;
            row.selectivity = selectivity;
            row.strategy = strategy;
            row.defense = mode;
            for (int rep = 0; rep < cfg.reps; ++rep) {
              ThreadExecOptions options;
              options.collect_metrics = true;
              options.skew_defense = BenchDefense(mode);
              auto run = threads.Execute(*plan, options);
              MJOIN_CHECK(run.ok()) << run.status();
              if (row.wall == 0 || run->seconds < row.wall) {
                row.wall = run->seconds;
                row.result_rows = run->result.cardinality;
                row.verified = run->result == *reference;
                row.counters = SumCounters(run->stats.per_op);
              }
            }
            std::fprintf(stderr,
                         "sweep theta=%.1f fanout=%u sel=%.2f %s "
                         "defense=%-3s  %8.4fs  %8llu rows  "
                         "bloom_filtered=%llu  %s\n",
                         theta, fanout, selectivity,
                         StrategyName(strategy).c_str(),
                         SkewDefenseModeName(mode), row.wall,
                         static_cast<unsigned long long>(row.result_rows),
                         static_cast<unsigned long long>(
                             row.counters.bloom_filtered),
                         row.verified ? "ok" : "WRONG RESULT");
            sweep.push_back(row);
          }
        }
      }
    }
  }

  // ------------------------------------------------------------------
  // Headline: the adversarial Zipf(1.0) m:n chain on the process
  // backend's shm plane, defense off vs on.
  // ------------------------------------------------------------------
  Headline headline;
  headline.spec = SweepSpec(cfg, /*theta=*/1.0, /*fanout=*/4,
                            /*selectivity=*/0.25, cfg.headline_cardinality);
  headline.spec.num_relations = cfg.relations;
  headline.spec.name = "adversarial-headline";
  {
    auto db = MakeWorkloadDatabase(headline.spec);
    MJOIN_CHECK(db.ok()) << db.status();
    auto query = MakeWisconsinChainQuery(QueryShape::kRightLinear,
                                         headline.spec.num_relations,
                                         headline.spec.cardinality);
    MJOIN_CHECK(query.ok());
    auto reference = ReferenceSummary(*query, *db);
    MJOIN_CHECK(reference.ok()) << reference.status();
    auto plan = MakeStrategy(StrategyKind::kSP)
                    ->Parallelize(*query, cfg.processors, TotalCostModel());
    MJOIN_CHECK(plan.ok()) << plan.status();
    MJOIN_CHECK(!DefendedJoinOps(*plan).empty());

    headline.off = RunHeadlineSide(*db, *plan, *reference, cfg,
                                   SkewDefenseMode::kOff);
    headline.on =
        RunHeadlineSide(*db, *plan, *reference, cfg, SkewDefenseMode::kOn);
  }
  double speedup =
      headline.on.wall > 0 ? headline.off.wall / headline.on.wall : 0;
  std::fprintf(stderr,
               "headline %s\n  defense off: %.4fs  imbalance %.2f  "
               "shm %llu B\n  defense on:  %.4fs  imbalance %.2f  "
               "shm %llu B  (bloom_filtered=%llu hot_keys=%llu)\n"
               "  speedup %.2fx\n",
               headline.spec.ToString().c_str(), headline.off.wall,
               headline.off.imbalance,
               static_cast<unsigned long long>(headline.off.shm_bytes_sent),
               headline.on.wall, headline.on.imbalance,
               static_cast<unsigned long long>(headline.on.shm_bytes_sent),
               static_cast<unsigned long long>(
                   headline.on.counters.bloom_filtered),
               static_cast<unsigned long long>(headline.on.counters.hot_keys),
               speedup);

  // ------------------------------------------------------------------
  // JSON out.
  // ------------------------------------------------------------------
  FILE* f = std::fopen(cfg.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", cfg.out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"config\": {\"relations\": %d, \"processors\": %u, "
               "\"sweep_relations\": %d, \"sweep_cardinality\": %u, "
               "\"headline_cardinality\": %u, "
               "\"reps\": %d, \"shape\": \"right linear\", \"smoke\": %s},\n"
               "  \"sweep\": [\n",
               cfg.relations, cfg.processors, cfg.sweep_relations,
               cfg.sweep_cardinality, cfg.headline_cardinality, cfg.reps,
               cfg.smoke ? "true" : "false");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    std::fprintf(
        f,
        "    {\"theta\": %.1f, \"fanout\": %u, \"selectivity\": %.2f, "
        "\"strategy\": \"%s\", \"defense\": \"%s\", \"wall_seconds\": %.6f, "
        "\"result_rows\": %llu, \"verified\": %s, \"hot_keys\": %llu, "
        "\"replicated_rows\": %llu, \"repartitioned_rows\": %llu, "
        "\"bloom_filtered_rows\": %llu}%s\n",
        r.theta, r.fanout, r.selectivity, StrategyName(r.strategy).c_str(),
        SkewDefenseModeName(r.defense), r.wall,
        static_cast<unsigned long long>(r.result_rows),
        r.verified ? "true" : "false",
        static_cast<unsigned long long>(r.counters.hot_keys),
        static_cast<unsigned long long>(r.counters.replicated),
        static_cast<unsigned long long>(r.counters.repartitioned),
        static_cast<unsigned long long>(r.counters.bloom_filtered),
        i + 1 < sweep.size() ? "," : "");
  }
  auto write_side = [f](const char* key, const HeadlineSide& s, bool last) {
    std::string busy;
    for (size_t i = 0; i < s.busy.size(); ++i) {
      char one[32];
      std::snprintf(one, sizeof(one), "%s%.4f", i ? ", " : "", s.busy[i]);
      busy += one;
    }
    std::fprintf(
        f,
        "    \"%s\": {\"wall_seconds\": %.6f, \"busy_imbalance\": %.4f, "
        "\"busy_seconds\": [%s], "
        "\"shm_bytes_sent\": %llu, \"hot_keys\": %llu, "
        "\"replicated_rows\": %llu, \"repartitioned_rows\": %llu, "
        "\"bloom_filtered_rows\": %llu, \"verified\": true}%s\n",
        key, s.wall, s.imbalance, busy.c_str(),
        static_cast<unsigned long long>(s.shm_bytes_sent),
        static_cast<unsigned long long>(s.counters.hot_keys),
        static_cast<unsigned long long>(s.counters.replicated),
        static_cast<unsigned long long>(s.counters.repartitioned),
        static_cast<unsigned long long>(s.counters.bloom_filtered),
        last ? "" : ",");
  };
  std::fprintf(f,
               "  ],\n  \"headline\": {\n    \"workload\": \"%s\", "
               "\"strategy\": \"SP\", \"backend\": \"process/shm\",\n",
               headline.spec.ToString().c_str());
  write_side("defense_off", headline.off, /*last=*/false);
  write_side("defense_on", headline.on, /*last=*/false);
  std::fprintf(f, "    \"speedup\": %.4f\n  }\n}\n", speedup);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", cfg.out.c_str());
  return 0;
}

}  // namespace
}  // namespace mjoin

int main(int argc, char** argv) { return mjoin::Main(argc, argv); }
