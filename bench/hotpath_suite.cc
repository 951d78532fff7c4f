// Hot-path throughput suite: measures the threaded backend's tuple
// throughput and batch-buffer allocation traffic for every strategy on
// every query-tree shape, and writes the results as JSON (consumed by
// tools/ci.sh, committed as BENCH_hotpath.json).
//
// Per configuration it runs the query once with metrics on (to count the
// tuples moved and the pool traffic) and `reps` times with metrics off,
// taking the best wall time: tuples/sec = tuples_moved / best_wall.
// "Allocations" are batch buffers heap-allocated by the executor; with
// pooling they stay near the plan's pipeline depth however many batches
// ship, so allocs_per_million_tuples is the steady-state figure of merit.
//
// Flags: --smoke (tiny cardinality, 1 rep — the CI guard),
//        --out=FILE (default BENCH_hotpath.json),
//        --batch=N (default 256).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "engine/database.h"
#include "engine/thread_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

struct Config {
  bool smoke = false;
  std::string out = "BENCH_hotpath.json";
  uint32_t batch_size = 256;
  int relations = 5;
  uint32_t cardinality = 8000;  // per relation: 5 x 8000 = 40,000 tuples
  uint32_t processors = 8;
  int reps = 3;
};

struct Row {
  std::string strategy;
  std::string shape;
  double best_wall = 0;
  uint64_t tuples_moved = 0;
  double tuples_per_sec = 0;
  uint64_t batches_sent = 0;
  uint64_t buffers_allocated = 0;
  uint64_t buffers_reused = 0;
  double allocs_per_million_tuples = 0;
};

uint64_t TuplesMoved(const QueryStats& stats) {
  uint64_t total = 0;
  for (const QueryOpStats& op : stats.per_op) total += op.metrics.rows_out;
  return total;
}

Row RunOne(const Database& db, StrategyKind strategy, QueryShape shape,
           const Config& cfg) {
  auto query =
      MakeWisconsinChainQuery(shape, cfg.relations, cfg.cardinality);
  MJOIN_CHECK(query.ok());
  auto plan = MakeStrategy(strategy)->Parallelize(*query, cfg.processors,
                                                  TotalCostModel());
  MJOIN_CHECK(plan.ok()) << plan.status();

  ThreadExecutor executor(&db);
  Row row;
  row.strategy = StrategyName(strategy);
  row.shape = ShapeName(shape);

  // Timing runs first: metrics off, best of reps. These double as pool
  // warmup — the executor's batch pools persist across runs.
  double best = 0;
  for (int r = 0; r < cfg.reps; ++r) {
    ThreadExecOptions options;
    options.batch_size = cfg.batch_size;
    options.collect_metrics = false;
    auto run = executor.Execute(*plan, options);
    MJOIN_CHECK(run.ok()) << run.status();
    if (best == 0 || run->seconds < best) best = run->seconds;
  }
  row.best_wall = best;

  // Counting run last, with warm pools: tuple totals and the
  // steady-state pool traffic of a repeated query.
  {
    ThreadExecOptions options;
    options.batch_size = cfg.batch_size;
    options.collect_metrics = true;
    auto run = executor.Execute(*plan, options);
    MJOIN_CHECK(run.ok()) << run.status();
    row.tuples_moved = TuplesMoved(run->stats);
    row.batches_sent = run->stats.batches_sent;
    row.buffers_allocated = run->stats.batch_buffers_allocated;
    row.buffers_reused = run->stats.batch_buffers_reused;
  }
  row.tuples_per_sec =
      best > 0 ? static_cast<double>(row.tuples_moved) / best : 0;
  row.allocs_per_million_tuples =
      row.tuples_moved > 0 ? static_cast<double>(row.buffers_allocated) * 1e6 /
                                 static_cast<double>(row.tuples_moved)
                           : 0;
  return row;
}

int Main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      cfg.smoke = true;
      cfg.cardinality = 400;
      cfg.reps = 1;
    } else if (arg.rfind("--out=", 0) == 0) {
      cfg.out = arg.substr(6);
    } else if (arg.rfind("--batch=", 0) == 0) {
      cfg.batch_size = static_cast<uint32_t>(std::stoul(arg.substr(8)));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  Database db = MakeWisconsinDatabase(cfg.relations, cfg.cardinality,
                                      /*seed=*/7);
  std::vector<Row> rows;
  for (StrategyKind strategy : kAllStrategies) {
    for (QueryShape shape : kAllShapes) {
      Row row = RunOne(db, strategy, shape, cfg);
      std::fprintf(stderr, "%-3s %-20s %10.0f tuples/s  %6llu alloc  %8llu reused\n",
                   row.strategy.c_str(), row.shape.c_str(),
                   row.tuples_per_sec,
                   static_cast<unsigned long long>(row.buffers_allocated),
                   static_cast<unsigned long long>(row.buffers_reused));
      rows.push_back(std::move(row));
    }
  }

  FILE* f = std::fopen(cfg.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", cfg.out.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"config\": {\"relations\": %d, \"cardinality\": %u, "
               "\"processors\": %u, \"batch_size\": %u, \"reps\": %d, "
               "\"smoke\": %s},\n  \"results\": [\n",
               cfg.relations, cfg.cardinality, cfg.processors, cfg.batch_size,
               cfg.reps, cfg.smoke ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"strategy\": \"%s\", \"shape\": \"%s\", "
        "\"best_wall_seconds\": %.6f, \"tuples_moved\": %llu, "
        "\"tuples_per_sec\": %.0f, \"batches_sent\": %llu, "
        "\"buffers_allocated\": %llu, \"buffers_reused\": %llu, "
        "\"allocs_per_million_tuples\": %.2f}%s\n",
        r.strategy.c_str(), r.shape.c_str(), r.best_wall,
        static_cast<unsigned long long>(r.tuples_moved), r.tuples_per_sec,
        static_cast<unsigned long long>(r.batches_sent),
        static_cast<unsigned long long>(r.buffers_allocated),
        static_cast<unsigned long long>(r.buffers_reused),
        r.allocs_per_million_tuples, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", cfg.out.c_str());
  return 0;
}

}  // namespace
}  // namespace mjoin

int main(int argc, char** argv) { return mjoin::Main(argc, argv); }
