// Measures the wall-clock cost of the thread backend's observability
// layer on a Wisconsin chain query: baseline (metrics and tracing off)
// versus metrics collection versus metrics + trace recording. The
// disabled path must be free — the instrumentation reads no clock when
// both switches are off — so the "metrics off" column is the one that
// guards against observability tax creeping into every run.
//
// Runs standalone with no arguments; MJOIN_FAST=1 shrinks the workload.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/stats.h"
#include "engine/database.h"
#include "engine/thread_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

using namespace mjoin;

namespace {

struct Mode {
  const char* name;
  bool collect_metrics;
  bool record_trace;
};

double MedianSeconds(const ThreadExecutor& executor, const ParallelPlan& plan,
                     const Mode& mode, int reps) {
  ThreadExecOptions options;
  options.collect_metrics = mode.collect_metrics;
  options.record_trace = mode.record_trace;
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int rep = 0; rep < reps; ++rep) {
    auto run = executor.Execute(plan, options);
    if (!run.ok()) {
      std::fprintf(stderr, "FAILED: %s\n", run.status().ToString().c_str());
      std::exit(1);
    }
    samples.push_back(run->seconds);
  }
  // Median, not mean: thread scheduling makes the tail noisy.
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main() {
  bool fast = std::getenv("MJOIN_FAST") != nullptr;
  const uint32_t kCard = fast ? 2000 : 10000;
  const int kRelations = 10;
  // FP needs one processor per operation; 10 is the minimum for this plan.
  const uint32_t kProcs = 10;
  const int kReps = fast ? 5 : 9;

  auto query =
      MakeWisconsinChainQuery(QueryShape::kWideBushy, kRelations, kCard);
  if (!query.ok()) {
    std::fprintf(stderr, "FAILED: %s\n", query.status().ToString().c_str());
    return 1;
  }
  auto plan = MakeStrategy(StrategyKind::kFP)
                  ->Parallelize(*query, kProcs, TotalCostModel());
  if (!plan.ok()) {
    std::fprintf(stderr, "FAILED: %s\n", plan.status().ToString().c_str());
    return 1;
  }
  Database db = MakeWisconsinDatabase(kRelations, kCard, /*seed=*/1995);
  ThreadExecutor executor(&db);

  const Mode modes[] = {
      {"observability off", false, false},
      {"metrics", true, false},
      {"metrics + trace", true, true},
  };

  std::printf(
      "trace-overhead micro benchmark: FP, %d-relation wide-bushy chain, "
      "%u tuples/relation, %u threads, median of %d runs\n\n",
      kRelations, kCard, kProcs, kReps);

  // Warm up once (page-in the data, spin up the allocator arenas).
  MedianSeconds(executor, *plan, modes[0], 1);

  double baseline = 0;
  for (const Mode& mode : modes) {
    double median = MedianSeconds(executor, *plan, mode, kReps);
    if (baseline == 0) baseline = median;
    double overhead = (median / baseline - 1.0) * 100.0;
    std::printf("%-20s %8.3f ms   %+6.2f%% vs off\n", mode.name,
                median * 1e3, overhead);
  }
  std::printf(
      "\nthe disabled path reads no clock per batch; its delta from run to\n"
      "run is scheduler noise (re-run to confirm it straddles zero)\n");
  return 0;
}
