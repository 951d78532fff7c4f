#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "engine/database.h"
#include "engine/process_executor.h"
#include "engine/sim_executor.h"
#include "engine/thread_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

// Cross-backend accounting parity: all three executors host operator
// instances in the same operation-process runtime, so with the skew
// defense off and no faults they must count the same tuples into and out
// of every operation. Each backend's QueryResult per-op stats — the
// simulator's, the thread backend's, and the process backend's merged
// per-worker reports (shm plane) — are compared op by op.

struct Case {
  StrategyKind strategy;
  QueryShape shape;
};

std::string CaseName(const testing::TestParamInfo<Case>& info) {
  std::string shape = ShapeName(info.param.shape);
  for (char& c : shape) {
    if (c == ' ') c = '_';
  }
  return StrategyName(info.param.strategy) + "_" + shape;
}

class BackendParityTest : public testing::TestWithParam<Case> {};

TEST_P(BackendParityTest, PerOpCountersAgree) {
  constexpr int kRelations = 5;
  constexpr uint32_t kCardinality = 400;
  constexpr uint32_t kProcessors = 8;

  Database db = MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/7);
  auto query =
      MakeWisconsinChainQuery(GetParam().shape, kRelations, kCardinality);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(GetParam().strategy)
                  ->Parallelize(*query, kProcessors, TotalCostModel());
  ASSERT_TRUE(plan.ok()) << plan.status();

  SimExecutor sim(&db);
  auto sim_run = sim.Execute(*plan, SimExecOptions());
  ASSERT_TRUE(sim_run.ok()) << sim_run.status();

  ThreadExecOptions thread_options;
  thread_options.collect_metrics = true;
  ThreadExecutor threads(&db);
  auto thread_run = threads.Execute(*plan, thread_options);
  ASSERT_TRUE(thread_run.ok()) << thread_run.status();

  ProcessExecOptions process_options;
  process_options.exec.collect_metrics = true;
  process_options.num_workers = 3;
  ProcessExecutor processes(&db);
  auto process_run = processes.Execute(*plan, process_options);
  ASSERT_TRUE(process_run.ok()) << process_run.status();

  // The sim fills per_op always; the real backends because
  // collect_metrics is set. Every backend is held to the same fields.
  const std::pair<const char*, const QueryResult*> runs[] = {
      {"sim", &*sim_run},
      {"thread", &*thread_run},
      {"process", &process_run->exec}};
  for (const auto& [backend, run] : runs) {
    const std::vector<QueryOpStats>& ops = run->stats.per_op;
    ASSERT_EQ(ops.size(), plan->ops.size()) << backend;
    for (size_t i = 0; i < plan->ops.size(); ++i) {
      const OpMetrics& m = ops[i].metrics;
      const OpMetrics& t = thread_run->stats.per_op[i].metrics;
      const std::string& label = plan->ops[i].label;
      EXPECT_EQ(m.rows_in[0] + m.rows_in[1], t.rows_in[0] + t.rows_in[1])
          << backend << " " << label;
      EXPECT_EQ(m.rows_out, t.rows_out) << backend << " " << label;
      EXPECT_EQ(ops[i].instances, plan->ops[i].processors.size())
          << backend << " " << label;
    }
  }
}

// Each callback's time lands in one phase bucket and one trace segment:
// a callback that runs a colocated consumer inline, or copies a batch
// onto a ring, is paused meanwhile. So no trace lane holds two segments
// that overlap, on either wall-clock backend — nor on the simulator,
// whose nodes run one task at a time and record into the same trace.
TEST_P(BackendParityTest, TraceLanesNeverOverlap) {
  constexpr int kRelations = 5;
  constexpr uint32_t kCardinality = 400;
  Database db = MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/7);
  auto query =
      MakeWisconsinChainQuery(GetParam().shape, kRelations, kCardinality);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(GetParam().strategy)
                  ->Parallelize(*query, /*processors=*/8, TotalCostModel());
  ASSERT_TRUE(plan.ok()) << plan.status();

  ThreadExecOptions thread_options;
  thread_options.collect_metrics = true;
  thread_options.record_trace = true;
  // Small batches fill mid-callback, so flushes run nested inside them.
  thread_options.batch_size = 16;
  auto thread_run = ThreadExecutor(&db).Execute(*plan, thread_options);
  ASSERT_TRUE(thread_run.ok()) << thread_run.status();
  ProcessExecOptions process_options;
  process_options.exec = thread_options;
  process_options.num_workers = 3;
  auto process_run = ProcessExecutor(&db).Execute(*plan, process_options);
  ASSERT_TRUE(process_run.ok()) << process_run.status();
  SimExecOptions sim_options;
  sim_options.record_trace = true;
  auto sim_run = SimExecutor(&db).Execute(*plan, sim_options);
  ASSERT_TRUE(sim_run.ok()) << sim_run.status();

  for (const auto& trace :
       {thread_run->trace, process_run->exec.trace, sim_run->trace}) {
    ASSERT_NE(trace, nullptr);
    EXPECT_GT(trace->num_events(), 0u);
    for (std::vector<ThreadTraceEvent> lane : trace->events_by_worker()) {
      std::sort(lane.begin(), lane.end(),
                [](const ThreadTraceEvent& a, const ThreadTraceEvent& b) {
                  return a.start_ns < b.start_ns;
                });
      for (size_t e = 1; e < lane.size(); ++e) {
        EXPECT_GE(lane[e].start_ns, lane[e - 1].end_ns)
            << ThreadWorkTypeName(lane[e].type) << " inside "
            << ThreadWorkTypeName(lane[e - 1].type);
      }
    }
  }
}

// The thread and process backends publish one backend family through one
// publisher: the process.* names of a query are its thread.* names with
// the prefix swapped, plus the process backend's recovery counters. Each
// trace names the backend that recorded it.
TEST(BackendMetricsTest, ProcessNamesMirrorThreadNames) {
  Database db = MakeWisconsinDatabase(3, 200, /*seed=*/7);
  auto query = MakeWisconsinChainQuery(QueryShape::kWideBushy, 3, 200);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kFP)
                  ->Parallelize(*query, /*processors=*/4, TotalCostModel());
  ASSERT_TRUE(plan.ok()) << plan.status();

  MetricsRegistry thread_registry;
  ThreadExecOptions thread_options;
  thread_options.record_trace = true;
  thread_options.metrics_registry = &thread_registry;
  auto thread_run = ThreadExecutor(&db).Execute(*plan, thread_options);
  ASSERT_TRUE(thread_run.ok()) << thread_run.status();

  MetricsRegistry process_registry;
  ProcessExecOptions process_options;
  process_options.exec = thread_options;
  process_options.exec.metrics_registry = &process_registry;
  process_options.num_workers = 2;
  auto process_run = ProcessExecutor(&db).Execute(*plan, process_options);
  ASSERT_TRUE(process_run.ok()) << process_run.status();

  // Names under `prefix`, with the prefix stripped.
  auto names = [](const MetricsRegistry& registry, const std::string& prefix) {
    MetricsSnapshot snap = registry.Snapshot();
    std::set<std::string> out;
    auto add = [&](const auto& family) {
      for (const auto& [name, value] : family) {
        if (name.rfind(prefix, 0) == 0) out.insert(name.substr(prefix.size()));
      }
    };
    add(snap.counters);
    add(snap.gauges);
    add(snap.histograms);
    return out;
  };
  std::set<std::string> thread_names = names(thread_registry, "thread.");
  std::set<std::string> process_names = names(process_registry, "process.");
  for (const char* recovery :
       {"attempts", "retries", "hung_workers_killed", "worker_failures"}) {
    EXPECT_EQ(process_names.erase(recovery), 1u) << recovery;
  }
  EXPECT_FALSE(thread_names.empty());
  EXPECT_EQ(process_names, thread_names);

  EXPECT_NE(thread_run->trace->ToChromeJson().find("mjoin thread backend"),
            std::string::npos);
  EXPECT_NE(
      process_run->exec.trace->ToChromeJson().find("mjoin process backend"),
      std::string::npos);
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (StrategyKind strategy : kAllStrategies) {
    for (QueryShape shape : kAllShapes) {
      cases.push_back({strategy, shape});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStrategiesAllShapes, BackendParityTest,
                         testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace mjoin
