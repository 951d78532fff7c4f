// Resilience tests for the threaded backend: every fault scenario must end
// with a clean Status, all worker threads joined, and — when the fault does
// not change the data — reference-identical results.
#include <gtest/gtest.h>

#include <sys/types.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "engine/database.h"
#include "engine/fault_injector.h"
#include "engine/reference.h"
#include "engine/thread_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

/// Tids of this process's tasks (Linux); empty where unsupported.
std::set<pid_t> ThreadIds() {
  std::set<pid_t> tids;
#ifdef __linux__
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    tids.insert(static_cast<pid_t>(std::stol(entry.path().filename())));
  }
#endif
  return tids;
}

/// Tasks listed now that were not listed in `before` and are not exiting,
/// as "tid state flags". pthread_join returns once the kernel clears the
/// thread's tid, which happens inside do_exit, after PF_EXITING is set and
/// before the task leaves /proc/self/task; such a task (or one already in
/// state X or Z, or already gone) is not a leak. A thread that is still
/// running user code has no PF_EXITING and fails at once; there is no
/// grace period.
std::vector<std::string> LeakedThreads(const std::set<pid_t>& before) {
  constexpr unsigned long kPfExiting = 0x4;  // include/linux/sched.h
  std::vector<std::string> leaked;
  for (pid_t tid : ThreadIds()) {
    if (before.count(tid) != 0) continue;
    std::ifstream stat("/proc/self/task/" + std::to_string(tid) + "/stat");
    std::string line;
    if (!std::getline(stat, line)) continue;  // already reaped
    // "tid (comm) state ppid pgrp session tty tpgid flags ...": the fields
    // after the last ')' start with the state; flags is the seventh.
    std::istringstream fields(line.substr(line.rfind(')') + 1));
    std::string state, skip;
    unsigned long flags = 0;
    fields >> state >> skip >> skip >> skip >> skip >> skip >> flags;
    if (state == "X" || state == "Z" || (flags & kPfExiting) != 0) continue;
    leaked.push_back(StrCat(tid, " ", state, " flags=", flags));
  }
  return leaked;
}

/// A small Wisconsin chain plus everything needed to execute and verify it.
struct QuerySetup {
  Database db;
  ParallelPlan plan;
  ResultSummary reference;
};

QuerySetup MakeSetup(StrategyKind strategy,
                QueryShape shape = QueryShape::kWideBushy, int relations = 5,
                uint32_t card = 300, uint32_t procs = 8) {
  QuerySetup setup{MakeWisconsinDatabase(relations, card, /*seed=*/7), {}, {}};
  auto query = MakeWisconsinChainQuery(shape, relations, card);
  EXPECT_TRUE(query.ok());
  auto reference = ReferenceSummary(*query, setup.db);
  EXPECT_TRUE(reference.ok());
  setup.reference = *reference;
  auto plan =
      MakeStrategy(strategy)->Parallelize(*query, procs, TotalCostModel());
  EXPECT_TRUE(plan.ok()) << plan.status();
  setup.plan = *std::move(plan);
  return setup;
}

int FirstJoinOp(const ParallelPlan& plan) {
  for (const XraOp& o : plan.ops) {
    if (o.is_join()) return o.id;
  }
  return -1;
}

class FaultScenarioTest : public testing::TestWithParam<StrategyKind> {};

std::string StratName(const testing::TestParamInfo<StrategyKind>& info) {
  return StrategyName(info.param);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, FaultScenarioTest,
                         testing::ValuesIn(kAllStrategies), StratName);

// Control run: no fault, but backpressure and budget tracking on. Results
// must match the reference engine exactly and stats must be populated.
TEST_P(FaultScenarioTest, NoFaultControlMatchesReference) {
  QuerySetup setup = MakeSetup(GetParam());
  ThreadExecutor executor(&setup.db);
  ThreadExecOptions options;
  options.batch_size = 32;
  options.max_queued_batches = 4;

  const std::set<pid_t> threads_before = ThreadIds();
  auto run = executor.Execute(setup.plan, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(LeakedThreads(threads_before), std::vector<std::string>{});

  EXPECT_EQ(run->result.cardinality, setup.reference.cardinality);
  EXPECT_EQ(run->result.checksum, setup.reference.checksum);
  EXPECT_GT(run->stats.batches_sent, 0u);
  EXPECT_GT(run->stats.batches_processed, 0u);
  EXPECT_GT(run->stats.peak_memory_bytes, 0u);
  EXPECT_EQ(run->stats.batches_dropped, 0u);
  EXPECT_EQ(run->stats.batches_duplicated, 0u);
}

// A slow worker delays every message on node 0. The query slows down but
// completes with the right answer — pipelining tolerates stragglers.
TEST_P(FaultScenarioTest, SlowWorkerStillCorrect) {
  QuerySetup setup = MakeSetup(GetParam());
  FaultScenario scenario;
  scenario.kind = FaultKind::kSlowWorker;
  scenario.node = 0;
  scenario.delay = std::chrono::microseconds(200);
  FaultInjector injector(scenario);

  ThreadExecutor executor(&setup.db);
  ThreadExecOptions options;
  options.max_queued_batches = 4;
  options.fault_injector = &injector;

  const std::set<pid_t> threads_before = ThreadIds();
  auto run = executor.Execute(setup.plan, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(LeakedThreads(threads_before), std::vector<std::string>{});
  EXPECT_EQ(run->result.cardinality, setup.reference.cardinality);
  EXPECT_EQ(run->result.checksum, setup.reference.checksum);
  EXPECT_GT(injector.faults_injected(), 0u);
}

// A join fails mid-stream. The injected status must surface verbatim and
// teardown must join every worker even with batches still in flight.
TEST_P(FaultScenarioTest, OperatorFailureAbortsCleanly) {
  QuerySetup setup = MakeSetup(GetParam());
  FaultScenario scenario;
  scenario.kind = FaultKind::kFailOperator;
  scenario.op = FirstJoinOp(setup.plan);
  scenario.after_batches = 1;
  FaultInjector injector(scenario);

  ThreadExecutor executor(&setup.db);
  ThreadExecOptions options;
  options.batch_size = 32;
  options.fault_injector = &injector;

  const std::set<pid_t> threads_before = ThreadIds();
  QueryStats stats;
  auto run = executor.Execute(setup.plan, options, &stats);
  EXPECT_EQ(LeakedThreads(threads_before), std::vector<std::string>{});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
  EXPECT_NE(run.status().message().find("injected fault"), std::string::npos);
  // Partial progress is still reported for diagnosis.
  EXPECT_GT(stats.batches_processed, 0u);
}

// A budget far below the working set: the query must return
// ResourceExhausted instead of OOM-ing, with threads joined.
TEST_P(FaultScenarioTest, TightMemoryBudgetAborts) {
  QuerySetup setup = MakeSetup(GetParam());
  ThreadExecutor executor(&setup.db);
  ThreadExecOptions options;
  options.memory_budget_bytes = 4096;

  const std::set<pid_t> threads_before = ThreadIds();
  QueryStats stats;
  auto run = executor.Execute(setup.plan, options, &stats);
  EXPECT_EQ(LeakedThreads(threads_before), std::vector<std::string>{});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(stats.peak_memory_bytes, 0u);
}

// A zero or negative deadline is a caller bug, not an expired query:
// Execute() rejects it up front with kInvalidArgument before any worker
// thread starts.
TEST_P(FaultScenarioTest, NonPositiveDeadlineRejected) {
  QuerySetup setup = MakeSetup(GetParam());
  ThreadExecutor executor(&setup.db);
  ThreadExecOptions options;

  const std::set<pid_t> threads_before = ThreadIds();
  for (auto bad : {std::chrono::milliseconds(0), std::chrono::milliseconds(-5)}) {
    options.deadline = bad;
    auto run = executor.Execute(setup.plan, options);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(LeakedThreads(threads_before), std::vector<std::string>{});
}

// A deadline that expires mid-run (a slow worker keeps the query alive past
// it): workers must be torn down cleanly and the status is
// kDeadlineExceeded.
TEST_P(FaultScenarioTest, TinyDeadlineExpires) {
  QuerySetup setup = MakeSetup(GetParam());
  FaultScenario scenario;
  scenario.kind = FaultKind::kSlowWorker;
  scenario.node = 0;
  scenario.delay = std::chrono::milliseconds(50);
  FaultInjector injector(scenario);

  ThreadExecutor executor(&setup.db);
  ThreadExecOptions options;
  options.fault_injector = &injector;
  options.deadline = std::chrono::milliseconds(1);

  const std::set<pid_t> threads_before = ThreadIds();
  auto run = executor.Execute(setup.plan, options);
  EXPECT_EQ(LeakedThreads(threads_before), std::vector<std::string>{});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
}

// Cancellation fired from another thread mid-run (a slow worker keeps the
// query alive long enough for the cancel to land mid-flight).
TEST_P(FaultScenarioTest, CancellationMidRun) {
  QuerySetup setup = MakeSetup(GetParam());
  FaultScenario scenario;
  scenario.kind = FaultKind::kSlowWorker;
  scenario.node = 0;
  scenario.delay = std::chrono::milliseconds(20);
  FaultInjector injector(scenario);

  ThreadExecutor executor(&setup.db);
  ThreadExecOptions options;
  options.fault_injector = &injector;
  CancellationToken token = options.cancellation;

  const std::set<pid_t> threads_before = ThreadIds();
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.Cancel();
  });
  auto run = executor.Execute(setup.plan, options);
  canceller.join();
  EXPECT_EQ(LeakedThreads(threads_before), std::vector<std::string>{});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
}

TEST(FaultScenarioEdgeTest, PreCancelledTokenNeverRuns) {
  QuerySetup setup = MakeSetup(StrategyKind::kFP);
  ThreadExecutor executor(&setup.db);
  ThreadExecOptions options;
  options.cancellation.Cancel();
  auto run = executor.Execute(setup.plan, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
}

// Acceptance: FP on the right-linear shape with max_queued_batches = 4
// completes with bounded queues and an unchanged result.
TEST(BackpressureTest, FpRightLinearBoundedQueueDepth) {
  QuerySetup setup = MakeSetup(StrategyKind::kFP, QueryShape::kRightLinear,
                          /*relations=*/5, /*card=*/400, /*procs=*/8);
  ThreadExecutor executor(&setup.db);
  ThreadExecOptions options;
  options.batch_size = 16;  // many batches so the bound actually engages
  options.max_queued_batches = 4;

  auto run = executor.Execute(setup.plan, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->result.cardinality, setup.reference.cardinality);
  EXPECT_EQ(run->result.checksum, setup.reference.checksum);
  EXPECT_GT(run->stats.batches_sent, 0u);
  EXPECT_EQ(run->stats.queue_overflows, 0u);
  // Cross-node producers block below the bound; same-node sends bypass it
  // (blocking there would self-deadlock), so allow that much slack on top.
  EXPECT_LE(run->stats.peak_queue_depth, 2 * options.max_queued_batches);
}

// Acceptance: a 1 MB budget on the 10-relation chain is not enough — the
// query returns ResourceExhausted (not a crash); lifting the budget yields
// the exact reference result.
TEST(MemoryBudgetAcceptanceTest, TenRelationChainUnderOneMegabyte) {
  QuerySetup setup = MakeSetup(StrategyKind::kFP, QueryShape::kWideBushy,
                          /*relations=*/10, /*card=*/5000, /*procs=*/16);
  ThreadExecutor executor(&setup.db);

  ThreadExecOptions limited;
  limited.memory_budget_bytes = 1 << 20;
  QueryStats stats;
  auto starved = executor.Execute(setup.plan, limited, &stats);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);

  ThreadExecOptions unlimited;
  auto run = executor.Execute(setup.plan, unlimited);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->result.cardinality, setup.reference.cardinality);
  EXPECT_EQ(run->result.checksum, setup.reference.checksum);
  // The unlimited run must actually need more than the 1 MB that starved.
  EXPECT_GT(run->stats.peak_memory_bytes, size_t{1} << 20);
}

// Lossy interconnect: dropped batches lose rows but execution still
// terminates cleanly (end-of-stream is per-producer, not per-batch).
TEST(FaultScenarioEdgeTest, DroppedBatchesStillTerminate) {
  QuerySetup setup = MakeSetup(StrategyKind::kSP);
  FaultScenario scenario;
  scenario.kind = FaultKind::kDropBatch;
  scenario.probability = 0.5;
  scenario.seed = 11;
  FaultInjector injector(scenario);

  ThreadExecutor executor(&setup.db);
  ThreadExecOptions options;
  options.batch_size = 32;
  options.fault_injector = &injector;
  auto run = executor.Execute(setup.plan, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(run->stats.batches_dropped, 0u);
  EXPECT_LT(run->result.cardinality, setup.reference.cardinality);
}

TEST(FaultScenarioEdgeTest, DuplicatedBatchesStillTerminate) {
  QuerySetup setup = MakeSetup(StrategyKind::kSP);
  FaultScenario scenario;
  scenario.kind = FaultKind::kDuplicateBatch;
  scenario.probability = 0.5;
  scenario.seed = 13;
  FaultInjector injector(scenario);

  ThreadExecutor executor(&setup.db);
  ThreadExecOptions options;
  options.batch_size = 32;
  options.fault_injector = &injector;
  auto run = executor.Execute(setup.plan, options);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(run->stats.batches_duplicated, 0u);
  EXPECT_GT(run->result.cardinality, setup.reference.cardinality);
}

// Repeated aborts must not leak threads or corrupt later runs: interleave
// failing and succeeding executions on the same executor.
TEST(FaultScenarioEdgeTest, AbortThenReuseExecutor) {
  QuerySetup setup = MakeSetup(StrategyKind::kFP);
  ThreadExecutor executor(&setup.db);

  const std::set<pid_t> threads_before = ThreadIds();
  for (int i = 0; i < 3; ++i) {
    ThreadExecOptions starved;
    starved.memory_budget_bytes = 4096;
    auto bad = executor.Execute(setup.plan, starved);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kResourceExhausted);

    auto good = executor.Execute(setup.plan, ThreadExecOptions());
    ASSERT_TRUE(good.ok()) << good.status();
    EXPECT_EQ(good->result.cardinality, setup.reference.cardinality);
    EXPECT_EQ(good->result.checksum, setup.reference.checksum);
  }
  EXPECT_EQ(LeakedThreads(threads_before), std::vector<std::string>{});
}

}  // namespace
}  // namespace mjoin
