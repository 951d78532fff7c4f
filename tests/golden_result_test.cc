#include <gtest/gtest.h>

#include <algorithm>

#include "engine/database.h"
#include "engine/process_executor.h"
#include "engine/reference.h"
#include "engine/sim_executor.h"
#include "engine/thread_executor.h"
#include "plan/wisconsin_query.h"
#include "skew/defense.h"
#include "strategy/strategy.h"
#include "workload/workload.h"

namespace mjoin {
namespace {

// Golden-result harness: every executor backend must agree with the
// single-threaded reference on the result row multiset — cardinality and
// order-independent checksum — for every strategy on every tree shape.
// This is the end-to-end guard for the zero-copy hot path: a row that is
// dropped, duplicated, routed to the wrong fragment, or assembled with a
// column off by one shifts the checksum.

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

class GoldenResultTest : public testing::TestWithParam<Case> {};

TEST_P(GoldenResultTest, AllBackendsMatchReference) {
  constexpr int kRelations = 5;
  constexpr uint32_t kCardinality = 400;
  constexpr uint32_t kProcessors = 8;

  Database db = MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/7);
  auto query =
      MakeWisconsinChainQuery(GetParam().shape, kRelations, kCardinality);
  ASSERT_TRUE(query.ok());
  auto reference = ReferenceSummary(*query, db);
  ASSERT_TRUE(reference.ok());

  auto plan = MakeStrategy(GetParam().strategy)
                  ->Parallelize(*query, kProcessors, TotalCostModel());
  ASSERT_TRUE(plan.ok()) << plan.status();

  // Simulator backend.
  SimExecutor sim(&db);
  auto sim_run = sim.Execute(*plan, SimExecOptions());
  ASSERT_TRUE(sim_run.ok()) << sim_run.status();
  EXPECT_EQ(sim_run->result.cardinality, reference->cardinality);
  EXPECT_EQ(sim_run->result.checksum, reference->checksum);

  // Thread backend, at several batch sizes: 1 exercises the flush-per-row
  // edge, 7 leaves ragged tails in every pending batch, 256 is the
  // default fast path where pooled buffers get reused in steady state.
  ThreadExecutor threads(&db);
  for (uint32_t batch_size : {1u, 7u, 256u}) {
    ThreadExecOptions options;
    options.batch_size = batch_size;
    auto run = threads.Execute(*plan, options);
    ASSERT_TRUE(run.ok()) << run.status() << " batch_size=" << batch_size;
    EXPECT_EQ(run->result.cardinality, reference->cardinality)
        << "batch_size=" << batch_size;
    EXPECT_EQ(run->result.checksum, reference->checksum)
        << "batch_size=" << batch_size;
  }

  // Process backend, same batch sizes: every tuple that crosses a worker
  // boundary additionally round-trips the shm ring record format, and
  // every plan round-trips the textual XRA handshake. 3 workers for 8
  // processors makes the processor->worker blocks ragged (3+3+2),
  // exercising both local and remote deliveries on every shape. The runs
  // use deliberately tiny rings (4 KiB) so batches fragment into many
  // records and the full/backlog/pad machinery runs on every shape.
  ProcessExecutor processes(&db);
  for (uint32_t batch_size : {1u, 7u, 256u}) {
    ProcessExecOptions options;
    options.exec.batch_size = batch_size;
    options.num_workers = 3;
    options.shm_ring_bytes = 4096;
    ProcessNetStats net;
    auto run = processes.Execute(*plan, options, nullptr, &net);
    ASSERT_TRUE(run.ok()) << run.status() << " batch_size=" << batch_size;
    EXPECT_EQ(run->exec.result.cardinality, reference->cardinality)
        << "batch_size=" << batch_size;
    EXPECT_EQ(run->exec.result.checksum, reference->checksum)
        << "batch_size=" << batch_size;
    EXPECT_GT(net.shm_records_sent, 0u) << "batch_size=" << batch_size;
  }
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

INSTANTIATE_TEST_SUITE_P(AllStrategiesAllShapes, GoldenResultTest,
                         testing::ValuesIn(AllCases()), CaseName);

// Adversarial-workload golden harness: skewed, filtered, and m:n data
// across every strategy, with the skew defense off, on, and auto — the
// defense may move rows and prune sends, but the result multiset must be
// bit-identical across every backend.

struct WorkloadCase {
  StrategyKind strategy;
  const char* preset;
};

std::string WorkloadCaseName(
    const testing::TestParamInfo<WorkloadCase>& info) {
  std::string preset = info.param.preset;
  for (char& c : preset) {
    if (c == '-') c = '_';
  }
  return StrategyName(info.param.strategy) + "_" + preset;
}

class WorkloadGoldenResultTest
    : public testing::TestWithParam<WorkloadCase> {};

TEST_P(WorkloadGoldenResultTest, DefenseOnMatchesDefenseOffEverywhere) {
  auto spec = WorkloadPreset(GetParam().preset);
  ASSERT_TRUE(spec.ok());
  // Test-sized: keeps the skewed chains' outputs small while the hot key
  // still clears the lowered min_hot_count below.
  spec->cardinality = std::min(spec->cardinality, 600u);
  auto db = MakeWorkloadDatabase(*spec);
  ASSERT_TRUE(db.ok());
  // Right-linear feeds every intermediate result into the next join's
  // probe slot over a hash-split edge — the exact edge the defense
  // reroutes and prunes — so defense-on runs here exercise the full
  // directive machinery, not just the no-defended-joins fast path.
  auto query = MakeWisconsinChainQuery(QueryShape::kRightLinear,
                                       spec->num_relations,
                                       spec->cardinality);
  ASSERT_TRUE(query.ok());
  auto reference = ReferenceSummary(*query, *db);
  ASSERT_TRUE(reference.ok());

  auto plan = MakeStrategy(GetParam().strategy)
                  ->Parallelize(*query, 8, TotalCostModel());
  ASSERT_TRUE(plan.ok()) << plan.status();

  SimExecutor sim(&*db);
  auto sim_run = sim.Execute(*plan, SimExecOptions());
  ASSERT_TRUE(sim_run.ok()) << sim_run.status();
  EXPECT_EQ(sim_run->result.cardinality, reference->cardinality);
  EXPECT_EQ(sim_run->result.checksum, reference->checksum);

  for (SkewDefenseMode mode :
       {SkewDefenseMode::kOff, SkewDefenseMode::kOn,
        SkewDefenseMode::kAuto}) {
    ThreadExecOptions options;
    options.skew_defense.mode = mode;
    // Test-sized thresholds: the presets' hot keys hold tens of rows, so
    // the defaults (tuned for bench-scale data) would never fire here.
    options.skew_defense.min_hot_count = 16;
    options.skew_defense.hot_fraction = 0.25;

    ThreadExecutor threads(&*db);
    auto thread_run = threads.Execute(*plan, options);
    ASSERT_TRUE(thread_run.ok())
        << thread_run.status() << " " << SkewDefenseModeName(mode);
    EXPECT_EQ(thread_run->result.cardinality, reference->cardinality)
        << SkewDefenseModeName(mode);
    EXPECT_EQ(thread_run->result.checksum, reference->checksum)
        << SkewDefenseModeName(mode);

    ProcessExecutor processes(&*db);
    ProcessExecOptions process_options;
    process_options.exec = options;
    process_options.num_workers = 3;
    process_options.shm_ring_bytes = 4096;
    auto run = processes.Execute(*plan, process_options);
    ASSERT_TRUE(run.ok()) << run.status() << " "
                          << SkewDefenseModeName(mode);
    EXPECT_EQ(run->exec.result.cardinality, reference->cardinality)
        << SkewDefenseModeName(mode);
    EXPECT_EQ(run->exec.result.checksum, reference->checksum)
        << SkewDefenseModeName(mode);
  }
}

std::vector<WorkloadCase> AllWorkloadCases() {
  std::vector<WorkloadCase> cases;
  for (StrategyKind strategy : kAllStrategies) {
    for (const char* preset : {"zipf1", "zipf1-mn", "filtered",
                               "adversarial"}) {
      cases.push_back({strategy, preset});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStrategiesAllWorkloads,
                         WorkloadGoldenResultTest,
                         testing::ValuesIn(AllWorkloadCases()),
                         WorkloadCaseName);

}  // namespace
}  // namespace mjoin
