#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "common/string_util.h"
#include "engine/controller.h"
#include "engine/database.h"
#include "engine/experiment.h"
#include "engine/process_protocol.h"
#include "engine/reference.h"
#include "engine/result.h"
#include "engine/sim_executor.h"
#include "storage/partitioner.h"
#include "plan/wisconsin_query.h"
#include "storage/wisconsin.h"
#include "strategy/strategy.h"

namespace mjoin {
namespace {

// --- Database -----------------------------------------------------------------

TEST(DatabaseTest, AddGetAndDuplicates) {
  Database db;
  ASSERT_TRUE(db.Add("r", GenerateWisconsin(10, 1)).ok());
  EXPECT_EQ(db.Add("r", GenerateWisconsin(10, 2)).code(),
            StatusCode::kAlreadyExists);
  auto rel = db.Get("r");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->num_tuples(), 10u);
  EXPECT_EQ(db.Get("missing").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(db.Contains("r"));
  EXPECT_EQ(db.size(), 1u);
}

// The version stamp a worker fleet checks: it moves on every successful
// Add and every move, never on a failed Add, and no two databases share
// one.
TEST(DatabaseTest, VersionStampMovesWithEveryChange) {
  Database db;
  Database other;
  EXPECT_NE(db.version(), other.version());
  uint64_t v = db.version();
  ASSERT_TRUE(db.Add("r", GenerateWisconsin(10, 1)).ok());
  EXPECT_NE(db.version(), v);
  v = db.version();
  EXPECT_FALSE(db.Add("r", GenerateWisconsin(10, 2)).ok());
  EXPECT_EQ(db.version(), v);
  // Both sides of a move hold different relations than before.
  other = std::move(db);
  const uint64_t source = db.version();  // NOLINT(bugprone-use-after-move)
  EXPECT_NE(other.version(), v);
  EXPECT_NE(source, v);
  EXPECT_NE(source, other.version());
  const uint64_t assigned = other.version();
  Database moved(std::move(other));
  EXPECT_TRUE(moved.Contains("r"));
  EXPECT_NE(moved.version(), assigned);
  EXPECT_NE(other.version(), assigned);  // NOLINT(bugprone-use-after-move)
}

TEST(DatabaseTest, WisconsinDatabaseHasIndependentRelations) {
  Database db = MakeWisconsinDatabase(3, 100, 5);
  EXPECT_EQ(db.size(), 3u);
  auto r0 = db.Get("rel0");
  auto r1 = db.Get("rel1");
  ASSERT_TRUE(r0.ok() && r1.ok());
  bool differs = false;
  for (size_t i = 0; i < 100; ++i) {
    differs |= (*r0)->tuple(i).GetInt32(kUnique1) !=
               (*r1)->tuple(i).GetInt32(kUnique1);
  }
  EXPECT_TRUE(differs);
  EXPECT_EQ(db.TotalBytes(), 3u * 100u * 208u);
}

// --- ResultSummary -------------------------------------------------------------

TEST(ResultTest, ChecksumIsOrderInsensitive) {
  Relation rel = GenerateWisconsin(100, 3);
  // Partition and summarize fragments vs the whole relation.
  auto parts = HashPartition(rel, kUnique1, 7);
  ASSERT_TRUE(parts.ok());
  ResultSummary fragments;
  for (const Relation& part : *parts) fragments += SummarizeRelation(part);
  EXPECT_EQ(SummarizeRelation(rel), fragments);
}

TEST(ResultTest, ChecksumDetectsContentChanges) {
  Relation a = GenerateWisconsin(100, 3);
  Relation b = GenerateWisconsin(100, 4);
  EXPECT_FALSE(SummarizeRelation(a) == SummarizeRelation(b));
  EXPECT_EQ(SummarizeRelation(a).cardinality, 100u);
}

TEST(ResultTest, HashRowBytesSensitiveToEveryByte) {
  std::vector<std::byte> row(16, std::byte{0});
  uint64_t base = HashRowBytes(row.data(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    std::vector<std::byte> tweaked = row;
    tweaked[i] = std::byte{1};
    EXPECT_NE(HashRowBytes(tweaked.data(), tweaked.size()), base)
        << "byte " << i;
  }
}

// The checksum definition, written out byte by byte: 64-bit FNV-1a of the
// row, finalized with Mix64, summed mod 2^64. Every backend's result is
// compared against the reference's through this sum, so any faster path
// must stay bit-identical to it.
uint64_t SerialRowHash(const std::byte* row, size_t size) {
  uint64_t hash = 1469598103934665603ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= std::to_integer<uint64_t>(row[i]);
    hash *= 1099511628211ULL;
  }
  return Mix64(hash);
}

// Row bytes that differ in every position and every row.
std::vector<std::byte> PatternRows(size_t num_rows, size_t row_size,
                                   uint64_t seed) {
  std::vector<std::byte> bytes(num_rows * row_size);
  uint64_t state = seed;
  for (std::byte& b : bytes) b = static_cast<std::byte>(SplitMix64(&state));
  return bytes;
}

// Literal values of the definition, taken from the byte-serial code.
TEST(ResultTest, HashRowBytesPinned) {
  std::vector<std::byte> row(208);
  for (size_t i = 0; i < row.size(); ++i) {
    row[i] = static_cast<std::byte>(i * 37 + 11);
  }
  EXPECT_EQ(HashRowBytes(row.data(), row.size()), 17081717329614897887ULL);
  EXPECT_EQ(HashRowBytes(row.data(), 1), 389589691717209123ULL);
  EXPECT_EQ(HashRowBytes(row.data(), 0), 5665620140241705579ULL);
}

TEST(ResultTest, WisconsinSummaryPinned) {
  ResultSummary summary = SummarizeRelation(GenerateWisconsin(5000, 9));
  EXPECT_EQ(summary.cardinality, 5000u);
  EXPECT_EQ(summary.checksum, 17952664566432385664ULL);
}

// Widths 1-64, 208 and 212 and row counts 0-9 and 1001: every remainder of
// a multi-row step, on rows narrower and wider than a word, through a
// relation and from an unaligned base.
TEST(ResultTest, SummaryMatchesSerialDefinition) {
  std::vector<uint32_t> widths;
  for (uint32_t w = 1; w <= 64; ++w) widths.push_back(w);
  widths.push_back(208);
  widths.push_back(212);
  const size_t counts[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1001};
  for (uint32_t width : widths) {
    Schema schema({Column::FixedString("s", width)});
    for (size_t count : counts) {
      std::vector<std::byte> bytes =
          PatternRows(count, width, width * 131 + count);
      ResultSummary expected;
      for (size_t r = 0; r < count; ++r) {
        expected.checksum += SerialRowHash(bytes.data() + r * width, width);
        ++expected.cardinality;
      }
      Relation rel(schema);
      rel.AppendRows(bytes.data(), count);
      EXPECT_EQ(SummarizeRelation(rel), expected)
          << "width " << width << " rows " << count;
      std::vector<std::byte> shifted(bytes.size() + 1);
      std::copy(bytes.begin(), bytes.end(), shifted.begin() + 1);
      EXPECT_EQ(SumRowHashes(shifted.data() + 1, count, width),
                expected.checksum)
          << "unaligned, width " << width << " rows " << count;
    }
  }
}

// --- QueryController ------------------------------------------------------------

ParallelPlan TwoGroupPlan() {
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 3, 50);
  MJOIN_CHECK(query.ok());
  auto plan = MakeStrategy(StrategyKind::kSP)
                  ->Parallelize(*query, 4, TotalCostModel());
  MJOIN_CHECK(plan.ok());
  return *std::move(plan);
}

TEST(ControllerTest, GroupsFireWhenDepsComplete) {
  ParallelPlan plan = TwoGroupPlan();
  QueryController controller(&plan);
  std::vector<int> initial = controller.TakeInitialGroups();
  ASSERT_FALSE(initial.empty());
  EXPECT_EQ(initial[0], 0);
  // Initial groups are only reported once.
  EXPECT_TRUE(controller.TakeInitialGroups().empty());
  EXPECT_FALSE(controller.AllOpsComplete());

  // Completing all instances of all ops fires every group exactly once and
  // ends the query.
  std::set<int> fired(initial.begin(), initial.end());
  for (const XraOp& op : plan.ops) {
    for (uint32_t i = 0; i < op.processors.size(); ++i) {
      if (op.kind == XraOpKind::kSimpleHashJoin) {
        for (int g :
             controller.OnInstanceMilestone(op.id, i, Milestone::kBuildDone)) {
          EXPECT_TRUE(fired.insert(g).second);
        }
      }
      for (int g :
           controller.OnInstanceMilestone(op.id, i, Milestone::kComplete)) {
        EXPECT_TRUE(fired.insert(g).second);
      }
    }
  }
  EXPECT_TRUE(controller.AllOpsComplete());
  EXPECT_EQ(fired.size(), plan.groups.size());
}

TEST(ControllerTest, OpMilestoneNeedsAllInstances) {
  ParallelPlan plan = TwoGroupPlan();
  QueryController controller(&plan);
  controller.TakeInitialGroups();
  int op = plan.groups[0].ops[0];
  uint32_t instances =
      static_cast<uint32_t>(plan.ops[static_cast<size_t>(op)].processors.size());
  ASSERT_GT(instances, 1u);
  for (uint32_t i = 0; i + 1 < instances; ++i) {
    controller.OnInstanceMilestone(op, i, Milestone::kComplete);
    EXPECT_FALSE(controller.OpMilestoneFired(op, Milestone::kComplete));
  }
  controller.OnInstanceMilestone(op, instances - 1, Milestone::kComplete);
  EXPECT_TRUE(controller.OpMilestoneFired(op, Milestone::kComplete));
}

// --- Reference executor -----------------------------------------------------------

TEST(ReferenceTest, ChainQueryIsOneToOne) {
  Database db = MakeWisconsinDatabase(4, 300, 9);
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 4, 300);
  ASSERT_TRUE(query.ok());
  auto result = ExecuteReference(*query, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_tuples(), 300u);
  EXPECT_EQ(result->schema().tuple_size(), 208u);
}

TEST(ReferenceTest, ShapeChangesContentButNotCardinality) {
  Database db = MakeWisconsinDatabase(6, 200, 21);
  auto linear = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 6, 200);
  auto bushy = MakeWisconsinChainQuery(QueryShape::kWideBushy, 6, 200);
  ASSERT_TRUE(linear.ok() && bushy.ok());
  auto a = ReferenceSummary(*linear, db);
  auto b = ReferenceSummary(*bushy, db);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->cardinality, 200u);
  EXPECT_EQ(b->cardinality, 200u);
  // Different shapes project different operands: contents differ.
  EXPECT_NE(a->checksum, b->checksum);
}

// --- SimExecutor properties -----------------------------------------------------

TEST(SimExecutorTest, DeterministicAcrossRuns) {
  Database db = MakeWisconsinDatabase(5, 400, 33);
  auto query = MakeWisconsinChainQuery(QueryShape::kRightOrientedBushy, 5,
                                       400);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kFP)
                  ->Parallelize(*query, 8, TotalCostModel());
  ASSERT_TRUE(plan.ok());
  SimExecutor executor(&db);
  auto run1 = executor.Execute(*plan, SimExecOptions());
  auto run2 = executor.Execute(*plan, SimExecOptions());
  ASSERT_TRUE(run1.ok() && run2.ok());
  EXPECT_EQ(run1->response_ticks, run2->response_ticks);
  EXPECT_EQ(run1->result, run2->result);
  EXPECT_EQ(run1->events, run2->events);
}

// Pins the simulator's timing: response ticks of every strategy on every
// shape at a small size, recorded from the executor as it stood before
// the operation-process runtime was shared with the real backends. A
// reordered deferred action or a moved charge shifts these, and with them
// every paper figure, even when the tick ordering tests still pass.
TEST(SimExecutorTest, ResponseTicksPinned) {
  constexpr int kRelations = 5;
  constexpr uint32_t kCardinality = 300;
  constexpr uint32_t kProcessors = 12;
  // [strategy][shape] in kAllStrategies x kAllShapes order.
  constexpr Ticks kExpected[4][5] = {
      {3717, 3721, 3749, 3729, 3793},  // SP
      {3717, 3014, 2818, 2806, 3793},  // SE
      {3717, 2992, 2672, 2145, 2657},  // RD
      {2394, 2467, 2461, 2473, 2414},  // FP
  };
  Database db = MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/7);
  SimExecutor executor(&db);
  for (size_t s = 0; s < std::size(kAllStrategies); ++s) {
    for (size_t q = 0; q < std::size(kAllShapes); ++q) {
      auto query =
          MakeWisconsinChainQuery(kAllShapes[q], kRelations, kCardinality);
      ASSERT_TRUE(query.ok());
      auto plan = MakeStrategy(kAllStrategies[s])
                      ->Parallelize(*query, kProcessors, TotalCostModel());
      ASSERT_TRUE(plan.ok()) << plan.status();
      auto run = executor.Execute(*plan, SimExecOptions());
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_EQ(run->response_ticks, kExpected[s][q])
          << StrategyName(kAllStrategies[s]) << " on "
          << ShapeName(kAllShapes[q]);
    }
  }
}

// Pins the simulator's traced output over the ResponseTicksPinned grid:
// each cell's utilization exactly and its diagram by FNV-1a hash, with
// two diagrams spelled out so a failure shows what moved. The fill chars
// are the op labels, 'h' handshakes, and the scheduler's 's' and the
// broker's 'b' on the two service lanes above the workers.
TEST(SimExecutorTest, TracedDiagramsPinned) {
  constexpr int kRelations = 5;
  constexpr uint32_t kCardinality = 300;
  constexpr uint32_t kProcessors = 12;
  // [strategy][shape] in kAllStrategies x kAllShapes order.
  constexpr double kUtilization[4][5] = {
      {0.33288494305443456, 0.33378124160171996, 0.33111051836045169,
       0.33217127022436754, 0.32709376922400912},  // SP
      {0.33288494305443456, 0.37270515372705154, 0.373550981783771,
       0.37633642195295797, 0.32709376922400912},  // SE
      {0.33288494305443456, 0.34202317290552586, 0.33383233532934131,
       0.4341880341880342, 0.30184418517124578},  // RD
      {0.3767752715121136, 0.37630049993244158, 0.37640525531626712,
       0.37457878420272273, 0.37365368682684341},  // FP
  };
  constexpr uint64_t kDiagramHash[4][5] = {
      {0x461ae78f696dd76bull, 0xbaade2b43ed69989ull, 0x9f80847c803b88b3ull,
       0x24bbce359b98649aull, 0xd5768360874eb7deull},  // SP
      {0x461ae78f696dd76bull, 0xe62ce8ed57611abfull, 0x3688a5b339d617ddull,
       0x48bf06f6360940acull, 0xd5768360874eb7deull},  // SE
      {0x461ae78f696dd76bull, 0xf2bf9df9a7a85448ull, 0x5545ee3230f30a8eull,
       0xe2fed2eb6c0340d0ull, 0xe0faa050ba4cd117ull},  // RD
      {0x0f41fd0fcd2a90f3ull, 0x93a1820e2af4a79full, 0xbf601cda8e269159ull,
       0x849d0e606302135full, 0x050c9b897c79de4eull},  // FP
  };
  const std::string kSpLeftLinear =
      " 13 .................................bbbb..........bbb..........bbb.........\n"
      " 12 ssssssssssssssssssssssssssssss..........................................\n"
      " 11 .......11.....................11.hh..h2222.222.h..h3333.333.h..h4444.44.\n"
      " 10 .......111....................111hh.h222222222.h..333333333.h..h44444444\n"
      "  9 .......111....................111hh.h2222222222h.h3333333333h.h444444444\n"
      "  8 .......111....................111hh.h22222.222.h.h33333.333.h.h44444.444\n"
      "  7 .......111....................111hh.h22222.222.h.h33333.333.h.h44444.444\n"
      "  6 .......11.....................11.hh.22222..22..h.h3333..33..h.h4444..44.\n"
      "  5 .......11.....................11.hhh22222..22..hh33333..33..hh44444..44.\n"
      "  4 .......11.....................11.hhh22222..22..hh33333..33..hh44444..44.\n"
      "  3 .......111....................111hhh22222..222.hh33333..333.hh44444..444\n"
      "  2 .......11.....................11.hhh22222..22..hh33333..33..hh44444..44.\n"
      "  1 .......111....................111hh222222..222.h333333..333.h444444..444\n"
      "  0 .......111....................111hh222222..222.h333333..333.h444444..444\n"
      "    ------------------------------------------------------------------------> time (3717 ticks)\n";
  const std::string kFpWideBushy =
      " 13 .bbbbbbbb...............................................................\n"
      " 12 sssssssssss.............................................................\n"
      " 11 ...........h...............4444.44444444......................4444444444\n"
      " 10 ..........hh...............444..4444444.......................444444444.\n"
      "  9 .........hh................4444.44444444......................4444444444\n"
      "  8 .........h.................4444.44444444......................4444444444\n"
      "  7 ........33333333333.............................33333333333333..........\n"
      "  6 ........3333333333333...........................33333333333333333.......\n"
      "  5 .......h3333333333333...........................33333333333333333.......\n"
      "  4 .....22222222222222222222222222222222222222222222.......................\n"
      "  3 .....2222222222222222222222222222222222222222222........................\n"
      "  2 ...1111111111111111111111111............................................\n"
      "  1 ...1111111111111111111111111111111......................................\n"
      "  0 ..h111111111111111111111111111111.......................................\n"
      "    ------------------------------------------------------------------------> time (2461 ticks)\n";
  Database db = MakeWisconsinDatabase(kRelations, kCardinality, /*seed=*/7);
  SimExecutor executor(&db);
  SimExecOptions options;
  options.record_trace = true;
  for (size_t s = 0; s < std::size(kAllStrategies); ++s) {
    for (size_t q = 0; q < std::size(kAllShapes); ++q) {
      auto query =
          MakeWisconsinChainQuery(kAllShapes[q], kRelations, kCardinality);
      ASSERT_TRUE(query.ok());
      auto plan = MakeStrategy(kAllStrategies[s])
                      ->Parallelize(*query, kProcessors, TotalCostModel());
      ASSERT_TRUE(plan.ok()) << plan.status();
      auto run = executor.Execute(*plan, options);
      ASSERT_TRUE(run.ok()) << run.status();
      const std::string cell = StrCat(StrategyName(kAllStrategies[s]), " on ",
                                      ShapeName(kAllShapes[q]));
      EXPECT_EQ(run->utilization, kUtilization[s][q]) << cell;
      EXPECT_EQ(FnvHash64(run->utilization_diagram), kDiagramHash[s][q])
          << cell << "\n" << run->utilization_diagram;
      if (s == 0 && q == 0) {
        EXPECT_EQ(run->utilization_diagram, kSpLeftLinear);
      }
      if (s == 3 && q == 2) {
        EXPECT_EQ(run->utilization_diagram, kFpWideBushy);
      }
    }
  }
}

TEST(SimExecutorTest, MaterializedResultMatchesReference) {
  Database db = MakeWisconsinDatabase(4, 250, 11);
  auto query = MakeWisconsinChainQuery(QueryShape::kWideBushy, 4, 250);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kSE)
                  ->Parallelize(*query, 6, TotalCostModel());
  ASSERT_TRUE(plan.ok());
  SimExecutor executor(&db);
  SimExecOptions options;
  options.materialize_result = true;
  auto run = executor.Execute(*plan, options);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run->materialized.has_value());
  auto reference = ExecuteReference(*query, db);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(SummarizeRelation(*run->materialized),
            SummarizeRelation(*reference));
}

TEST(SimExecutorTest, TraceRecordsUtilization) {
  Database db = MakeWisconsinDatabase(3, 200, 13);
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 3, 200);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kSP)
                  ->Parallelize(*query, 4, TotalCostModel());
  ASSERT_TRUE(plan.ok());
  SimExecutor executor(&db);
  SimExecOptions options;
  options.record_trace = true;
  auto run = executor.Execute(*plan, options);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->utilization, 0.0);
  EXPECT_LE(run->utilization, 1.0);
  EXPECT_FALSE(run->utilization_diagram.empty());
}

TEST(SimExecutorTest, CountersMatchPlanShape) {
  Database db = MakeWisconsinDatabase(4, 100, 17);
  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 4, 100);
  ASSERT_TRUE(query.ok());
  auto plan = MakeStrategy(StrategyKind::kSP)
                  ->Parallelize(*query, 5, TotalCostModel());
  ASSERT_TRUE(plan.ok());
  SimExecutor executor(&db);
  auto run = executor.Execute(*plan, SimExecOptions());
  ASSERT_TRUE(run.ok());
  // 3 joins x 5 processors = 15 join processes; streams from the plan.
  EXPECT_EQ(run->counters.processes_started, 15u);
  EXPECT_EQ(run->counters.streams_opened, plan->CountStreams());
  EXPECT_GT(run->counters.tuples_sent, 0u);
}

TEST(SimExecutorTest, MoreProcessorsReduceWorkDominatedResponse) {
  Database db = MakeWisconsinDatabase(6, 2000, 19);
  auto query = MakeWisconsinChainQuery(QueryShape::kWideBushy, 6, 2000);
  ASSERT_TRUE(query.ok());
  SimExecutor executor(&db);
  auto strategy = MakeStrategy(StrategyKind::kFP);
  auto p6 = strategy->Parallelize(*query, 6, TotalCostModel());
  auto p24 = strategy->Parallelize(*query, 24, TotalCostModel());
  ASSERT_TRUE(p6.ok() && p24.ok());
  auto slow = executor.Execute(*p6, SimExecOptions());
  auto fast = executor.Execute(*p24, SimExecOptions());
  ASSERT_TRUE(slow.ok() && fast.ok());
  EXPECT_LT(fast->response_ticks, slow->response_ticks);
}

TEST(SimExecutorTest, FpUsesMoreJoinMemoryThanRd) {
  // The paper (§5): "RD uses less memory than FP because only one
  // hash-table needs to be built."
  Database db = MakeWisconsinDatabase(6, 1000, 23);
  auto query = MakeWisconsinChainQuery(QueryShape::kRightLinear, 6, 1000);
  ASSERT_TRUE(query.ok());
  SimExecutor executor(&db);
  auto fp_plan = MakeStrategy(StrategyKind::kFP)
                     ->Parallelize(*query, 10, TotalCostModel());
  auto rd_plan = MakeStrategy(StrategyKind::kRD)
                     ->Parallelize(*query, 10, TotalCostModel());
  ASSERT_TRUE(fp_plan.ok() && rd_plan.ok());
  auto fp = executor.Execute(*fp_plan, SimExecOptions());
  auto rd = executor.Execute(*rd_plan, SimExecOptions());
  ASSERT_TRUE(fp.ok() && rd.ok());
  EXPECT_GT(fp->join_memory_bytes, rd->join_memory_bytes);
}

// --- Experiment harness -----------------------------------------------------------

TEST(ExperimentTest, SweepProducesAllPoints) {
  ExperimentConfig config;
  config.shape = QueryShape::kWideBushy;
  config.num_relations = 4;
  config.cardinality = 200;
  config.processors = {4, 8};
  config.verify = true;
  auto result = RunShapeExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->points.size(), 8u);  // 4 strategies x 2 P
  const ExperimentPoint* best = result->Best();
  ASSERT_NE(best, nullptr);
  EXPECT_TRUE(best->seconds.has_value());
  std::string table = result->ToTable();
  EXPECT_NE(table.find("SP [s]"), std::string::npos);
}

TEST(ExperimentTest, UnplaceableStrategyGetsEmptyCell) {
  ExperimentConfig config;
  config.shape = QueryShape::kLeftLinear;
  config.num_relations = 6;  // 5 joins
  config.cardinality = 100;
  config.processors = {3};  // FP needs >= 5
  config.strategies = {StrategyKind::kFP};
  config.verify = false;
  auto result = RunShapeExperiment(config);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->points.size(), 1u);
  EXPECT_FALSE(result->points[0].seconds.has_value());
  EXPECT_EQ(result->Best(), nullptr);
}

TEST(ExperimentTest, PaperProcessorSweeps) {
  EXPECT_EQ(SmallExperimentProcessors().front(), 20u);
  EXPECT_EQ(LargeExperimentProcessors().front(), 30u);
  EXPECT_EQ(SmallExperimentProcessors().back(), 80u);
}

}  // namespace
}  // namespace mjoin
