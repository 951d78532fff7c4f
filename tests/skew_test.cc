#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "engine/process_executor.h"
#include "engine/process_protocol.h"
#include "engine/reference.h"
#include "engine/thread_executor.h"
#include "plan/wisconsin_query.h"
#include "skew/bloom.h"
#include "skew/defense.h"
#include "skew/sketch.h"
#include "storage/wisconsin.h"
#include "strategy/strategy.h"
#include "workload/workload.h"

namespace mjoin {
namespace {

// ---------------------------------------------------------------------
// SpaceSaving sketch
// ---------------------------------------------------------------------

TEST(SpaceSavingSketchTest, NeverMissesAHeavyHitter) {
  SpaceSavingSketch sketch(8);
  // 10000 noise keys once each, one hot key 2000 times interleaved.
  for (int i = 0; i < 10000; ++i) {
    sketch.Observe(100000 + i);
    if (i % 5 == 0) sketch.Observe(42);
  }
  bool found = false;
  for (const auto& entry : sketch.Entries()) {
    if (entry.key == 42) {
      found = true;
      // SpaceSaving counts are upper bounds on the true count.
      EXPECT_GE(entry.count, 2000u);
    }
  }
  EXPECT_TRUE(found) << "a key with 17% of the stream must survive";
  EXPECT_EQ(sketch.total(), 12000u);
}

TEST(SpaceSavingSketchTest, ExactBelowCapacity) {
  SpaceSavingSketch sketch(16);
  for (int rep = 0; rep < 7; ++rep) {
    for (int32_t key = 0; key < 5; ++key) {
      if (key <= rep % 5) sketch.Observe(key);
    }
  }
  for (const auto& entry : sketch.Entries()) {
    EXPECT_LT(entry.key, 5);
    EXPECT_GT(entry.count, 0u);
  }
}

// ---------------------------------------------------------------------
// Bloom filter
// ---------------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegativesAndUsefulRejection) {
  BloomFilter bloom(1u << 16);
  for (int32_t key = 0; key < 1000; ++key) bloom.Insert(key * 7);
  for (int32_t key = 0; key < 1000; ++key) {
    EXPECT_TRUE(bloom.MayContain(key * 7));
  }
  int false_positives = 0;
  for (int32_t probe = 1000000; probe < 1010000; ++probe) {
    if (bloom.MayContain(probe)) ++false_positives;
  }
  // 4k inserted bits in 64k slots: the fp rate is well under a percent.
  EXPECT_LT(false_positives, 200);
  EXPECT_GT(bloom.EstimateFpRate(), 0.0);
  EXPECT_LT(bloom.EstimateFpRate(), 0.01);
}

TEST(BloomFilterTest, UnbuiltPassesEverything) {
  BloomFilter empty;
  EXPECT_FALSE(empty.built());
  EXPECT_TRUE(empty.MayContain(123));
}

TEST(BloomFilterTest, SerializationAndUnionRoundTrip) {
  BloomFilter a(1u << 12);
  BloomFilter b(1u << 12);
  a.Insert(1);
  b.Insert(2);
  BloomFilter restored = BloomFilter::FromBytes(a.bytes());
  ASSERT_TRUE(restored.built());
  EXPECT_TRUE(restored.MayContain(1));

  a.Union(b);
  EXPECT_TRUE(a.MayContain(1));
  EXPECT_TRUE(a.MayContain(2));
}

// ---------------------------------------------------------------------
// Defense plumbing
// ---------------------------------------------------------------------

TEST(SkewDefenseTest, ParseModeListsValidValues) {
  EXPECT_EQ(*ParseSkewDefenseMode("off"), SkewDefenseMode::kOff);
  EXPECT_EQ(*ParseSkewDefenseMode("on"), SkewDefenseMode::kOn);
  EXPECT_EQ(*ParseSkewDefenseMode("auto"), SkewDefenseMode::kAuto);
  auto bad = ParseSkewDefenseMode("maybe");
  ASSERT_FALSE(bad.ok());
  for (const char* valid : {"off", "on", "auto"}) {
    EXPECT_NE(bad.status().message().find(valid), std::string::npos);
  }
}

ParallelPlan PlanFor(StrategyKind kind, QueryShape shape) {
  auto query = MakeWisconsinChainQuery(shape, 3, 400);
  EXPECT_TRUE(query.ok());
  auto plan = MakeStrategy(kind)->Parallelize(*query, 8, TotalCostModel());
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *std::move(plan);
}

TEST(SkewDefenseTest, DefendedJoinsAreHashSplitProbeEdges) {
  for (StrategyKind kind : kAllStrategies) {
    for (QueryShape shape : kAllShapes) {
      ParallelPlan plan = PlanFor(kind, shape);
      for (int id : DefendedJoinOps(plan)) {
        const XraOp& op = plan.ops[static_cast<size_t>(id)];
        EXPECT_EQ(op.kind, XraOpKind::kSimpleHashJoin);
        EXPECT_GE(op.inputs[1].producer, 0);
        EXPECT_EQ(op.inputs[1].routing, Routing::kHashSplit);
      }
    }
  }
}

// Build a hash table holding `hot_rows` rows of key 0 plus one row each
// of keys 1..cold_keys, report it, and return (report, table rows).
SkewJoinReport ReportFor(JoinHashTable* table, uint64_t hot_rows,
                         int32_t cold_keys,
                         const SkewDefenseOptions& options) {
  Relation seed(WisconsinSchema());
  auto add = [&](int32_t key) {
    TupleWriter w = seed.AppendTuple();
    for (size_t c = 0; c < kStringU1; ++c) w.SetInt32(c, key);
    w.SetString(kStringU1, WisconsinString(key));
    w.SetString(kStringU2, WisconsinString(key));
    w.SetString(kString4, "AAAA");
    table->Insert(seed.tuple(seed.num_tuples() - 1).data());
  };
  for (uint64_t i = 0; i < hot_rows; ++i) add(0);
  for (int32_t key = 1; key <= cold_keys; ++key) add(key);
  return BuildSkewReport(*table, /*op=*/3, /*instance=*/0,
                         /*num_instances=*/4, options);
}

TEST(SkewDefenseTest, ReportMergerDirectiveApplyRoundTrip) {
  SkewDefenseOptions options;
  options.mode = SkewDefenseMode::kOn;
  options.min_hot_count = 16;
  options.hot_fraction = 0.5;

  auto schema = std::make_shared<const Schema>(WisconsinSchema());
  JoinHashTable hot_table(schema, kUnique1);
  SkewJoinReport report = ReportFor(&hot_table, /*hot_rows=*/100,
                                    /*cold_keys=*/50, options);
  EXPECT_EQ(report.build_rows, 150u);
  EXPECT_TRUE(report.bloom.built());
  ASSERT_FALSE(report.candidates.empty());
  EXPECT_EQ(report.candidates[0].key, 0);
  EXPECT_GE(report.candidates[0].count, 100u);
  EXPECT_TRUE(report.candidates[0].rows_included);

  SkewReportMerger merger(3, 2, options);
  merger.Add(report);
  EXPECT_FALSE(merger.complete());
  JoinHashTable cold_table(schema, kUnique1);
  SkewJoinReport cold = ReportFor(&cold_table, /*hot_rows=*/0,
                                  /*cold_keys=*/30, options);
  cold.instance = 1;
  merger.Add(cold);
  ASSERT_TRUE(merger.complete());

  SkewDirective directive = merger.Finish();
  EXPECT_EQ(directive.op, 3);
  EXPECT_TRUE(directive.repartition);
  ASSERT_EQ(directive.hot_keys.size(), 1u);
  EXPECT_EQ(directive.hot_keys[0], 0);
  EXPECT_EQ(directive.total_build_rows, 180u);
  EXPECT_GT(directive.imbalance, 1.0);
  EXPECT_TRUE(directive.bloom.MayContain(0));
  EXPECT_TRUE(directive.bloom.MayContain(30));

  // The owner instance already holds key 0's originals: apply is a no-op.
  EXPECT_EQ(ApplySkewDirective(directive, &hot_table), 0u);
  // A non-owner instance receives all 100 replicated rows.
  EXPECT_EQ(ApplySkewDirective(directive, &cold_table), 100u);
  EXPECT_EQ(cold_table.Probe(0, [](TupleRef) {}), 100u);
}

TEST(SkewDefenseTest, EmitDefenseClassifiesDropRepartitionPass) {
  SkewDirective directive;
  directive.repartition = true;
  directive.hot_keys = {7};
  BloomFilter bloom(1u << 12);
  bloom.Insert(7);
  bloom.Insert(8);
  directive.bloom = std::move(bloom);

  SkewEmitDefense defense(directive);
  EXPECT_EQ(defense.Classify(7), EmitDefense::Verdict::kRepartition);
  EXPECT_EQ(defense.Classify(8), EmitDefense::Verdict::kPass);
  EXPECT_EQ(defense.Classify(123456), EmitDefense::Verdict::kDrop);
}

// ---------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------

TEST(SkewWireTest, ReportCodecRoundTrip) {
  SkewJoinReport report;
  report.op = 5;
  report.instance = 2;
  report.build_rows = 777;
  report.tuple_size = 8;
  SkewCandidate candidate;
  candidate.key = 42;
  candidate.count = 700;
  candidate.rows_included = true;
  candidate.rows.assign(16, std::byte{0xAB});
  report.candidates.push_back(std::move(candidate));
  BloomFilter bloom(1u << 10);
  bloom.Insert(42);
  report.bloom = std::move(bloom);

  std::vector<std::byte> payload;
  EncodeSkewReport(report, &payload);
  WireReader reader(payload);
  SkewJoinReport decoded;
  ASSERT_TRUE(DecodeSkewReport(&reader, &decoded).ok());
  EXPECT_EQ(decoded.op, 5);
  EXPECT_EQ(decoded.instance, 2u);
  EXPECT_EQ(decoded.build_rows, 777u);
  ASSERT_EQ(decoded.candidates.size(), 1u);
  EXPECT_EQ(decoded.candidates[0].key, 42);
  EXPECT_EQ(decoded.candidates[0].rows, report.candidates[0].rows);
  EXPECT_TRUE(decoded.bloom.MayContain(42));

  // Truncation at every prefix must fail cleanly, never crash.
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    WireReader short_reader(payload.data(), cut);
    SkewJoinReport scratch;
    EXPECT_FALSE(DecodeSkewReport(&short_reader, &scratch).ok()) << cut;
  }
}

TEST(SkewWireTest, DirectiveCodecRoundTrip) {
  SkewDirective directive;
  directive.op = 4;
  directive.repartition = true;
  directive.hot_keys = {-3, 9};
  directive.tuple_size = 4;
  directive.hot_rows.assign(12, std::byte{0x5C});
  directive.total_build_rows = 4096;
  directive.imbalance = 2.25;
  BloomFilter bloom(1u << 9);
  bloom.Insert(9);
  directive.bloom = std::move(bloom);

  std::vector<std::byte> payload;
  EncodeSkewDirective(directive, &payload);
  WireReader reader(payload);
  SkewDirective decoded;
  ASSERT_TRUE(DecodeSkewDirective(&reader, &decoded).ok());
  EXPECT_EQ(decoded.op, 4);
  EXPECT_TRUE(decoded.repartition);
  EXPECT_EQ(decoded.hot_keys, directive.hot_keys);
  EXPECT_EQ(decoded.hot_rows, directive.hot_rows);
  EXPECT_EQ(decoded.total_build_rows, 4096u);
  EXPECT_DOUBLE_EQ(decoded.imbalance, 2.25);
  EXPECT_TRUE(decoded.bloom.MayContain(9));

  for (size_t cut = 0; cut < payload.size(); ++cut) {
    WireReader short_reader(payload.data(), cut);
    SkewDirective scratch;
    EXPECT_FALSE(DecodeSkewDirective(&short_reader, &scratch).ok()) << cut;
  }
}

TEST(SkewWireTest, PlanEnvelopeCarriesDefenseOptions) {
  PlanEnvelope env;
  env.plan_text = "plan";
  env.skew_defense.mode = SkewDefenseMode::kAuto;
  env.skew_defense.bloom_bits = 1u << 10;
  env.skew_defense.sketch_capacity = 17;
  env.skew_defense.hot_fraction = 0.75;
  env.skew_defense.min_hot_count = 99;
  env.skew_defense.auto_imbalance_threshold = 1.75;
  env.skew_defense.max_hot_row_bytes = 12345;

  std::vector<std::byte> payload;
  EncodePlanEnvelope(env, &payload);
  WireReader reader(payload);
  PlanEnvelope decoded;
  ASSERT_TRUE(DecodePlanEnvelope(&reader, &decoded).ok());
  EXPECT_EQ(decoded.skew_defense.mode, SkewDefenseMode::kAuto);
  EXPECT_EQ(decoded.skew_defense.bloom_bits, 1u << 10);
  EXPECT_EQ(decoded.skew_defense.sketch_capacity, 17u);
  EXPECT_DOUBLE_EQ(decoded.skew_defense.hot_fraction, 0.75);
  EXPECT_EQ(decoded.skew_defense.min_hot_count, 99u);
  EXPECT_DOUBLE_EQ(decoded.skew_defense.auto_imbalance_threshold, 1.75);
  EXPECT_EQ(decoded.skew_defense.max_hot_row_bytes, 12345u);
}

// ---------------------------------------------------------------------
// End to end: defense on == defense off, and the counters move
// ---------------------------------------------------------------------

struct SkewRunOutcome {
  ResultSummary result;
  uint64_t hot_keys = 0;
  uint64_t replicated = 0;
  uint64_t repartitioned = 0;
  uint64_t bloom_filtered = 0;
};

SkewRunOutcome Accumulate(const ResultSummary& result,
                          const std::vector<ThreadOpStats>& per_op) {
  SkewRunOutcome out;
  out.result = result;
  for (const ThreadOpStats& op : per_op) {
    out.hot_keys += op.metrics.skew_hot_keys;
    out.replicated += op.metrics.skew_replicated_rows;
    out.repartitioned += op.metrics.skew_repartitioned_rows;
    out.bloom_filtered += op.metrics.skew_bloom_filtered_rows;
  }
  return out;
}

// The acceptance workload: Zipf(1.0) m:n chain with prunable misses,
// thresholds lowered so its test-sized hot key trips detection.
SkewDefenseOptions TestDefense(SkewDefenseMode mode) {
  SkewDefenseOptions defense;
  defense.mode = mode;
  defense.min_hot_count = 16;
  // At 600 rows the Zipf(1) hot key holds ~54 build rows. RD runs the
  // defended join on only 4 of the 8 processors (fair share 150), so the
  // default 0.5 fraction would leave its threshold at 75 and never fire;
  // 0.25 puts the threshold under the hot count for every strategy.
  defense.hot_fraction = 0.25;
  return defense;
}

TEST(SkewEndToEndTest, ThreadBackendDefenseIsResultInvariant) {
  auto spec = WorkloadPreset("adversarial");
  ASSERT_TRUE(spec.ok());
  spec->cardinality = 600;
  auto db = MakeWorkloadDatabase(*spec);
  ASSERT_TRUE(db.ok());
  // Right-linear: each intermediate result feeds the NEXT join's probe
  // slot over a hash-split edge, so the defense has edges to defend.
  // (Left-linear chains route every intermediate into the next build
  // slot and probe from colocated scans — nothing to defend there.)
  auto query = MakeWisconsinChainQuery(QueryShape::kRightLinear,
                                       spec->num_relations,
                                       spec->cardinality);
  ASSERT_TRUE(query.ok());
  auto reference = ReferenceSummary(*query, *db);
  ASSERT_TRUE(reference.ok());

  bool any_defended = false;
  for (StrategyKind kind : kAllStrategies) {
    auto plan =
        MakeStrategy(kind)->Parallelize(*query, 8, TotalCostModel());
    ASSERT_TRUE(plan.ok()) << plan.status();
    ThreadExecutor threads(&*db);
    std::map<SkewDefenseMode, SkewRunOutcome> outcomes;
    for (SkewDefenseMode mode :
         {SkewDefenseMode::kOff, SkewDefenseMode::kOn,
          SkewDefenseMode::kAuto}) {
      ThreadExecOptions options;
      options.collect_metrics = true;
      options.skew_defense = TestDefense(mode);
      auto run = threads.Execute(*plan, options);
      ASSERT_TRUE(run.ok())
          << run.status() << " " << SkewDefenseModeName(mode);
      outcomes[mode] = Accumulate(run->result, run->stats.per_op);
      EXPECT_EQ(run->result.cardinality, reference->cardinality)
          << StrategyName(kind) << " " << SkewDefenseModeName(mode);
      EXPECT_EQ(run->result.checksum, reference->checksum)
          << StrategyName(kind) << " " << SkewDefenseModeName(mode);
    }
    const SkewRunOutcome& off = outcomes[SkewDefenseMode::kOff];
    EXPECT_EQ(off.hot_keys, 0u);
    EXPECT_EQ(off.bloom_filtered, 0u);
    if (!DefendedJoinOps(*plan).empty()) {
      any_defended = true;
      const SkewRunOutcome& on = outcomes[SkewDefenseMode::kOn];
      // selectivity 0.5 guarantees prunable probe rows on every
      // defended edge, and the Zipf hot key clears min_hot_count=16.
      EXPECT_GT(on.bloom_filtered, 0u) << StrategyName(kind);
      EXPECT_GT(on.hot_keys, 0u) << StrategyName(kind);
      EXPECT_GT(on.repartitioned, 0u) << StrategyName(kind);
      EXPECT_GT(on.replicated, 0u) << StrategyName(kind);
    }
  }
  // Keeps the counter assertions above from passing vacuously.
  EXPECT_TRUE(any_defended) << "no strategy produced a defended join";
}

TEST(SkewEndToEndTest, ProcessBackendDefenseIsResultInvariant) {
  auto spec = WorkloadPreset("adversarial");
  ASSERT_TRUE(spec.ok());
  spec->cardinality = 600;
  auto db = MakeWorkloadDatabase(*spec);
  ASSERT_TRUE(db.ok());
  auto query = MakeWisconsinChainQuery(QueryShape::kRightLinear,
                                       spec->num_relations,
                                       spec->cardinality);
  ASSERT_TRUE(query.ok());
  auto reference = ReferenceSummary(*query, *db);
  ASSERT_TRUE(reference.ok());
  // Pick a strategy whose plan actually has a hash-split probe edge to
  // defend (which strategies do depends on their colocation choices).
  std::optional<ParallelPlan> plan;
  for (StrategyKind kind : kAllStrategies) {
    auto candidate =
        MakeStrategy(kind)->Parallelize(*query, 8, TotalCostModel());
    ASSERT_TRUE(candidate.ok()) << candidate.status();
    if (!DefendedJoinOps(*candidate).empty()) {
      plan.emplace(*std::move(candidate));
      break;
    }
  }
  ASSERT_TRUE(plan.has_value()) << "no strategy produced a defended join";

  ProcessExecutor processes(&*db);
  for (SkewDefenseMode mode :
       {SkewDefenseMode::kOff, SkewDefenseMode::kOn, SkewDefenseMode::kAuto}) {
    ProcessExecOptions options;
    options.exec.collect_metrics = true;
    options.exec.skew_defense = TestDefense(mode);
    options.num_workers = 3;
    ThreadExecStats stats;
    auto run = processes.Execute(*plan, options, &stats);
    ASSERT_TRUE(run.ok()) << run.status() << " " << SkewDefenseModeName(mode);
    EXPECT_EQ(run->exec.result.cardinality, reference->cardinality)
        << SkewDefenseModeName(mode);
    EXPECT_EQ(run->exec.result.checksum, reference->checksum)
        << SkewDefenseModeName(mode);
    SkewRunOutcome outcome =
        Accumulate(run->exec.result, run->exec.stats.per_op);
    if (mode == SkewDefenseMode::kOff) {
      EXPECT_EQ(outcome.hot_keys, 0u);
      EXPECT_EQ(outcome.bloom_filtered, 0u);
    } else {
      // The directive must do real work: drops and repartitions counted on
      // the producers, replication on the join instances, hot keys once
      // per defended join.
      EXPECT_GT(outcome.bloom_filtered, 0u) << SkewDefenseModeName(mode);
      EXPECT_GT(outcome.hot_keys, 0u) << SkewDefenseModeName(mode);
      EXPECT_GT(outcome.repartitioned, 0u) << SkewDefenseModeName(mode);
      EXPECT_GT(outcome.replicated, 0u) << SkewDefenseModeName(mode);
    }
  }
}

}  // namespace
}  // namespace mjoin
