#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <string>

#include "common/random.h"
#include "exec/aggregate.h"
#include "exec/filter.h"
#include "exec/hash_table.h"
#include "exec/join_row.h"
#include "exec/pipelining_hash_join.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/simple_hash_join.h"
#include "exec/sort_merge_join.h"
#include "plan/wisconsin_query.h"
#include "storage/partitioner.h"
#include "storage/wisconsin.h"
#include "recording_context.h"

namespace mjoin {
namespace {

std::shared_ptr<const Schema> TestSchema() {
  return std::make_shared<const Schema>(
      Schema({Column::Int32("k"), Column::Int32("v")}));
}

Relation MakeKv(std::vector<std::pair<int32_t, int32_t>> rows) {
  Relation rel(*TestSchema());
  for (auto [k, v] : rows) {
    TupleWriter w = rel.AppendTuple();
    w.SetInt32(0, k);
    w.SetInt32(1, v);
  }
  return rel;
}

TupleBatch ToBatch(const Relation& rel) {
  TupleBatch batch(std::make_shared<const Schema>(rel.schema()));
  for (size_t i = 0; i < rel.num_tuples(); ++i) {
    batch.AppendRow(rel.tuple(i).data());
  }
  return batch;
}

// --- JoinHashTable -----------------------------------------------------------

TEST(JoinHashTableTest, InsertAndProbe) {
  Relation rel = MakeKv({{1, 10}, {2, 20}, {3, 30}});
  JoinHashTable table(TestSchema(), 0);
  for (size_t i = 0; i < rel.num_tuples(); ++i) {
    table.Insert(rel.tuple(i).data());
  }
  EXPECT_EQ(table.size(), 3u);
  int32_t found = -1;
  EXPECT_EQ(table.Probe(2, [&](const TupleRef& t) { found = t.GetInt32(1); }),
            1u);
  EXPECT_EQ(found, 20);
  EXPECT_EQ(table.Probe(99, [](const TupleRef&) {}), 0u);
}

TEST(JoinHashTableTest, DuplicateKeysAllFound) {
  Relation rel = MakeKv({{5, 1}, {5, 2}, {5, 3}, {6, 4}});
  JoinHashTable table(TestSchema(), 0);
  for (size_t i = 0; i < rel.num_tuples(); ++i) {
    table.Insert(rel.tuple(i).data());
  }
  std::set<int32_t> values;
  EXPECT_EQ(table.Probe(5, [&](const TupleRef& t) {
    values.insert(t.GetInt32(1));
  }),
            3u);
  EXPECT_EQ(values, (std::set<int32_t>{1, 2, 3}));
}

TEST(JoinHashTableTest, GrowsBeyondInitialCapacity) {
  JoinHashTable table(TestSchema(), 0);
  Relation rel(*TestSchema());
  for (int32_t i = 0; i < 10000; ++i) {
    TupleWriter w = rel.AppendTuple();
    w.SetInt32(0, i);
    w.SetInt32(1, i * 2);
  }
  for (size_t i = 0; i < rel.num_tuples(); ++i) {
    table.Insert(rel.tuple(i).data());
  }
  EXPECT_EQ(table.size(), 10000u);
  for (int32_t k : {0, 123, 9999}) {
    int32_t v = -1;
    EXPECT_EQ(table.Probe(k, [&](const TupleRef& t) { v = t.GetInt32(1); }),
              1u);
    EXPECT_EQ(v, k * 2);
  }
  EXPECT_GT(table.memory_bytes(), 10000u * 8u);
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Probe(5, [](const TupleRef&) {}), 0u);
}

TEST(JoinHashTableTest, NegativeKeys) {
  Relation rel = MakeKv({{-7, 70}, {0, 0}});
  JoinHashTable table(TestSchema(), 0);
  for (size_t i = 0; i < rel.num_tuples(); ++i) {
    table.Insert(rel.tuple(i).data());
  }
  int32_t v = -1;
  EXPECT_EQ(table.Probe(-7, [&](const TupleRef& t) { v = t.GetInt32(1); }),
            1u);
  EXPECT_EQ(v, 70);
}

// Collisions per operation (insert or probe) of a table built from the
// first `n` keys FragmentOf(key, 4) puts in `fragment` (every key when
// `fragment` < 0) and probed with the first 2n such keys: half hit, half
// miss.
double CollisionsPerOp(int fragment, size_t n) {
  Relation rel(*TestSchema());
  std::vector<int32_t> probes;
  for (int32_t k = 0; probes.size() < 2 * n; ++k) {
    if (fragment >= 0 && FragmentOf(k, 4) != static_cast<uint32_t>(fragment)) {
      continue;
    }
    if (rel.num_tuples() < n) {
      TupleWriter w = rel.AppendTuple();
      w.SetInt32(0, k);
      w.SetInt32(1, k);
    }
    probes.push_back(k);
  }
  JoinHashTable table(TestSchema(), 0);
  table.InsertRows(rel.raw_data(), rel.num_tuples());
  EXPECT_EQ(table.ProbeBatch(probes.data(), probes.size(),
                             [](size_t, const TupleRef&) {}),
            n);
  return static_cast<double>(table.collisions()) / static_cast<double>(3 * n);
}

// Keys of one FragmentOf(key, 4) fragment share the low two bits of their
// hash. A table that takes its slot from those bits homes every key on a
// quarter of the slots and steps over ~1.3x the occupied slots that keys
// from the whole range do; homed on the high bits, one fragment's keys
// collide no more than any keys.
TEST(JoinHashTableTest, FragmentKeysDoNotCluster) {
  constexpr size_t kRows = 10000;
  const double all_keys = CollisionsPerOp(-1, kRows);
  for (int fragment = 0; fragment < 4; ++fragment) {
    EXPECT_LT(CollisionsPerOp(fragment, kRows), 1.15 * all_keys)
        << "fragment " << fragment;
  }
}

// Rows with duplicate keys, inserted row by row into one table and in
// uneven batches into another: the two tables are indistinguishable.
TEST(JoinHashTableTest, InsertRowsMatchesInsert) {
  Relation rel(*TestSchema());
  for (int32_t i = 0; i < 3000; ++i) {
    TupleWriter w = rel.AppendTuple();
    w.SetInt32(0, (i * 7919) % 1100 - 300);
    w.SetInt32(1, i);
  }
  JoinHashTable one(TestSchema(), 0);
  for (size_t i = 0; i < rel.num_tuples(); ++i) one.Insert(rel.tuple(i).data());
  JoinHashTable batched(TestSchema(), 0);
  const size_t width = rel.schema().tuple_size();
  size_t at = 0;
  for (size_t len : {1, 7, 0, 64, 200, 1000}) {
    batched.InsertRows(rel.raw_data() + at * width, len);
    at += len;
  }
  batched.InsertRows(rel.raw_data() + at * width, rel.num_tuples() - at);

  EXPECT_EQ(batched.size(), one.size());
  EXPECT_EQ(batched.total_inserted(), one.total_inserted());
  EXPECT_EQ(batched.memory_bytes(), one.memory_bytes());
  EXPECT_EQ(batched.collisions(), one.collisions());
  for (int32_t k = -350; k < 850; ++k) {
    std::vector<int32_t> want;
    std::vector<int32_t> got;
    one.Probe(k, [&](const TupleRef& t) { want.push_back(t.GetInt32(1)); });
    batched.Probe(k, [&](const TupleRef& t) { got.push_back(t.GetInt32(1)); });
    ASSERT_EQ(got, want) << "key " << k;
    // Matches come out in insertion order, across every rehash.
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << "key " << k;
  }
  EXPECT_EQ(batched.collisions(), one.collisions());
}

// A batch that does not fit reserves the prefix that does, as row-at-a-
// time inserts would have, and latches over_budget().
TEST(JoinHashTableTest, OverBudgetInsertRowsReservesFittingPrefix) {
  Relation rel(*TestSchema());
  for (int32_t i = 0; i < 256; ++i) {
    TupleWriter w = rel.AppendTuple();
    w.SetInt32(0, i);
    w.SetInt32(1, i);
  }
  MemoryBudget budget(4096);
  JoinHashTable table(TestSchema(), 0);
  table.AttachBudget(&budget);
  table.InsertRows(rel.raw_data(), rel.num_tuples());
  EXPECT_TRUE(table.over_budget());
  EXPECT_EQ(table.size(), 256u);
  EXPECT_GT(table.memory_bytes(), budget.limit());
  EXPECT_GT(budget.peak(), 0u);
  EXPECT_LE(budget.peak(), budget.limit());
  EXPECT_EQ(budget.used(), budget.peak());

  // Row by row reaches the same reservation.
  MemoryBudget row_budget(4096);
  JoinHashTable rows(TestSchema(), 0);
  rows.AttachBudget(&row_budget);
  for (size_t i = 0; i < rel.num_tuples(); ++i) {
    rows.Insert(rel.tuple(i).data());
  }
  EXPECT_TRUE(rows.over_budget());
  EXPECT_EQ(row_budget.peak(), budget.peak());
  EXPECT_EQ(row_budget.used(), budget.used());

  table.Clear();
  EXPECT_EQ(budget.used(), 0u);
}

// --- ScanOp --------------------------------------------------------------------

TEST(ScanOpTest, EmitsAllTuplesInBatches) {
  Relation rel = MakeKv({});
  for (int32_t i = 0; i < 150; ++i) {
    TupleWriter w = rel.AppendTuple();
    w.SetInt32(0, i);
    w.SetInt32(1, i);
  }
  ScanOp scan([&rel] { return &rel; }, TestSchema());
  RecordingContext ctx(TestSchema());
  ctx.params.batch_size = 64;
  scan.Open(&ctx);
  EXPECT_TRUE(scan.is_source());
  int produces = 0;
  while (scan.Produce(&ctx)) ++produces;
  ++produces;  // the final call
  EXPECT_EQ(produces, 3);  // 64 + 64 + 22
  EXPECT_TRUE(scan.finished());
  EXPECT_EQ(ctx.out.num_tuples(), 150u);
  EXPECT_EQ(ctx.charged, 150 * ctx.params.tuple_scan);
}

TEST(ScanOpTest, EmptyFragmentFinishesImmediately) {
  Relation rel = MakeKv({});
  ScanOp scan([&rel] { return &rel; }, TestSchema());
  RecordingContext ctx(TestSchema());
  scan.Open(&ctx);
  EXPECT_FALSE(scan.Produce(&ctx));
  EXPECT_TRUE(scan.finished());
  EXPECT_EQ(ctx.out.num_tuples(), 0u);
}

// An in-place scan of fragment i of a base relation emits exactly the rows
// of fragment i of the copying partitioners, in the same batches: every
// Produce() call but the last emits batch_size of them, none is empty,
// and the charge is tuple_scan per emitted row.
TEST(ScanOpTest, InPlaceFragmentsMatchThePartitioners) {
  for (uint32_t card : {0u, 2u, 1000u}) {
    Relation base = MakeKv({});
    for (uint32_t r = 0; r < card; ++r) {
      TupleWriter w = base.AppendTuple();
      w.SetInt32(0, static_cast<int32_t>(r * 7919 % 613));
      w.SetInt32(1, static_cast<int32_t>(r));
    }
    for (uint32_t m = 1; m <= 4; ++m) {
      for (bool hash : {false, true}) {
        auto rule = hash ? FragmentRule::Hash(base.schema(), 0, m)
                         : StatusOr<FragmentRule>(FragmentRule::RoundRobin(m));
        ASSERT_TRUE(rule.ok()) << rule.status();
        auto fragments = hash ? HashPartition(base, 0, m)
                              : StatusOr<std::vector<Relation>>(
                                    RoundRobinPartition(base, m));
        ASSERT_TRUE(fragments.ok()) << fragments.status();
        for (uint32_t batch : {1u, 7u, 256u}) {
          for (uint32_t i = 0; i < m; ++i) {
            SCOPED_TRACE(testing::Message()
                         << "card " << card << " m " << m << " hash " << hash
                         << " batch " << batch << " fragment " << i);
            const Relation& want = (*fragments)[i];
            ScanOp scan([&base] { return &base; }, TestSchema(), *rule, i);
            RecordingContext ctx(TestSchema());
            ctx.params.batch_size = batch;
            scan.Open(&ctx);
            size_t calls = 0;
            bool more = true;
            while (more) {
              const size_t before = ctx.out.num_tuples();
              more = scan.Produce(&ctx);
              ++calls;
              const size_t emitted = ctx.out.num_tuples() - before;
              const size_t left = want.num_tuples() - before;
              EXPECT_EQ(emitted, std::min<size_t>(batch, left))
                  << "call " << calls;
              EXPECT_EQ(more, emitted < left) << "call " << calls;
            }
            EXPECT_TRUE(scan.finished());
            EXPECT_EQ(calls, std::max<size_t>(
                                 1, (want.num_tuples() + batch - 1) / batch));
            ASSERT_EQ(ctx.out.num_tuples(), want.num_tuples());
            EXPECT_TRUE(want.byte_size() == 0 ||
                        std::memcmp(ctx.out.raw_data(), want.raw_data(),
                                    want.byte_size()) == 0);
            EXPECT_EQ(ctx.charged, static_cast<Ticks>(want.num_tuples()) *
                                       ctx.params.tuple_scan);
          }
        }
      }
    }
  }
}

// --- Join specs -------------------------------------------------------------------

JoinSpec KvJoinSpec() {
  auto spec = MakeJoinSpec(TestSchema(), TestSchema(), 0, 0,
                           {JoinOutputColumn::Left(0),
                            JoinOutputColumn::Left(1),
                            JoinOutputColumn::Right(1)});
  MJOIN_CHECK(spec.ok()) << spec.status();
  return *std::move(spec);
}

TEST(JoinSpecTest, OutputSchemaDerivedWithDedupedNames) {
  JoinSpec spec = KvJoinSpec();
  EXPECT_EQ(spec.output_schema->num_columns(), 3u);
  EXPECT_EQ(spec.output_schema->column(0).name, "k");
  EXPECT_EQ(spec.output_schema->column(1).name, "v");
  EXPECT_EQ(spec.output_schema->column(2).name, "v_r");
}

TEST(JoinSpecTest, RejectsNonIntKeysAndBadColumns) {
  auto string_schema = std::make_shared<const Schema>(
      Schema({Column::FixedString("s", 4)}));
  EXPECT_FALSE(MakeJoinSpec(string_schema, TestSchema(), 0, 0, {}).ok());
  EXPECT_FALSE(MakeJoinSpec(TestSchema(), TestSchema(), 5, 0, {}).ok());
  EXPECT_FALSE(MakeJoinSpec(TestSchema(), TestSchema(), 0, 0,
                            {JoinOutputColumn{0, 9}})
                   .ok());
  EXPECT_FALSE(MakeJoinSpec(TestSchema(), TestSchema(), 0, 0,
                            {JoinOutputColumn{2, 0}})
                   .ok());
}

TEST(JoinSpecTest, NaturalConcatKeepsAllColumns) {
  auto spec = MakeNaturalConcatJoinSpec(TestSchema(), TestSchema(), 0, 0);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->output_schema->num_columns(), 4u);
}

// Expected multiset of (k, v_left, v_right) for a reference join.
std::multiset<std::tuple<int32_t, int32_t, int32_t>> BruteForceJoin(
    const Relation& left, const Relation& right) {
  std::multiset<std::tuple<int32_t, int32_t, int32_t>> out;
  for (size_t i = 0; i < left.num_tuples(); ++i) {
    for (size_t j = 0; j < right.num_tuples(); ++j) {
      if (left.tuple(i).GetInt32(0) == right.tuple(j).GetInt32(0)) {
        out.insert({left.tuple(i).GetInt32(0), left.tuple(i).GetInt32(1),
                    right.tuple(j).GetInt32(1)});
      }
    }
  }
  return out;
}

std::multiset<std::tuple<int32_t, int32_t, int32_t>> Collect(
    const TupleBatch& out) {
  std::multiset<std::tuple<int32_t, int32_t, int32_t>> rows;
  for (size_t i = 0; i < out.num_tuples(); ++i) {
    rows.insert({out.tuple(i).GetInt32(0), out.tuple(i).GetInt32(1),
                 out.tuple(i).GetInt32(2)});
  }
  return rows;
}

// --- SimpleHashJoinOp ----------------------------------------------------------

TEST(SimpleHashJoinTest, JoinsWithDuplicatesAndMisses) {
  Relation left = MakeKv({{1, 10}, {2, 20}, {2, 21}, {3, 30}});
  Relation right = MakeKv({{2, 200}, {2, 201}, {3, 300}, {4, 400}});
  SimpleHashJoinOp join(KvJoinSpec());
  RecordingContext ctx(join.output_schema());

  join.Consume(SimpleHashJoinOp::kBuildPort, ToBatch(left), &ctx);
  join.InputDone(SimpleHashJoinOp::kBuildPort, &ctx);
  EXPECT_TRUE(join.build_done());
  join.Consume(SimpleHashJoinOp::kProbePort, ToBatch(right), &ctx);
  join.InputDone(SimpleHashJoinOp::kProbePort, &ctx);

  EXPECT_TRUE(join.finished());
  EXPECT_EQ(Collect(ctx.out), BruteForceJoin(left, right));
  EXPECT_EQ(ctx.out.num_tuples(), 5u);  // 2x2 for key 2, 1 for key 3
}

TEST(SimpleHashJoinTest, BuffersEarlyProbeInput) {
  Relation left = MakeKv({{1, 10}});
  Relation right = MakeKv({{1, 100}});
  SimpleHashJoinOp join(KvJoinSpec());
  RecordingContext ctx(join.output_schema());

  // Probe arrives before the build is complete: must be buffered, not
  // joined yet.
  join.Consume(SimpleHashJoinOp::kProbePort, ToBatch(right), &ctx);
  EXPECT_EQ(ctx.out.num_tuples(), 0u);
  join.InputDone(SimpleHashJoinOp::kProbePort, &ctx);
  EXPECT_FALSE(join.finished());

  join.Consume(SimpleHashJoinOp::kBuildPort, ToBatch(left), &ctx);
  join.InputDone(SimpleHashJoinOp::kBuildPort, &ctx);
  EXPECT_TRUE(join.finished());
  EXPECT_EQ(ctx.out.num_tuples(), 1u);
}

TEST(SimpleHashJoinTest, ChargesBuildAndProbeCosts) {
  Relation left = MakeKv({{1, 10}, {2, 20}});
  Relation right = MakeKv({{1, 100}});
  SimpleHashJoinOp join(KvJoinSpec());
  RecordingContext ctx(join.output_schema());
  join.Consume(SimpleHashJoinOp::kBuildPort, ToBatch(left), &ctx);
  join.InputDone(SimpleHashJoinOp::kBuildPort, &ctx);
  join.Consume(SimpleHashJoinOp::kProbePort, ToBatch(right), &ctx);
  join.InputDone(SimpleHashJoinOp::kProbePort, &ctx);
  const CostParams& c = ctx.params;
  EXPECT_EQ(ctx.charged, 2 * (c.tuple_hash + c.tuple_build) +
                             1 * (c.tuple_hash + c.tuple_probe) +
                             1 * c.tuple_result);
}

TEST(SimpleHashJoinTest, TracksPeakMemory) {
  Relation left = MakeKv({{1, 10}, {2, 20}, {3, 30}});
  SimpleHashJoinOp join(KvJoinSpec());
  RecordingContext ctx(join.output_schema());
  join.Consume(SimpleHashJoinOp::kBuildPort, ToBatch(left), &ctx);
  EXPECT_GT(join.peak_memory_bytes(), 0u);
}

// --- PipeliningHashJoinOp ----------------------------------------------------------

TEST(PipeliningHashJoinTest, SymmetricArrivalOrderIrrelevant) {
  Relation left = MakeKv({{1, 10}, {2, 20}, {2, 21}});
  Relation right = MakeKv({{2, 200}, {1, 100}, {5, 500}});
  auto expected = BruteForceJoin(left, right);

  // Try several interleavings; results must always match.
  for (int order = 0; order < 3; ++order) {
    PipeliningHashJoinOp join(KvJoinSpec());
    RecordingContext ctx(join.output_schema());
    if (order == 0) {
      join.Consume(0, ToBatch(left), &ctx);
      join.Consume(1, ToBatch(right), &ctx);
    } else if (order == 1) {
      join.Consume(1, ToBatch(right), &ctx);
      join.Consume(0, ToBatch(left), &ctx);
    } else {
      // Tuple-by-tuple interleaving.
      for (size_t i = 0; i < 3; ++i) {
        Relation l1 = MakeKv({{left.tuple(i).GetInt32(0),
                               left.tuple(i).GetInt32(1)}});
        Relation r1 = MakeKv({{right.tuple(i).GetInt32(0),
                               right.tuple(i).GetInt32(1)}});
        join.Consume(0, ToBatch(l1), &ctx);
        join.Consume(1, ToBatch(r1), &ctx);
      }
    }
    join.InputDone(0, &ctx);
    join.InputDone(1, &ctx);
    EXPECT_TRUE(join.finished());
    EXPECT_EQ(Collect(ctx.out), expected) << "order " << order;
  }
}

TEST(PipeliningHashJoinTest, ProducesOutputBeforeEitherInputEnds) {
  PipeliningHashJoinOp join(KvJoinSpec());
  RecordingContext ctx(join.output_schema());
  join.Consume(0, ToBatch(MakeKv({{7, 70}})), &ctx);
  EXPECT_EQ(ctx.out.num_tuples(), 0u);
  join.Consume(1, ToBatch(MakeKv({{7, 700}})), &ctx);
  // Match emitted immediately, long before InputDone.
  EXPECT_EQ(ctx.out.num_tuples(), 1u);
  EXPECT_FALSE(join.finished());
}

TEST(PipeliningHashJoinTest, DropsObsoleteTableWhenOneSideEnds) {
  PipeliningHashJoinOp join(KvJoinSpec());
  RecordingContext ctx(join.output_schema());
  join.Consume(0, ToBatch(MakeKv({{1, 10}, {2, 20}})), &ctx);
  join.Consume(1, ToBatch(MakeKv({{1, 100}})), &ctx);
  EXPECT_EQ(join.left_table_size(), 2u);
  EXPECT_EQ(join.right_table_size(), 1u);
  // Left input ends: the right table will never be probed again.
  join.InputDone(0, &ctx);
  EXPECT_EQ(join.right_table_size(), 0u);
  // Late right tuples still probe the left table correctly.
  join.Consume(1, ToBatch(MakeKv({{2, 200}})), &ctx);
  EXPECT_EQ(ctx.out.num_tuples(), 2u);
  join.InputDone(1, &ctx);
  EXPECT_TRUE(join.finished());
}

TEST(PipeliningHashJoinTest, MatchesSimpleJoinOnWisconsinData) {
  auto wisc = std::make_shared<const Schema>(WisconsinSchema());
  Relation left = GenerateWisconsin(2000, 1);
  Relation right = GenerateWisconsin(2000, 2);
  auto spec = MakeJoinSpec(wisc, wisc, 0, 0,
                           {JoinOutputColumn::Left(kUnique2),
                            JoinOutputColumn::Right(kUnique2)});
  ASSERT_TRUE(spec.ok());

  SimpleHashJoinOp simple(*spec);
  RecordingContext ctx_simple(simple.output_schema());
  simple.Consume(0, ToBatch(left), &ctx_simple);
  simple.InputDone(0, &ctx_simple);
  simple.Consume(1, ToBatch(right), &ctx_simple);
  simple.InputDone(1, &ctx_simple);

  PipeliningHashJoinOp pipelining(*spec);
  RecordingContext ctx_pipe(pipelining.output_schema());
  pipelining.Consume(1, ToBatch(right), &ctx_pipe);
  pipelining.Consume(0, ToBatch(left), &ctx_pipe);
  pipelining.InputDone(0, &ctx_pipe);
  pipelining.InputDone(1, &ctx_pipe);

  ASSERT_EQ(ctx_simple.out.num_tuples(), 2000u);
  ASSERT_EQ(ctx_pipe.out.num_tuples(), 2000u);
  std::multiset<std::pair<int32_t, int32_t>> a, b;
  for (size_t i = 0; i < 2000; ++i) {
    a.insert({ctx_simple.out.tuple(i).GetInt32(0),
              ctx_simple.out.tuple(i).GetInt32(1)});
    b.insert({ctx_pipe.out.tuple(i).GetInt32(0),
              ctx_pipe.out.tuple(i).GetInt32(1)});
  }
  EXPECT_EQ(a, b);
}

// --- Cancellation-time cost accounting ---------------------------------------

/// Context that reports cancellation once `cancel_after` rows have been
/// emitted — the shape of a real mid-batch teardown, where the host's
/// cancelled() flips while the operator is inside its result loop.
class CancellingContext : public RecordingContext {
 public:
  CancellingContext(std::shared_ptr<const Schema> schema, size_t cancel_after)
      : RecordingContext(std::move(schema)), cancel_after_(cancel_after) {}

  bool cancelled() const override {
    return out.num_tuples() >= cancel_after_;
  }

 private:
  size_t cancel_after_;
};

/// n distinct keys 0..n-1 with values 10*key.
Relation MakeKvRange(int32_t n) {
  std::vector<std::pair<int32_t, int32_t>> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) rows.push_back({i, i * 10});
  return MakeKv(std::move(rows));
}

// A cancellation in the middle of a probe batch must charge exactly the
// tuples processed before the break, not the full batch. Probing is
// chunked (kProbeChunk tuples between cancellation polls), so the break
// lands on the first chunk boundary after the cancel fires.
TEST(SimpleHashJoinTest, CancellationChargesOnlyProcessedTuples) {
  const size_t chunk = SimpleHashJoinOp::kProbeChunk;
  const int32_t n = static_cast<int32_t>(chunk) + 50;
  Relation build = MakeKvRange(n);
  Relation probe = MakeKvRange(n);
  SimpleHashJoinOp join(KvJoinSpec());
  CancellingContext ctx(join.output_schema(), /*cancel_after=*/1);
  join.Consume(SimpleHashJoinOp::kBuildPort, ToBatch(build), &ctx);
  join.InputDone(SimpleHashJoinOp::kBuildPort, &ctx);
  Ticks before_probe = ctx.charged;
  join.Consume(SimpleHashJoinOp::kProbePort, ToBatch(probe), &ctx);
  // Each probe tuple matches exactly once. The cancel fires on the first
  // match, but the operator only polls between chunks: one full chunk is
  // probed (and charged), the remaining 50 tuples are skipped unbilled.
  EXPECT_EQ(ctx.out.num_tuples(), chunk);
  const CostParams& c = ctx.params;
  const Ticks probed = static_cast<Ticks>(chunk);
  EXPECT_EQ(ctx.charged - before_probe,
            probed * (c.tuple_hash + c.tuple_probe) + probed * c.tuple_result);
}

TEST(PipeliningHashJoinTest, CancellationChargesOnlyProcessedTuples) {
  const size_t chunk = PipeliningHashJoinOp::kChunk;
  const int32_t n = static_cast<int32_t>(chunk) + 50;
  Relation left = MakeKvRange(n);
  Relation right = MakeKvRange(n);
  PipeliningHashJoinOp join(KvJoinSpec());
  CancellingContext ctx(join.output_schema(), /*cancel_after=*/1);
  join.Consume(PipeliningHashJoinOp::kLeftPort, ToBatch(left), &ctx);
  Ticks after_left = ctx.charged;
  const CostParams& c = ctx.params;
  // Left went first against an empty right table: all n tuples hashed,
  // probed (no matches), and inserted.
  EXPECT_EQ(after_left, static_cast<Ticks>(n) *
                            (c.tuple_hash + c.tuple_probe + c.tuple_build));
  join.Consume(PipeliningHashJoinOp::kRightPort, ToBatch(right), &ctx);
  // Each right tuple matches once; the cancel fires on the first result
  // but is only polled between chunks, so exactly one chunk is processed
  // (hash+probe+insert each) and the remaining 50 tuples charge nothing.
  EXPECT_EQ(ctx.out.num_tuples(), chunk);
  const Ticks probed = static_cast<Ticks>(chunk);
  EXPECT_EQ(ctx.charged - after_left,
            probed * (c.tuple_hash + c.tuple_probe + c.tuple_build) +
                probed * c.tuple_result);
}

// A batch that arrives already-cancelled must charge nothing.
TEST(PipeliningHashJoinTest, PreCancelledBatchChargesNothing) {
  PipeliningHashJoinOp join(KvJoinSpec());
  CancellingContext ctx(join.output_schema(), /*cancel_after=*/0);
  join.Consume(PipeliningHashJoinOp::kLeftPort,
               ToBatch(MakeKv({{1, 10}})), &ctx);
  EXPECT_EQ(ctx.charged, 0);
  EXPECT_EQ(ctx.out.num_tuples(), 0u);
}

// --- Peak-memory sampling ----------------------------------------------------

// InputDone drops the side that will never be probed again; the peak must
// be sampled before that Clear(), while both tables are still resident.
TEST(PipeliningHashJoinTest, PeakMemorySampledBeforeInputDoneClears) {
  Relation left = MakeKv({{1, 10}, {2, 20}, {3, 30}});
  Relation right = MakeKv({{4, 40}, {5, 50}});
  PipeliningHashJoinOp join(KvJoinSpec());
  RecordingContext ctx(join.output_schema());
  join.Consume(PipeliningHashJoinOp::kLeftPort, ToBatch(left), &ctx);
  join.Consume(PipeliningHashJoinOp::kRightPort, ToBatch(right), &ctx);
  size_t both_resident = join.memory_bytes();
  ASSERT_GT(both_resident, 0u);
  join.InputDone(PipeliningHashJoinOp::kLeftPort, &ctx);
  // The right table was cleared, so current memory dropped...
  EXPECT_LT(join.memory_bytes(), both_resident);
  // ...but the reported peak still covers the both-tables high-water mark.
  EXPECT_GE(join.peak_memory_bytes(), both_resident);
}

// --- Hash-table lifetime counters --------------------------------------------

TEST(JoinHashTableTest, LifetimeCountersSurviveClear) {
  JoinHashTable table(TestSchema(), 0);
  Relation rel = MakeKv({{1, 10}, {2, 20}, {3, 30}});
  for (size_t i = 0; i < rel.num_tuples(); ++i) {
    table.Insert(rel.tuple(i).data());
  }
  EXPECT_EQ(table.total_inserted(), 3u);
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.total_inserted(), 3u);  // lifetime, not current fill
}

TEST(JoinHashTableTest, CountsProbeCollisions) {
  // All keys hash into distinct buckets only if the hash is perfect; with
  // enough keys sharing a table some linear-probing steps are guaranteed
  // once the fill is non-trivial. Use duplicate keys: probing key 5 walks
  // its own chain without counting matches as collisions.
  JoinHashTable table(TestSchema(), 0);
  Relation rel = MakeKv({{5, 1}, {5, 2}, {5, 3}});
  for (size_t i = 0; i < rel.num_tuples(); ++i) {
    table.Insert(rel.tuple(i).data());
  }
  uint64_t before = table.collisions();
  EXPECT_EQ(table.Probe(5, [](const TupleRef&) {}), 3u);
  // Matches are not collisions: probing the duplicate chain adds none.
  EXPECT_EQ(table.collisions(), before);
  // A missing key that lands in the occupied run must step past the
  // occupants, counting one collision per mismatching slot it visits.
  size_t steps_before_probe = table.collisions();
  table.Probe(99, [](const TupleRef&) {});
  EXPECT_GE(table.collisions(), steps_before_probe);
}

// --- Copy runs ---------------------------------------------------------------

// Column-at-a-time assembly, the layout AssembleJoinRow's copy runs must
// reproduce byte for byte.
void AssembleByColumns(const JoinSpec& spec, const TupleRef& left,
                       const TupleRef& right, std::byte* out) {
  TupleWriter writer(out, spec.output_schema.get());
  for (size_t i = 0; i < spec.output_columns.size(); ++i) {
    const JoinOutputColumn& oc = spec.output_columns[i];
    writer.CopyColumn(i, oc.side == 0 ? left : right, oc.column);
  }
}

std::vector<std::byte> RandomRow(const Schema& schema, Random* rng) {
  std::vector<std::byte> row(schema.tuple_size());
  for (std::byte& b : row) b = static_cast<std::byte>(rng->Uniform(256));
  return row;
}

void ExpectRunsMatchColumns(const JoinSpec& spec, Random* rng) {
  const std::vector<std::byte> left = RandomRow(*spec.left_schema, rng);
  const std::vector<std::byte> right = RandomRow(*spec.right_schema, rng);
  const TupleRef l(left.data(), spec.left_schema.get());
  const TupleRef r(right.data(), spec.right_schema.get());
  // Both outputs start from the same bytes, so an unwritten byte shows.
  std::vector<std::byte> want = RandomRow(*spec.output_schema, rng);
  std::vector<std::byte> got = want;
  AssembleByColumns(spec, l, r, want.data());
  AssembleJoinRow(spec, l, r, got.data());
  EXPECT_EQ(got, want);
  size_t copied = 0;
  for (const CopyRun& run : spec.copy_runs) copied += run.length;
  EXPECT_EQ(copied, spec.output_schema->tuple_size());
  EXPECT_LE(spec.copy_runs.size(), spec.output_columns.size());
}

TEST(CopyRunsTest, AssembleJoinRowMatchesColumnCopies) {
  Random rng(20);
  auto wisc = std::make_shared<const Schema>(WisconsinSchema());
  auto kv = TestSchema();

  auto query = MakeWisconsinChainQuery(QueryShape::kLeftLinear, 3, 10);
  ASSERT_TRUE(query.ok()) << query.status();
  auto chain = query->join_spec_factory(query->tree.node(query->tree.root()),
                                        wisc, wisc);
  ASSERT_TRUE(chain.ok()) << chain.status();
  // Left unique2, then the right row from its unique2 to the end.
  EXPECT_EQ(chain->copy_runs.size(), 2u);
  ExpectRunsMatchColumns(*chain, &rng);

  for (auto [left, right] : {std::pair{wisc, kv}, std::pair{kv, wisc},
                             std::pair{wisc, wisc}}) {
    auto concat = MakeNaturalConcatJoinSpec(left, right, 0, 0);
    ASSERT_TRUE(concat.ok()) << concat.status();
    EXPECT_EQ(concat->copy_runs.size(), 2u);
    ExpectRunsMatchColumns(*concat, &rng);
  }

  // Random projections: any side, any column, permuted and repeated.
  for (int trial = 0; trial < 200; ++trial) {
    auto left = rng.Uniform(2) == 0 ? wisc : kv;
    auto right = rng.Uniform(2) == 0 ? wisc : kv;
    std::vector<JoinOutputColumn> outputs;
    const size_t width = 1 + rng.Uniform(24);
    for (size_t i = 0; i < width; ++i) {
      const int side = static_cast<int>(rng.Uniform(2));
      const Schema& src = side == 0 ? *left : *right;
      size_t column = rng.Uniform(src.num_columns());
      // Often continue the previous column, so runs get to merge.
      if (!outputs.empty() && outputs.back().side == side &&
          outputs.back().column + 1 < src.num_columns() && rng.Uniform(2)) {
        column = outputs.back().column + 1;
      }
      outputs.push_back(JoinOutputColumn{side, column});
    }
    auto spec = MakeJoinSpec(left, right, 0, 0, outputs);
    ASSERT_TRUE(spec.ok()) << spec.status();
    ExpectRunsMatchColumns(*spec, &rng);
  }
}

// --- ProjectOp ----------------------------------------------------------------

TEST(ProjectOpTest, SubsetsAndReorders) {
  auto project = ProjectOp::Make(TestSchema(), {1, 0});
  ASSERT_TRUE(project.ok());
  RecordingContext ctx((*project)->output_schema());
  (*project)->Consume(0, ToBatch(MakeKv({{1, 10}, {2, 20}})), &ctx);
  (*project)->InputDone(0, &ctx);
  EXPECT_TRUE((*project)->finished());
  ASSERT_EQ(ctx.out.num_tuples(), 2u);
  EXPECT_EQ(ctx.out.tuple(0).GetInt32(0), 10);
  EXPECT_EQ(ctx.out.tuple(0).GetInt32(1), 1);
}

TEST(ProjectOpTest, RejectsOutOfRangeColumn) {
  EXPECT_FALSE(ProjectOp::Make(TestSchema(), {7}).ok());
}

// --- Routing inside each operator ----------------------------------------------
//
// Each operator runs twice: once into a single destination, once into a
// writer that hash-splits its output over three destinations. Every split
// row must sit in destination FragmentOf(row[split], 3), and the three
// destinations together must hold exactly the single-destination rows.

constexpr uint32_t kRouteDests = 3;

std::multiset<std::string> RowBytes(const TupleBatch& batch) {
  std::multiset<std::string> rows;
  for (size_t i = 0; i < batch.num_tuples(); ++i) {
    const auto* data = reinterpret_cast<const char*>(batch.tuple(i).data());
    rows.emplace(data, batch.schema().tuple_size());
  }
  return rows;
}

/// `drive` builds a fresh operator, opens it on the context and feeds it
/// its whole input.
void ExpectRoutedRows(const std::shared_ptr<const Schema>& schema,
                      int split_column,
                      const std::function<void(OpContext*)>& drive) {
  SCOPED_TRACE(testing::Message() << "split column " << split_column);
  RecordingContext whole(schema);
  drive(&whole);
  ASSERT_GT(whole.out.num_tuples(), 0u);
  RecordingContext split(schema, kRouteDests, split_column);
  drive(&split);
  std::multiset<std::string> rows;
  uint32_t used = 0;
  for (uint32_t d = 0; d < kRouteDests; ++d) {
    const TupleBatch& dest = split.dests[d];
    for (size_t i = 0; i < dest.num_tuples(); ++i) {
      int32_t value =
          dest.tuple(i).GetInt32(static_cast<size_t>(split_column));
      EXPECT_EQ(FragmentOf(value, kRouteDests), d) << "value " << value;
    }
    used += dest.empty() ? 0 : 1;
    rows.merge(RowBytes(dest));
  }
  EXPECT_GT(used, 1u) << "the input should spread over the destinations";
  EXPECT_EQ(rows, RowBytes(whole.out));
}

// Keys 0..39 with two rows each on the left and up to three on the right,
// so matches have duplicates, and left and right values differ.
Relation RouteLeft() {
  Relation rel = MakeKv({});
  for (int32_t k = 0; k < 40; ++k) {
    for (int32_t j = 0; j < 2; ++j) {
      TupleWriter w = rel.AppendTuple();
      w.SetInt32(0, k);
      w.SetInt32(1, 10 * k + j);
    }
  }
  return rel;
}

Relation RouteRight() {
  Relation rel = MakeKv({});
  for (int32_t k = 0; k < 40; ++k) {
    for (int32_t j = 0; j < k % 4; ++j) {
      TupleWriter w = rel.AppendTuple();
      w.SetInt32(0, k);
      w.SetInt32(1, 1000 + 7 * k + j);
    }
  }
  return rel;
}

// Output column 1 comes from the left operand, column 2 from the right.
constexpr int kJoinSplitColumns[] = {1, 2};

TEST(OperatorRoutingTest, SimpleHashJoin) {
  Relation left = RouteLeft();
  Relation right = RouteRight();
  for (int split : kJoinSplitColumns) {
    ExpectRoutedRows(KvJoinSpec().output_schema, split, [&](OpContext* ctx) {
      SimpleHashJoinOp join(KvJoinSpec());
      join.Open(ctx);
      join.Consume(SimpleHashJoinOp::kBuildPort, ToBatch(left), ctx);
      join.InputDone(SimpleHashJoinOp::kBuildPort, ctx);
      join.Consume(SimpleHashJoinOp::kProbePort, ToBatch(right), ctx);
      join.InputDone(SimpleHashJoinOp::kProbePort, ctx);
    });
  }
}

TEST(OperatorRoutingTest, PipeliningHashJoinBothArrivalOrders) {
  Relation left = RouteLeft();
  Relation right = RouteRight();
  for (int first : {PipeliningHashJoinOp::kLeftPort,
                    PipeliningHashJoinOp::kRightPort}) {
    SCOPED_TRACE(testing::Message() << "first port " << first);
    for (int split : kJoinSplitColumns) {
      ExpectRoutedRows(KvJoinSpec().output_schema, split,
                       [&](OpContext* ctx) {
                         PipeliningHashJoinOp join(KvJoinSpec());
                         join.Open(ctx);
                         const int second = 1 - first;
                         join.Consume(first,
                                      ToBatch(first == 0 ? left : right), ctx);
                         join.Consume(second,
                                      ToBatch(second == 0 ? left : right),
                                      ctx);
                         join.InputDone(first, ctx);
                         join.InputDone(second, ctx);
                       });
    }
  }
}

TEST(OperatorRoutingTest, SortMergeJoin) {
  Relation left = RouteLeft();
  Relation right = RouteRight();
  for (int split : kJoinSplitColumns) {
    ExpectRoutedRows(KvJoinSpec().output_schema, split, [&](OpContext* ctx) {
      SortMergeJoinOp join(KvJoinSpec());
      join.Open(ctx);
      join.Consume(0, ToBatch(left), ctx);
      join.Consume(1, ToBatch(right), ctx);
      join.InputDone(0, ctx);
      join.InputDone(1, ctx);
    });
  }
}

TEST(OperatorRoutingTest, ScanFilterProject) {
  auto wisc = std::make_shared<const Schema>(WisconsinSchema());
  Relation rel = GenerateWisconsin(300, 11);
  ExpectRoutedRows(wisc, kUnique2, [&](OpContext* ctx) {
    ScanOp scan([&rel] { return &rel; }, wisc);
    scan.Open(ctx);
    while (scan.Produce(ctx)) {
    }
  });
  ExpectRoutedRows(wisc, kUnique2, [&](OpContext* ctx) {
    auto filter =
        FilterOp::Make(wisc, FilterPredicate{kTen, CompareOp::kLt, 6, 0});
    ASSERT_TRUE(filter.ok());
    (*filter)->Open(ctx);
    (*filter)->Consume(0, ToBatch(rel), ctx);
    (*filter)->InputDone(0, ctx);
  });
  // Output column 1 is input column kUnique1.
  auto project = ProjectOp::Make(wisc, {kTen, kUnique1, kUnique2});
  ASSERT_TRUE(project.ok());
  ExpectRoutedRows((*project)->output_schema(), 1, [&](OpContext* ctx) {
    auto op = ProjectOp::Make(wisc, {kTen, kUnique1, kUnique2});
    ASSERT_TRUE(op.ok());
    (*op)->Open(ctx);
    (*op)->Consume(0, ToBatch(rel), ctx);
    (*op)->InputDone(0, ctx);
  });
}

TEST(OperatorRoutingTest, AggregateOnGroupMinAndMax) {
  auto wisc = std::make_shared<const Schema>(WisconsinSchema());
  Relation rel = GenerateWisconsin(500, 13);
  // Grouped on unique1 % 20 but aggregating unique2, so a group's min and
  // max route independently of the group.
  auto aggregate = AggregateOp::Make(wisc, kTwenty, kUnique2);
  ASSERT_TRUE(aggregate.ok());
  // Output columns: 0 group, 1 count, 2 sum, 3 min, 4 max.
  for (int split : {0, 3, 4}) {
    ExpectRoutedRows((*aggregate)->output_schema(), split,
                     [&](OpContext* ctx) {
                       auto op = AggregateOp::Make(wisc, kTwenty, kUnique2);
                       ASSERT_TRUE(op.ok());
                       (*op)->Open(ctx);
                       (*op)->Consume(0, ToBatch(rel), ctx);
                       (*op)->InputDone(0, ctx);
                     });
  }
}

}  // namespace
}  // namespace mjoin
