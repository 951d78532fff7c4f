// Microbenchmarks of the execution-layer primitives: the join hash table
// and the two hash-join operators (Figure 1's simple vs pipelining
// algorithm, including the pipelining join's earlier time-to-first-output,
// which is what enables FP's dataflow execution).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "engine/result.h"
#include "exec/emit.h"
#include "exec/hash_table.h"
#include "exec/join_row.h"
#include "exec/pipelining_hash_join.h"
#include "exec/simple_hash_join.h"
#include "storage/partitioner.h"
#include "storage/wisconsin.h"

namespace mjoin {
namespace {

std::shared_ptr<const Schema> Wisc() {
  return std::make_shared<const Schema>(WisconsinSchema());
}

// A no-cost OpContext that takes output through an EmitWriter with one
// destination, as the engine hosts do, and drops each full batch. The
// benchmarks count its committed rows and note when the first one
// appeared (in consumed input tuples).
class CountingContext : public OpContext, public EmitSink {
 public:
  explicit CountingContext(std::shared_ptr<const Schema> schema)
      : pending(std::move(schema)) {
    writer.Configure(&pending, 1, /*split_column=*/-1, /*fixed_dest=*/0,
                     params.batch_size, this);
  }
  void Charge(Ticks) override {}
  EmitWriter& emit_writer() override { return writer; }
  const CostParams& costs() const override { return params; }
  void BatchFull(uint32_t) override { pending.Clear(); }

  int64_t emitted() const {
    return static_cast<int64_t>(writer.rows_committed());
  }
  /// Call after each input batch: `consumed` counts that batch too.
  void NoteConsumed(int64_t consumed) {
    if (first_output < 0 && emitted() > 0) first_output = consumed;
  }

  CostParams params;
  TupleBatch pending;
  EmitWriter writer;
  int64_t first_output = -1;
};

void BM_HashTableInsert(benchmark::State& state) {
  auto n = static_cast<uint32_t>(state.range(0));
  Relation rel = GenerateWisconsin(n, 1);
  for (auto _ : state) {
    JoinHashTable table(Wisc(), kUnique1);
    for (size_t i = 0; i < rel.num_tuples(); ++i) {
      table.Insert(rel.tuple(i).data());
    }
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashTableInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_HashTableProbe(benchmark::State& state) {
  auto n = static_cast<uint32_t>(state.range(0));
  Relation rel = GenerateWisconsin(n, 1);
  JoinHashTable table(Wisc(), kUnique1);
  for (size_t i = 0; i < rel.num_tuples(); ++i) {
    table.Insert(rel.tuple(i).data());
  }
  size_t matches = 0;
  for (auto _ : state) {
    for (uint32_t k = 0; k < n; ++k) {
      matches += table.Probe(static_cast<int32_t>(k),
                             [](const TupleRef&) {});
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashTableProbe)->Arg(1000)->Arg(10000)->Arg(100000);

// What a join instance sees on a 4-processor plan: the build rows of one
// FragmentOf(unique1, 4) fragment of a 4n-row relation (~n rows), probed
// with that fragment's keys, 128 at a time as the joins probe. The keys
// share the low bits of their hash, which BM_HashTableProbe's full key
// range does not show.
void BM_HashTableProbeFragment(benchmark::State& state) {
  auto n = static_cast<uint32_t>(state.range(0));
  Relation rel = GenerateWisconsin(4 * n, 1);
  JoinHashTable table(Wisc(), kUnique1);
  std::vector<int32_t> keys;
  for (size_t i = 0; i < rel.num_tuples(); ++i) {
    const int32_t key = rel.tuple(i).GetInt32(kUnique1);
    if (FragmentOf(key, 4) != 0) continue;
    table.Insert(rel.tuple(i).data());
    keys.push_back(key);
  }
  constexpr size_t kChunk = 128;
  const uint64_t insert_collisions = table.collisions();
  size_t matches = 0;
  for (auto _ : state) {
    for (size_t lo = 0; lo < keys.size(); lo += kChunk) {
      matches += table.ProbeBatch(keys.data() + lo,
                                  std::min(kChunk, keys.size() - lo),
                                  [](size_t, const TupleRef&) {});
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
  state.counters["collisions_per_probe"] =
      static_cast<double>(table.collisions() - insert_collisions) /
      static_cast<double>(state.iterations() * keys.size());
}
BENCHMARK(BM_HashTableProbeFragment)->Arg(1000)->Arg(10000)->Arg(100000);

JoinSpec ChainSpec() {
  std::vector<JoinOutputColumn> outputs = {JoinOutputColumn::Left(kUnique2),
                                           JoinOutputColumn::Right(kUnique2)};
  for (size_t c = 2; c < WisconsinSchema().num_columns(); ++c) {
    outputs.push_back(JoinOutputColumn::Right(c));
  }
  auto spec = MakeJoinSpec(Wisc(), Wisc(), 0, 0, std::move(outputs));
  MJOIN_CHECK(spec.ok());
  return *std::move(spec);
}

// Output-row assembly of the Wisconsin chain join (ChainSpec): n rows
// built from n (left, right) pairs into one output buffer.
void BM_AssembleJoinRow(benchmark::State& state) {
  auto n = static_cast<uint32_t>(state.range(0));
  Relation left = GenerateWisconsin(n, 1);
  Relation right = GenerateWisconsin(n, 2);
  const JoinSpec spec = ChainSpec();
  const size_t width = spec.output_schema->tuple_size();
  std::vector<std::byte> out(static_cast<size_t>(n) * width);
  for (auto _ : state) {
    for (size_t i = 0; i < n; ++i) {
      AssembleJoinRow(spec, left.tuple(i), right.tuple(i),
                      out.data() + i * width);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AssembleJoinRow)->Arg(1000)->Arg(10000);

/// `rel` cut into batches of `batch_size` rows, built once so the timed
/// loops measure the join, not the input copy.
std::vector<TupleBatch> ToBatches(const Relation& rel, size_t batch_size) {
  auto schema = std::make_shared<const Schema>(rel.schema());
  std::vector<TupleBatch> batches;
  for (size_t lo = 0; lo < rel.num_tuples(); lo += batch_size) {
    batches.emplace_back(schema);
    batches.back().AppendRows(rel.tuple(lo).data(),
                              std::min(batch_size, rel.num_tuples() - lo));
  }
  return batches;
}

void BM_SimpleHashJoin(benchmark::State& state) {
  auto n = static_cast<uint32_t>(state.range(0));
  const uint32_t kBatch = 256;
  const std::vector<TupleBatch> left =
      ToBatches(GenerateWisconsin(n, 1), kBatch);
  const std::vector<TupleBatch> right =
      ToBatches(GenerateWisconsin(n, 2), kBatch);
  for (auto _ : state) {
    SimpleHashJoinOp join(ChainSpec());
    CountingContext ctx(join.output_schema());
    for (const TupleBatch& b : left) {
      join.Consume(SimpleHashJoinOp::kBuildPort, b, &ctx);
    }
    join.InputDone(SimpleHashJoinOp::kBuildPort, &ctx);
    for (const TupleBatch& b : right) {
      join.Consume(SimpleHashJoinOp::kProbePort, b, &ctx);
    }
    join.InputDone(SimpleHashJoinOp::kProbePort, &ctx);
    MJOIN_CHECK(static_cast<uint32_t>(ctx.emitted()) == n);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_SimpleHashJoin)->Arg(10000)->Arg(40000);

void BM_PipeliningHashJoin(benchmark::State& state) {
  auto n = static_cast<uint32_t>(state.range(0));
  const uint32_t kBatch = 256;
  const std::vector<TupleBatch> left =
      ToBatches(GenerateWisconsin(n, 1), kBatch);
  const std::vector<TupleBatch> right =
      ToBatches(GenerateWisconsin(n, 2), kBatch);
  int64_t first_output = 0;
  for (auto _ : state) {
    PipeliningHashJoinOp join(ChainSpec());
    CountingContext ctx(join.output_schema());
    int64_t consumed = 0;
    // Interleave both inputs, as the symmetric algorithm expects.
    for (size_t b = 0; b < left.size(); ++b) {
      const TupleBatch& bl = left[b];
      consumed += static_cast<int64_t>(bl.num_tuples());
      join.Consume(PipeliningHashJoinOp::kLeftPort, bl, &ctx);
      ctx.NoteConsumed(consumed);
      const TupleBatch& br = right[b];
      consumed += static_cast<int64_t>(br.num_tuples());
      join.Consume(PipeliningHashJoinOp::kRightPort, br, &ctx);
      ctx.NoteConsumed(consumed);
    }
    join.InputDone(PipeliningHashJoinOp::kLeftPort, &ctx);
    join.InputDone(PipeliningHashJoinOp::kRightPort, &ctx);
    MJOIN_CHECK(static_cast<uint32_t>(ctx.emitted()) == n);
    first_output = ctx.first_output;
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
  // Fraction of the input consumed before the first result appeared: the
  // pipelining join produces output almost immediately (the simple join
  // only after the entire build input).
  state.counters["first_output_frac"] =
      static_cast<double>(first_output) / (2.0 * n);
}
BENCHMARK(BM_PipeliningHashJoin)->Arg(10000)->Arg(40000);

}  // namespace
}  // namespace mjoin

BENCHMARK_MAIN();
