// Microbenchmarks of the storage substrate: Wisconsin data generation,
// hash declustering (the engine's initial fragmentation), and the
// order-insensitive result digest used for cross-strategy verification.
#include <benchmark/benchmark.h>

#include "engine/result.h"
#include "storage/partitioner.h"
#include "storage/wisconsin.h"

namespace mjoin {
namespace {

void BM_GenerateWisconsin(benchmark::State& state) {
  auto n = static_cast<uint32_t>(state.range(0));
  uint64_t seed = 1;
  for (auto _ : state) {
    Relation rel = GenerateWisconsin(n, seed++);
    benchmark::DoNotOptimize(rel.num_tuples());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * 208);
}
BENCHMARK(BM_GenerateWisconsin)->Arg(5000)->Arg(40000);

void BM_HashPartition(benchmark::State& state) {
  auto n = static_cast<uint32_t>(state.range(0));
  auto fragments = static_cast<uint32_t>(state.range(1));
  Relation rel = GenerateWisconsin(n, 7);
  for (auto _ : state) {
    auto parts = HashPartition(rel, kUnique1, fragments);
    MJOIN_CHECK(parts.ok());
    benchmark::DoNotOptimize(parts->size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HashPartition)
    ->Args({40000, 8})
    ->Args({40000, 80})
    ->Args({5000, 80});

void BM_ResultSummary(benchmark::State& state) {
  auto n = static_cast<uint32_t>(state.range(0));
  Relation rel = GenerateWisconsin(n, 9);
  for (auto _ : state) {
    ResultSummary summary = SummarizeRelation(rel);
    benchmark::DoNotOptimize(summary.checksum);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() * n * 208);
}
// 40001 is not a multiple of four: it also times the leftover row that the
// four-row kernel hands to HashRowBytes.
BENCHMARK(BM_ResultSummary)->Arg(5000)->Arg(40000)->Arg(40001);

}  // namespace
}  // namespace mjoin

BENCHMARK_MAIN();
