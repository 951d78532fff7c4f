#include "engine/result.h"

#include "common/random.h"

namespace mjoin {

namespace {

constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// HashRowBytes of four rows at once, summed. One row's FNV-1a is a serial
/// chain of multiplies, each waiting on the last; four rows in lockstep
/// are four independent chains, so each byte's multiply overlaps the other
/// rows' instead of stalling. The byte loop is unrolled by hand: without
/// it the compiler keeps the loop control between every step.
uint64_t SumFourRowHashes(const std::byte* rows, size_t size) {
  const std::byte* r0 = rows;
  const std::byte* r1 = r0 + size;
  const std::byte* r2 = r1 + size;
  const std::byte* r3 = r2 + size;
  uint64_t h0 = kFnvOffsetBasis;
  uint64_t h1 = kFnvOffsetBasis;
  uint64_t h2 = kFnvOffsetBasis;
  uint64_t h3 = kFnvOffsetBasis;
  auto step = [&](size_t i) {
    h0 = (h0 ^ std::to_integer<uint64_t>(r0[i])) * kFnvPrime;
    h1 = (h1 ^ std::to_integer<uint64_t>(r1[i])) * kFnvPrime;
    h2 = (h2 ^ std::to_integer<uint64_t>(r2[i])) * kFnvPrime;
    h3 = (h3 ^ std::to_integer<uint64_t>(r3[i])) * kFnvPrime;
  };
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    step(i);
    step(i + 1);
    step(i + 2);
    step(i + 3);
    step(i + 4);
    step(i + 5);
    step(i + 6);
    step(i + 7);
  }
  for (; i < size; ++i) step(i);
  return Mix64(h0) + Mix64(h1) + Mix64(h2) + Mix64(h3);
}

}  // namespace

uint64_t HashRowBytes(const std::byte* row, size_t size) {
  uint64_t hash = kFnvOffsetBasis;
  for (size_t i = 0; i < size; ++i) {
    hash ^= std::to_integer<uint64_t>(row[i]);
    hash *= kFnvPrime;
  }
  return Mix64(hash);
}

uint64_t SumRowHashes(const std::byte* rows, size_t num_rows,
                      size_t row_size) {
  uint64_t sum = 0;
  size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    sum += SumFourRowHashes(rows + r * row_size, row_size);
  }
  for (; r < num_rows; ++r) sum += HashRowBytes(rows + r * row_size, row_size);
  return sum;
}

ResultSummary SummarizeRelation(const Relation& relation) {
  return {relation.num_tuples(),
          SumRowHashes(relation.raw_data(), relation.num_tuples(),
                       relation.schema().tuple_size())};
}

}  // namespace mjoin
