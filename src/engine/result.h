#ifndef MJOIN_ENGINE_RESULT_H_
#define MJOIN_ENGINE_RESULT_H_

#include <cstddef>
#include <cstdint>

#include "storage/relation.h"

namespace mjoin {

/// Order-insensitive digest of a set of rows: the sum (mod 2^64) of a
/// 64-bit hash of each row's bytes. Two executions produce the same
/// summary iff they produced the same multiset of tuples, regardless of
/// ordering or fragmentation — the cross-strategy correctness check.
/// Summaries of disjoint fragments add up to the summary of their union.
struct ResultSummary {
  uint64_t cardinality = 0;
  uint64_t checksum = 0;

  ResultSummary& operator+=(const ResultSummary& other) {
    cardinality += other.cardinality;
    checksum += other.checksum;
    return *this;
  }
  bool operator==(const ResultSummary&) const = default;
};

/// 64-bit FNV-1a of the row bytes, finalized with a strong mixer.
uint64_t HashRowBytes(const std::byte* row, size_t size);

/// Sum (mod 2^64) of HashRowBytes over `num_rows` rows of `row_size` bytes
/// stored back to back from `rows`, at any alignment. Bit-identical to
/// summing HashRowBytes row by row, several times faster.
uint64_t SumRowHashes(const std::byte* rows, size_t num_rows, size_t row_size);

/// Summary over a whole relation.
ResultSummary SummarizeRelation(const Relation& relation);

}  // namespace mjoin

#endif  // MJOIN_ENGINE_RESULT_H_
