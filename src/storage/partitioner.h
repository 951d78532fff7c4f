#ifndef MJOIN_STORAGE_PARTITIONER_H_
#define MJOIN_STORAGE_PARTITIONER_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "common/statusor.h"
#include "storage/relation.h"

namespace mjoin {

/// Hash used for all hash partitioning and join hash tables, so that a
/// relation fragmented on its join attribute lands build and probe tuples
/// with equal keys on the same fragment/bucket. FragmentOf takes the hash
/// mod P, its low bits when P is a power of two; a join hash table homes
/// its slots on the high bits, which stay uniform within one fragment.
inline uint64_t HashJoinKey(int32_t key) {
  return Mix64(static_cast<uint64_t>(static_cast<uint32_t>(key)));
}

/// Maps a join key to one of `num_fragments` destinations.
inline uint32_t FragmentOf(int32_t key, uint32_t num_fragments) {
  return static_cast<uint32_t>(HashJoinKey(key) % num_fragments);
}

/// Which of `num_fragments()` fragments each row of a relation belongs to
/// when the relation is declustered: by FragmentOf of an int32 key column,
/// or round robin by row number. This is the system's one membership rule:
/// the partitioners below copy rows by it, and a scan reads its fragment
/// straight out of the base relation by it (exec/scan.h).
class FragmentRule {
 public:
  /// Row r belongs to fragment r % num_fragments (> 0).
  static FragmentRule RoundRobin(uint32_t num_fragments);
  /// A row belongs to FragmentOf(its int32 column `key_column`). Fails
  /// when num_fragments is 0 or the column is missing or not int32.
  static StatusOr<FragmentRule> Hash(const Schema& schema, size_t key_column,
                                     uint32_t num_fragments);

  uint32_t num_fragments() const { return num_fragments_; }
  bool round_robin() const { return key_offset_ < 0; }

  /// The fragment of row number `r`, whose bytes start at `row`.
  uint32_t Of(size_t r, const std::byte* row) const {
    if (key_offset_ < 0) return static_cast<uint32_t>(r % num_fragments_);
    int32_t key;
    std::memcpy(&key, row + key_offset_, sizeof(key));
    return FragmentOf(key, num_fragments_);
  }

 private:
  FragmentRule(uint32_t num_fragments, int64_t key_offset)
      : num_fragments_(num_fragments), key_offset_(key_offset) {}

  uint32_t num_fragments_;
  /// Byte offset of the key within a row; -1 for round robin.
  int64_t key_offset_;
};

/// Splits `input` into `num_fragments` relations by hash of the int32
/// column `key_column` (the shared-nothing "declustering" of PRISMA/DB).
StatusOr<std::vector<Relation>> HashPartition(const Relation& input,
                                              size_t key_column,
                                              uint32_t num_fragments);

/// Splits `input` into `num_fragments` relations round-robin (used for
/// non-key declustering). Both splits keep base order within a fragment.
std::vector<Relation> RoundRobinPartition(const Relation& input,
                                          uint32_t num_fragments);

/// Splits `input` by equal-width ranges of the int32 column `key_column`
/// over [lo, hi].
StatusOr<std::vector<Relation>> RangePartition(const Relation& input,
                                               size_t key_column,
                                               uint32_t num_fragments,
                                               int32_t lo, int32_t hi);

/// Concatenates fragments back into one relation (order = fragment order).
Relation ConcatFragments(const std::vector<Relation>& fragments);

}  // namespace mjoin

#endif  // MJOIN_STORAGE_PARTITIONER_H_
