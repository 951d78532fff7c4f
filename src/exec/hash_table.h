#ifndef MJOIN_EXEC_HASH_TABLE_H_
#define MJOIN_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/memory_budget.h"
#include "storage/partitioner.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace mjoin {

/// Join hash table over an int32 key: open addressing with linear probing,
/// duplicate keys stored as separate slots, rows copied into a contiguous
/// arena. This is the main-memory hash table both the simple and the
/// pipelining hash-join build.
///
/// Each 8-byte slot carries the row's key next to its arena index, so a
/// probe step over a non-matching key reads only the slot array. A key's
/// home slot is taken from the *high* bits of HashJoinKey: the low bits
/// pick the key's fragment (FragmentOf is the hash mod P), so within one
/// fragment they are fixed whenever P is a power of two.
class JoinHashTable {
 public:
  JoinHashTable(std::shared_ptr<const Schema> schema, size_t key_column);

  JoinHashTable(const JoinHashTable&) = delete;
  JoinHashTable& operator=(const JoinHashTable&) = delete;

  /// Copies `row` (schema().tuple_size() bytes) into the table.
  void Insert(const std::byte* row) { InsertRows(row, 1); }

  /// Copies `n` contiguous rows into the table with one arena append and
  /// one budget reservation. Same table, counters and budget outcome as
  /// `n` calls to Insert.
  void InsertRows(const std::byte* rows, size_t n);

  /// Invokes `fn(TupleRef)` for every stored row whose key equals `key`,
  /// in insertion order. Returns the number of matches.
  template <typename Fn>
  size_t Probe(int32_t key, Fn&& fn) const {
    if (capacity_ == 0) return 0;
    return WalkChain(HomeSlot(key), key, fn);
  }

  /// Batch-at-a-time probe: first hashes all `n` keys in one tight pass
  /// (no table accesses, so the loop vectorizes and the key loads stream),
  /// then walks each key's slot chain. Invokes `fn(i, TupleRef)` for every
  /// stored row matching keys[i], in ascending i. Returns the total number
  /// of matches. Equivalent to calling Probe(keys[i], ...) for each i.
  template <typename Fn>
  size_t ProbeBatch(const int32_t* keys, size_t n, Fn&& fn) const {
    if (capacity_ == 0 || n == 0) return 0;
    probe_slots_.resize(n);
    for (size_t i = 0; i < n; ++i) probe_slots_[i] = HomeSlot(keys[i]);
    size_t matches = 0;
    for (size_t i = 0; i < n; ++i) {
      matches += WalkChain(probe_slots_[i], keys[i],
                           [&](const TupleRef& row) { fn(i, row); });
    }
    return matches;
  }

  /// Invokes `fn(TupleRef)` for every stored row, in insertion order —
  /// the arena scan the skew defense uses to sketch and Bloom-index the
  /// completed build side.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (size_t i = 0; i < num_rows_; ++i) fn(RowAt(i));
  }

  size_t size() const { return num_rows_; }
  /// Arena + slot array footprint, for the paper's FP-uses-more-memory
  /// observation.
  size_t memory_bytes() const {
    return arena_.size() + slots_.size() * sizeof(Slot);
  }

  const Schema& schema() const { return *schema_; }
  size_t key_column() const { return key_column_; }

  /// Lifetime observability counters; they survive Clear() so a join that
  /// drops a drained table still reports what the table cost to run.
  /// Rows ever inserted (size() reports only the *current* fill).
  uint64_t total_inserted() const { return total_inserted_; }
  /// Occupied slots stepped over: non-matching keys visited during probes
  /// plus linear-probing steps during inserts (rehashing excluded). High
  /// values relative to total_inserted() mean clustered keys.
  uint64_t collisions() const { return probe_collisions_ + insert_collisions_; }

  /// Releases all storage (used when a pipelining join drains one side).
  void Clear();

  /// Accounts this table's footprint against `budget` (null detaches). An
  /// insert can never fail mid-batch, so an overflowing reservation
  /// instead reserves the prefix of the batch that fits and latches
  /// over_budget(); the owning join checks it after every batch and
  /// aborts the query via OpContext::ReportError.
  void AttachBudget(MemoryBudget* budget);
  bool over_budget() const { return over_budget_; }

 private:
  /// `row` is the arena index + 1; 0 marks an empty slot.
  struct Slot {
    int32_t key = 0;
    uint32_t row = 0;
  };
  static_assert(sizeof(Slot) == 8);

  size_t HomeSlot(int32_t key) const {
    return static_cast<size_t>(HashJoinKey(key) >> shift_);
  }

  TupleRef RowAt(size_t row_index) const {
    return TupleRef(arena_.data() + row_index * row_bytes_, schema_.get());
  }

  /// Walks the chain from `slot`, calling fn(TupleRef) on each row whose
  /// key is `key`. Only matches touch the arena.
  template <typename Fn>
  size_t WalkChain(size_t slot, int32_t key, Fn&& fn) const {
    const size_t mask = capacity_ - 1;
    size_t matches = 0;
    uint64_t steps = 0;
    for (; slots_[slot].row != 0; slot = (slot + 1) & mask) {
      if (slots_[slot].key == key) {
        ++matches;
        fn(RowAt(slots_[slot].row - 1));
      } else {
        ++steps;
      }
    }
    probe_collisions_ += steps;
    return matches;
  }

  /// Stores `slot` at the first free slot from its key's home; returns
  /// the number of occupied slots stepped over.
  size_t PlaceSlot(Slot slot);
  /// Capacity the growth rule reaches once `rows` rows are inserted.
  static size_t CapacityFor(size_t rows);
  void Grow();
  /// Brings the reservation up to memory_bytes() after rows
  /// [first_row, size()) were inserted.
  void ReserveInserted(size_t first_row);

  std::shared_ptr<const Schema> schema_;
  size_t key_column_;
  size_t key_offset_;
  size_t row_bytes_;
  size_t num_rows_ = 0;
  size_t capacity_ = 0;  // power of two; 0 until first insert
  int shift_ = 64;       // 64 - log2(capacity_): home = hash >> shift_
  std::vector<Slot> slots_;
  std::vector<std::byte> arena_;
  MemoryReservation reservation_;
  bool over_budget_ = false;
  // Mutable: Probe() is logically const; instances are single-threaded.
  // probe_slots_ is ProbeBatch's reusable start-slot scratch (capacity
  // retained across batches, so the probe path allocates nothing in
  // steady state).
  mutable std::vector<size_t> probe_slots_;
  mutable uint64_t probe_collisions_ = 0;
  uint64_t insert_collisions_ = 0;
  uint64_t total_inserted_ = 0;
};

}  // namespace mjoin

#endif  // MJOIN_EXEC_HASH_TABLE_H_
