#include "exec/hash_table.h"

#include <bit>
#include <cstring>
#include <limits>

namespace mjoin {

namespace {

constexpr size_t kMinCapacity = 64;

// The table grows before an insert that would find it 70% full.
bool NeedsGrow(size_t rows, size_t capacity) {
  return rows * 10 >= capacity * 7;
}

}  // namespace

JoinHashTable::JoinHashTable(std::shared_ptr<const Schema> schema,
                             size_t key_column)
    : schema_(std::move(schema)), key_column_(key_column) {
  MJOIN_CHECK(key_column_ < schema_->num_columns());
  MJOIN_CHECK(schema_->column(key_column_).type == ColumnType::kInt32);
  key_offset_ = schema_->offset(key_column_);
  row_bytes_ = schema_->tuple_size();
}

void JoinHashTable::InsertRows(const std::byte* rows, size_t n) {
  if (n == 0) return;
  MJOIN_CHECK(n < std::numeric_limits<uint32_t>::max() - num_rows_)
      << "join hash table holds at most 2^32 - 2 rows";
  const size_t first_row = num_rows_;
  // Grow the arena to a power-of-two row count, as row-at-a-time appends
  // would, so batch sizes do not change the table's footprint.
  const size_t arena_rows = std::bit_ceil(num_rows_ + n);
  if (arena_.capacity() < arena_rows * row_bytes_) {
    arena_.reserve(arena_rows * row_bytes_);
  }
  arena_.insert(arena_.end(), rows, rows + n * row_bytes_);
  for (size_t i = 0; i < n; ++i) {
    if (NeedsGrow(num_rows_, capacity_)) Grow();
    int32_t key;
    std::memcpy(&key, rows + i * row_bytes_ + key_offset_, sizeof(key));
    insert_collisions_ +=
        PlaceSlot(Slot{key, static_cast<uint32_t>(num_rows_ + 1)});
    ++num_rows_;
  }
  total_inserted_ += n;
  ReserveInserted(first_row);
}

size_t JoinHashTable::PlaceSlot(Slot slot) {
  const size_t mask = capacity_ - 1;
  size_t at = HomeSlot(slot.key);
  size_t steps = 0;
  while (slots_[at].row != 0) {
    ++steps;
    at = (at + 1) & mask;
  }
  slots_[at] = slot;
  return steps;
}

size_t JoinHashTable::CapacityFor(size_t rows) {
  size_t capacity = 0;
  // Row `rows` was inserted with rows - 1 already present.
  while (rows > 0 && NeedsGrow(rows - 1, capacity)) {
    capacity = capacity == 0 ? kMinCapacity : capacity * 2;
  }
  return capacity;
}

void JoinHashTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  capacity_ = capacity_ == 0 ? kMinCapacity : capacity_ * 2;
  shift_ = 64 - std::countr_zero(capacity_);
  slots_.assign(capacity_, Slot{});
  if (old.empty()) return;
  // Rehash from the slots, starting just past an empty one so every chain
  // is re-placed in walk order: equal keys keep their insertion order,
  // and so do a probe's matches. Rehash steps are an artifact of growth,
  // not of key clustering, so they stay out of the collision counters.
  size_t start = 0;
  while (old[start].row != 0) ++start;
  const size_t old_mask = old.size() - 1;
  for (size_t i = 1; i <= old.size(); ++i) {
    const Slot& slot = old[(start + i) & old_mask];
    if (slot.row != 0) PlaceSlot(slot);
  }
}

void JoinHashTable::ReserveInserted(size_t first_row) {
  if (!reservation_.attached()) return;
  if (reservation_.Resize(memory_bytes()).ok()) return;
  over_budget_ = true;
  // Reserve what row-at-a-time inserts would have held when the budget
  // ran out: the footprint of the longest prefix of the batch that fits.
  for (size_t rows = first_row + 1; rows <= num_rows_; ++rows) {
    const size_t bytes = rows * row_bytes_ + CapacityFor(rows) * sizeof(Slot);
    if (!reservation_.Resize(bytes).ok()) break;
  }
}

void JoinHashTable::Clear() {
  num_rows_ = 0;
  capacity_ = 0;
  shift_ = 64;
  slots_.clear();
  slots_.shrink_to_fit();
  arena_.clear();
  arena_.shrink_to_fit();
  // Safe to drop: shrinking a reservation to zero only releases bytes and
  // cannot fail.
  if (reservation_.attached()) (void)reservation_.Resize(0);
}

void JoinHashTable::AttachBudget(MemoryBudget* budget) {
  reservation_.Attach(budget);
  over_budget_ = false;
  if (budget != nullptr && memory_bytes() > 0) {
    over_budget_ = !reservation_.Resize(memory_bytes()).ok();
  }
}

}  // namespace mjoin
