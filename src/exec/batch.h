#ifndef MJOIN_EXEC_BATCH_H_
#define MJOIN_EXEC_BATCH_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace mjoin {

/// A batch of fixed-layout rows travelling over a tuple stream. Batches
/// own their bytes and share the schema, so they can move freely between
/// simulated nodes and real threads.
///
/// Zero-size row layouts are rejected at construction: every row counted
/// by num_tuples() must occupy at least one byte, which lets the hot-path
/// accessors divide by tuple_size() unguarded.
class TupleBatch {
 public:
  explicit TupleBatch(std::shared_ptr<const Schema> schema)
      : schema_(std::move(schema)) {
    MJOIN_CHECK(schema_ != nullptr && schema_->tuple_size() > 0)
        << "TupleBatch requires a non-empty row layout";
  }

  TupleBatch(TupleBatch&&) = default;
  TupleBatch& operator=(TupleBatch&&) = default;
  TupleBatch(const TupleBatch&) = delete;
  TupleBatch& operator=(const TupleBatch&) = delete;

  const Schema& schema() const { return *schema_; }
  const std::shared_ptr<const Schema>& shared_schema() const {
    return schema_;
  }

  size_t num_tuples() const { return data_.size() / schema_->tuple_size(); }
  bool empty() const { return data_.empty(); }
  size_t byte_size() const { return data_.size(); }
  size_t capacity_bytes() const { return data_.capacity(); }

  void Reserve(size_t num_tuples) {
    data_.reserve(num_tuples * schema_->tuple_size());
  }

  void AppendRow(const std::byte* row) {
    data_.insert(data_.end(), row, row + schema_->tuple_size());
  }

  /// Appends `count` contiguous rows (count * tuple_size() bytes) in one
  /// copy.
  void AppendRows(const std::byte* rows, size_t count) {
    data_.insert(data_.end(), rows, rows + count * schema_->tuple_size());
  }

  /// Appends `count` rows, each starting `stride` bytes after the previous
  /// one; a stride of tuple_size() is the one-copy contiguous case.
  void AppendRows(const std::byte* rows, size_t count, size_t stride) {
    const size_t row_bytes = schema_->tuple_size();
    if (stride == row_bytes) {
      AppendRows(rows, count);
      return;
    }
    const size_t old = data_.size();
    data_.resize(old + count * row_bytes);
    std::byte* out = data_.data() + old;
    for (size_t i = 0; i < count; ++i) {
      std::memcpy(out + i * row_bytes, rows + i * stride, row_bytes);
    }
  }

  /// Appends an uninitialized row; the returned writer is invalidated by
  /// the next append.
  TupleWriter AppendTuple() {
    size_t old = data_.size();
    data_.resize(old + schema_->tuple_size());
    return TupleWriter(data_.data() + old, schema_.get());
  }

  TupleRef tuple(size_t i) const {
    return TupleRef(data_.data() + i * schema_->tuple_size(), schema_.get());
  }

  const std::byte* raw_data() const { return data_.data(); }

  void Clear() { data_.clear(); }

  /// Empties the batch and rebinds it to `schema`, keeping the byte
  /// buffer's capacity — how BatchPool recycles buffers across operators
  /// with different row layouts.
  void ResetSchema(std::shared_ptr<const Schema> schema) {
    MJOIN_CHECK(schema != nullptr && schema->tuple_size() > 0)
        << "TupleBatch requires a non-empty row layout";
    schema_ = std::move(schema);
    data_.clear();
  }

 private:
  std::shared_ptr<const Schema> schema_;
  std::vector<std::byte> data_;
};

}  // namespace mjoin

#endif  // MJOIN_EXEC_BATCH_H_
