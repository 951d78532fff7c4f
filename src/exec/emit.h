#ifndef MJOIN_EXEC_EMIT_H_
#define MJOIN_EXEC_EMIT_H_

#include <cstdint>
#include <cstring>
#include <optional>

#include "common/logging.h"
#include "exec/batch.h"
#include "storage/partitioner.h"
#include "storage/tuple.h"

namespace mjoin {

/// Host side of the emit channel: notified when a destination's
/// pending batch reaches the flush threshold. Called once per full batch,
/// never per row, so hosts may do real work here (post the batch to the
/// consumer's queue, append to a stored result, reserve budget).
class EmitSink {
 public:
  virtual ~EmitSink() = default;

  /// dests[dest] has reached the flush threshold. The host flushes (or
  /// intentionally keeps accumulating); the pending batch must be in a
  /// clean appendable state when this returns.
  virtual void BatchFull(uint32_t dest) = 0;
};

/// Per-row routing override consulted by a hash-splitting EmitWriter
/// before each row is placed (the skew defense's hook): a row may pass
/// through to its hash destination, be dropped entirely (Bloom predicate
/// transfer proved it can match nothing), or be sprayed round-robin
/// across all destinations (hot-key repartitioning — the consumer holds a
/// replicated build side for such keys, so any destination is correct).
/// Classify() runs once per emitted row on the hot path; implementations
/// must be cheap and must not call back into the writer.
class EmitDefense {
 public:
  enum class Verdict : uint8_t {
    kPass,
    kDrop,
    kRepartition,
  };

  virtual ~EmitDefense() = default;

  virtual Verdict Classify(int32_t split_value) = 0;
};

/// The one way out of an operator (OpContext::emit_writer()): the
/// operation process's split of its output over the tuple streams that
/// feed its consumer's instances. The operator asks for each output row in
/// place, in the pending batch of its destination:
///
///   TupleWriter row = writer.Begin(split_value);
///   ... fill every column of the row via `row` ...
///   writer.Commit();
///
/// Begin() appends uninitialized bytes to the pending TupleBatch of the
/// destination that `split_value` routes to (ignored when the channel has
/// a fixed destination, see split_column()); the row is built directly in
/// its final resting place. The returned TupleWriter is invalidated by the
/// next Begin()/Commit() and by any other OpContext call; a Begin() must
/// be followed by exactly one Commit() before the next Begin().
///
/// Routing contract: when split_column() >= 0, the caller must pass the
/// value the finished row will carry in that output column, *before*
/// writing the row — this is what lets the writer pick the destination
/// batch up front. Every operator can: a split column is always int32,
/// and each output column is a copy of an input column (joins, filters,
/// projections) or a value the operator already holds (aggregates).
class EmitWriter {
 public:
  EmitWriter() = default;

  EmitWriter(const EmitWriter&) = delete;
  EmitWriter& operator=(const EmitWriter&) = delete;

  /// Host-side setup. `dests` must stay valid for the writer's lifetime
  /// and hold `num_dests` pending batches. `split_column` is the output
  /// column whose value routes each row (hash-split), or -1 when every
  /// row goes to `fixed_dest`. `flush_threshold` is in rows.
  void Configure(TupleBatch* dests, uint32_t num_dests, int split_column,
                 uint32_t fixed_dest, uint32_t flush_threshold,
                 EmitSink* sink) {
    MJOIN_CHECK(dests != nullptr && num_dests > 0 && sink != nullptr);
    MJOIN_CHECK(flush_threshold > 0);
    MJOIN_CHECK(split_column >= 0 || fixed_dest < num_dests);
    dests_ = dests;
    num_dests_ = num_dests;
    split_column_ = split_column;
    fixed_dest_ = fixed_dest;
    sink_ = sink;
    flush_bytes_ =
        static_cast<size_t>(flush_threshold) * dests[0].schema().tuple_size();
  }

  /// The output column whose value the caller must pass to Begin(), or -1
  /// when routing does not depend on row contents (single destination).
  int split_column() const { return split_column_; }

  /// Installs (or clears, with nullptr) the per-row routing override.
  /// Only meaningful on hash-splitting writers; `defense` must outlive
  /// the writer's use of it. Safe to call between rows at any time —
  /// rows already placed keep their destination.
  void SetDefense(EmitDefense* defense) {
    MJOIN_CHECK(dests_ != nullptr) << "SetDefense before Configure";
    defense_ = defense;
    if (defense_ != nullptr && !scratch_.has_value()) {
      scratch_.emplace(dests_[0].shared_schema());
    }
  }

  /// Starts one output row destined for wherever `split_value` routes.
  /// With a defense installed the row may instead be redirected round-
  /// robin, or built in discard scratch and dropped at Commit() — the
  /// operator fills the row identically either way.
  TupleWriter Begin(int32_t split_value) {
    if (split_column_ < 0) {
      dest_ = fixed_dest_;
      return dests_[dest_].AppendTuple();
    }
    if (defense_ != nullptr) {
      switch (defense_->Classify(split_value)) {
        case EmitDefense::Verdict::kPass:
          break;
        case EmitDefense::Verdict::kDrop:
          ++rows_dropped_;
          discard_ = true;
          scratch_->Clear();
          return scratch_->AppendTuple();
        case EmitDefense::Verdict::kRepartition:
          ++rows_repartitioned_;
          dest_ = rr_next_++ % num_dests_;
          return dests_[dest_].AppendTuple();
      }
    }
    dest_ = FragmentOf(split_value, num_dests_);
    return dests_[dest_].AppendTuple();
  }

  /// The row started by the last Begin() is complete.
  void Commit() {
    if (discard_) {
      discard_ = false;
      return;
    }
    ++rows_committed_;
    if (dests_[dest_].byte_size() >= flush_bytes_) sink_->BatchFull(dest_);
  }

  /// Bulk append of `count` finished rows `stride` bytes apart (scans).
  /// A fixed destination takes them in one copy when they are contiguous,
  /// and may grow past the flush threshold before BatchFull fires once —
  /// batches are allowed to exceed the nominal size. A hash-splitting
  /// writer routes each row by its own split-column value.
  void AppendRows(const std::byte* rows, size_t count, size_t stride) {
    if (split_column_ >= 0) {
      const Schema& schema = dests_[0].schema();
      const size_t row_bytes = schema.tuple_size();
      const auto split = static_cast<size_t>(split_column_);
      for (size_t i = 0; i < count; ++i) {
        const std::byte* row = rows + i * stride;
        TupleWriter out = Begin(TupleRef(row, &schema).GetInt32(split));
        std::memcpy(out.data(), row, row_bytes);
        Commit();
      }
      return;
    }
    dest_ = fixed_dest_;
    TupleBatch& batch = dests_[dest_];
    batch.AppendRows(rows, count, stride);
    rows_committed_ += count;
    if (batch.byte_size() >= flush_bytes_) sink_->BatchFull(dest_);
  }

  /// Rows committed over the writer's lifetime: the instance's rows-out
  /// count, since every output row passes through here.
  uint64_t rows_committed() const { return rows_committed_; }

  /// Rows the installed defense dropped (Bloom predicate transfer) and
  /// re-routed (hot-key repartitioning). Dropped rows are not counted in
  /// rows_committed().
  uint64_t rows_dropped() const { return rows_dropped_; }
  uint64_t rows_repartitioned() const { return rows_repartitioned_; }

 private:
  TupleBatch* dests_ = nullptr;
  uint32_t num_dests_ = 0;
  int split_column_ = -1;
  uint32_t fixed_dest_ = 0;
  uint32_t dest_ = 0;
  size_t flush_bytes_ = 0;
  EmitSink* sink_ = nullptr;
  uint64_t rows_committed_ = 0;
  EmitDefense* defense_ = nullptr;
  /// Discard target for dropped rows: the operator still fills a row, but
  /// into this one-row scratch batch that Commit() throws away.
  std::optional<TupleBatch> scratch_;
  bool discard_ = false;
  uint32_t rr_next_ = 0;
  uint64_t rows_dropped_ = 0;
  uint64_t rows_repartitioned_ = 0;
};

}  // namespace mjoin

#endif  // MJOIN_EXEC_EMIT_H_
