#include "exec/sort_merge_join.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "exec/join_row.h"

namespace mjoin {

SortMergeJoinOp::SortMergeJoinOp(JoinSpec spec)
    : spec_(std::move(spec)),
      buffered_{TupleBatch(spec_.left_schema),
                TupleBatch(spec_.right_schema)} {}

void SortMergeJoinOp::Open(OpContext* ctx) {
  reservation_.Attach(ctx->memory_budget());
  route_ = JoinRoute(spec_, ctx->emit_writer());
}

void SortMergeJoinOp::Consume(int port, const TupleBatch& batch,
                              OpContext* ctx) {
  MJOIN_CHECK(port == kLeftPort || port == kRightPort);
  MJOIN_CHECK(!done_[port]) << "batch after end-of-stream on port " << port;
  if (ctx->cancelled()) return;
  // One unit per tuple for appending to the run buffer.
  ctx->Charge(static_cast<Ticks>(batch.num_tuples()) *
              ctx->costs().tuple_build);
  buffered_[port].AppendRows(batch.raw_data(), batch.num_tuples());
  current_memory_ += batch.num_tuples() * batch.schema().tuple_size();
  peak_memory_ = std::max(peak_memory_, current_memory_);
  if (!reservation_.Resize(current_memory_).ok()) {
    ctx->ReportError(Status::ResourceExhausted(
        "sort-merge run buffers exceed the query memory budget"));
  }
}

void SortMergeJoinOp::InputDone(int port, OpContext* ctx) {
  MJOIN_CHECK(!done_[port]);
  done_[port] = true;
  if (done_[0] && done_[1] && !ctx->cancelled()) SortAndMerge(ctx);
}

void SortMergeJoinOp::SortAndMerge(OpContext* ctx) {
  const CostParams& costs = ctx->costs();

  // Sort both sides (indices; rows stay in the buffers). Cost: the
  // comparison count, ~ n*log2(n) per side, at one unit per comparison.
  std::vector<uint32_t> order[2];
  for (int side = 0; side < 2; ++side) {
    size_t n = buffered_[side].num_tuples();
    size_t key = side == 0 ? spec_.left_key : spec_.right_key;
    order[side].resize(n);
    for (size_t i = 0; i < n; ++i) order[side][i] = static_cast<uint32_t>(i);
    const TupleBatch& rows = buffered_[side];
    std::sort(order[side].begin(), order[side].end(),
              [&rows, key](uint32_t a, uint32_t b) {
                int32_t ka = rows.tuple(a).GetInt32(key);
                int32_t kb = rows.tuple(b).GetInt32(key);
                if (ka != kb) return ka < kb;
                return a < b;  // stable for determinism
              });
    if (n > 1) {
      double comparisons =
          static_cast<double>(n) * std::log2(static_cast<double>(n));
      ctx->Charge(static_cast<Ticks>(comparisons) * costs.tuple_hash);
    }
  }

  // Merge with duplicate-run cross products. Cost: one unit per consumed
  // tuple plus one per result.
  const TupleBatch& left = buffered_[0];
  const TupleBatch& right = buffered_[1];
  EmitWriter& writer = ctx->emit_writer();
  ctx->Charge(static_cast<Ticks>(left.num_tuples() + right.num_tuples()) *
              costs.tuple_probe);
  size_t i = 0, j = 0;
  size_t results = 0;
  while (i < left.num_tuples() && j < right.num_tuples()) {
    // The duplicate-run cross products can dominate the runtime, so the
    // merge loop itself honours cancellation.
    if (ctx->cancelled()) return;
    int32_t kl = left.tuple(order[0][i]).GetInt32(spec_.left_key);
    int32_t kr = right.tuple(order[1][j]).GetInt32(spec_.right_key);
    if (kl < kr) {
      ++i;
    } else if (kl > kr) {
      ++j;
    } else {
      size_t i_end = i;
      while (i_end < left.num_tuples() &&
             left.tuple(order[0][i_end]).GetInt32(spec_.left_key) == kl) {
        ++i_end;
      }
      size_t j_end = j;
      while (j_end < right.num_tuples() &&
             right.tuple(order[1][j_end]).GetInt32(spec_.right_key) == kl) {
        ++j_end;
      }
      for (size_t a = i; a < i_end; ++a) {
        for (size_t b = j; b < j_end; ++b) {
          EmitJoinRow(spec_, route_, left.tuple(order[0][a]),
                      right.tuple(order[1][b]), writer);
          ++results;
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  ctx->Charge(static_cast<Ticks>(results) * costs.tuple_result);
}

void SortMergeJoinOp::ReleaseMemory() {
  buffered_[0].Clear();
  buffered_[1].Clear();
  current_memory_ = 0;
  // Safe to drop: shrinking a reservation to zero only releases bytes and
  // cannot fail.
  (void)reservation_.Resize(0);
}

}  // namespace mjoin
