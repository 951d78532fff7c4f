#include "exec/scan.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/emit.h"

namespace mjoin {

void ScanOp::Open(OpContext* ctx) {
  relation_ = resolver_();
  MJOIN_CHECK(relation_ != nullptr) << "scan fragment not resolved";
  MJOIN_CHECK(relation_->schema() == *schema_)
      << "scan fragment schema mismatch: " << relation_->schema().ToString()
      << " vs " << schema_->ToString();
  MJOIN_CHECK(fragment_ < rule_.num_fragments());
  row_bytes_ = schema_->tuple_size();
  total_ = relation_->num_tuples();
  cursor_ = SkipToMember(0);
  opened_ = true;
}

size_t ScanOp::SkipToMember(size_t row) const {
  while (row < total_ && !IsMember(row)) ++row;
  return row;
}

bool ScanOp::Produce(OpContext* ctx) {
  MJOIN_CHECK(opened_);
  if (ctx->cancelled()) {
    // Stop feeding the pipeline; report exhausted so the host winds down.
    cursor_ = total_;
    return false;
  }
  const size_t batch = ctx->costs().batch_size;
  const std::byte* rows = relation_->raw_data();
  EmitWriter& writer = ctx->emit_writer();
  size_t n = 0;
  if (rule_.round_robin()) {
    // Members sit a fixed stride of m rows apart (one contiguous run when
    // m == 1): the whole batch goes to the writer in one strided call,
    // which it bulk-copies when routing permits.
    const size_t m = rule_.num_fragments();
    n = std::min(batch, (total_ - cursor_ + m - 1) / m);
    if (n > 0) {
      writer.AppendRows(rows + cursor_ * row_bytes_, n, m * row_bytes_);
    }
    cursor_ = std::min(total_, cursor_ + n * m);
  } else {
    // Hash members are scattered: one call per run of adjacent members.
    while (n < batch && cursor_ < total_) {
      size_t end = cursor_ + 1;
      while (end < total_ && n + (end - cursor_) < batch && IsMember(end)) {
        ++end;
      }
      writer.AppendRows(rows + cursor_ * row_bytes_, end - cursor_,
                        row_bytes_);
      n += end - cursor_;
      cursor_ = SkipToMember(end);
    }
  }
  ctx->Charge(static_cast<Ticks>(n) * ctx->costs().tuple_scan);
  return cursor_ < total_;
}

}  // namespace mjoin
