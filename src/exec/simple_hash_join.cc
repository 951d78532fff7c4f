#include "exec/simple_hash_join.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/join_row.h"

namespace mjoin {

SimpleHashJoinOp::SimpleHashJoinOp(JoinSpec spec)
    : spec_(std::move(spec)), table_(spec_.left_schema, spec_.left_key) {}

void SimpleHashJoinOp::Open(OpContext* ctx) {
  table_.AttachBudget(ctx->memory_budget());
  buffered_reservation_.Attach(ctx->memory_budget());
  route_ = JoinRoute(spec_, ctx->emit_writer());
}

void SimpleHashJoinOp::Consume(int port, const TupleBatch& batch,
                               OpContext* ctx) {
  if (ctx->cancelled()) return;
  if (port == kBuildPort) {
    MJOIN_CHECK(!build_done_) << "build batch after build done";
    ConsumeBuild(batch, ctx);
  } else {
    MJOIN_CHECK(port == kProbePort);
    MJOIN_CHECK(!probe_done_) << "probe batch after probe done";
    if (!build_done_) {
      // Probe arrived early: buffer it (memory, no CPU yet besides the
      // host's receive cost) until the hash table is complete.
      TupleBatch copy(batch.shared_schema());
      copy.AppendRows(batch.raw_data(), batch.num_tuples());
      buffered_bytes_ += batch.num_tuples() * batch.schema().tuple_size();
      buffered_.push_back(std::move(copy));
      UpdatePeakMemory();
      if (!buffered_reservation_.Resize(buffered_bytes_).ok()) {
        ctx->ReportError(Status::ResourceExhausted(
            "hash join probe buffer exceeds the query memory budget"));
        return;
      }
    } else {
      ConsumeProbe(batch, ctx);
    }
  }
  CheckBudget(ctx);
}

void SimpleHashJoinOp::ConsumeBuild(const TupleBatch& batch, OpContext* ctx) {
  const CostParams& costs = ctx->costs();
  ctx->Charge(static_cast<Ticks>(batch.num_tuples()) *
              (costs.tuple_hash + costs.tuple_build));
  table_.InsertRows(batch.raw_data(), batch.num_tuples());
  UpdatePeakMemory();
}

void SimpleHashJoinOp::ConsumeProbe(const TupleBatch& batch, OpContext* ctx) {
  const CostParams& costs = ctx->costs();
  EmitWriter& writer = ctx->emit_writer();
  const size_t n = batch.num_tuples();
  // Charged per tuple actually probed, after the loop: a between-chunk
  // cancellation must not be billed for the skipped tail, and the result
  // charge must cover exactly the rows that were emitted.
  size_t processed = 0;
  size_t results = 0;
  while (processed < n) {
    if (ctx->cancelled()) break;
    const size_t chunk = std::min(kProbeChunk, n - processed);
    probe_keys_.resize(chunk);
    for (size_t i = 0; i < chunk; ++i) {
      probe_keys_[i] = batch.tuple(processed + i).GetInt32(spec_.right_key);
    }
    results += table_.ProbeBatch(
        probe_keys_.data(), chunk, [&](size_t i, const TupleRef& build) {
          EmitJoinRow(spec_, route_, build, batch.tuple(processed + i),
                      writer);
        });
    processed += chunk;
  }
  ctx->Charge(static_cast<Ticks>(processed) *
                  (costs.tuple_hash + costs.tuple_probe) +
              static_cast<Ticks>(results) * costs.tuple_result);
}

void SimpleHashJoinOp::InputDone(int port, OpContext* ctx) {
  if (port == kBuildPort) {
    MJOIN_CHECK(!build_done_);
    build_done_ = true;
    // Replay any probe input that arrived during the build phase.
    std::vector<TupleBatch> pending = std::move(buffered_);
    buffered_.clear();
    buffered_bytes_ = 0;
    for (const TupleBatch& batch : pending) {
      if (ctx->cancelled()) break;
      ConsumeProbe(batch, ctx);
    }
    // Safe to drop: shrinking a reservation to zero only releases bytes
    // and cannot fail.
    (void)buffered_reservation_.Resize(0);
  } else {
    MJOIN_CHECK(port == kProbePort);
    MJOIN_CHECK(!probe_done_);
    probe_done_ = true;
  }
  CheckBudget(ctx);
}

void SimpleHashJoinOp::CollectMetrics(OpMetrics* metrics) const {
  metrics->hash_table_rows += table_.total_inserted();
  metrics->hash_collisions += table_.collisions();
}

void SimpleHashJoinOp::UpdatePeakMemory() {
  peak_memory_ = std::max(peak_memory_, table_.memory_bytes() + buffered_bytes_);
}

void SimpleHashJoinOp::CheckBudget(OpContext* ctx) {
  if (table_.over_budget()) {
    ctx->ReportError(Status::ResourceExhausted(
        "hash join build table exceeds the query memory budget"));
  }
}

}  // namespace mjoin
