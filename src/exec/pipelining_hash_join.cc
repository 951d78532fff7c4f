#include "exec/pipelining_hash_join.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/join_row.h"

namespace mjoin {

PipeliningHashJoinOp::PipeliningHashJoinOp(JoinSpec spec)
    : spec_(std::move(spec)),
      tables_{JoinHashTable(spec_.left_schema, spec_.left_key),
              JoinHashTable(spec_.right_schema, spec_.right_key)} {}

void PipeliningHashJoinOp::Open(OpContext* ctx) {
  tables_[0].AttachBudget(ctx->memory_budget());
  tables_[1].AttachBudget(ctx->memory_budget());
  route_ = JoinRoute(spec_, ctx->emit_writer());
}

void PipeliningHashJoinOp::Consume(int port, const TupleBatch& batch,
                                   OpContext* ctx) {
  MJOIN_CHECK(port == kLeftPort || port == kRightPort);
  MJOIN_CHECK(!done_[port]) << "batch after end-of-stream on port " << port;
  if (ctx->cancelled()) return;
  const CostParams& costs = ctx->costs();
  EmitWriter& writer = ctx->emit_writer();
  const size_t my_key = port == kLeftPort ? spec_.left_key : spec_.right_key;
  JoinHashTable& own = tables_[port];
  JoinHashTable& other = tables_[1 - port];

  // Per arriving chunk: gather keys, probe the other operand's (partial)
  // table batch-at-a-time, emit matches, then insert the chunk into our
  // own table. If the other side already finished, nothing will ever probe
  // our table, so the inserts are skipped (the tail of the slower operand
  // then runs as a pure probe phase).
  //
  // Cost is charged per tuple actually processed, after the loop: a
  // between-chunk cancellation must leave the accounting matching the
  // partial progress, not the whole batch.
  const bool insert_needed = !done_[1 - port];
  const Ticks per_tuple = costs.tuple_hash + costs.tuple_probe +
                          (insert_needed ? costs.tuple_build : 0);
  const size_t n = batch.num_tuples();
  size_t processed = 0;
  size_t results = 0;
  while (processed < n) {
    if (ctx->cancelled()) break;
    const size_t chunk = std::min(kChunk, n - processed);
    keys_.resize(chunk);
    for (size_t i = 0; i < chunk; ++i) {
      keys_[i] = batch.tuple(processed + i).GetInt32(my_key);
    }
    results += other.ProbeBatch(
        keys_.data(), chunk, [&](size_t i, const TupleRef& theirs) {
          TupleRef mine = batch.tuple(processed + i);
          if (port == kLeftPort) {
            EmitJoinRow(spec_, route_, mine, theirs, writer);
          } else {
            EmitJoinRow(spec_, route_, theirs, mine, writer);
          }
        });
    if (insert_needed) {
      own.InsertRows(batch.tuple(processed).data(), chunk);
    }
    processed += chunk;
  }
  ctx->Charge(static_cast<Ticks>(processed) * per_tuple +
              static_cast<Ticks>(results) * costs.tuple_result);
  peak_memory_ = std::max(peak_memory_,
                          tables_[0].memory_bytes() + tables_[1].memory_bytes());
  if (tables_[0].over_budget() || tables_[1].over_budget()) {
    ctx->ReportError(Status::ResourceExhausted(
        "pipelining join tables exceed the query memory budget"));
  }
}

void PipeliningHashJoinOp::InputDone(int port, OpContext* ctx) {
  MJOIN_CHECK(port == kLeftPort || port == kRightPort);
  MJOIN_CHECK(!done_[port]);
  // Both tables are still resident here — this is the operator's true
  // memory high-water mark; sample it before Clear() shrinks it.
  peak_memory_ = std::max(peak_memory_,
                          tables_[0].memory_bytes() + tables_[1].memory_bytes());
  done_[port] = true;
  // Once side p is complete, no tuple will ever probe the *other* side's
  // table again (only p-side arrivals probed it), so it can be dropped.
  tables_[1 - port].Clear();
}

void PipeliningHashJoinOp::CollectMetrics(OpMetrics* metrics) const {
  metrics->hash_table_rows +=
      tables_[0].total_inserted() + tables_[1].total_inserted();
  metrics->hash_collisions +=
      tables_[0].collisions() + tables_[1].collisions();
}

}  // namespace mjoin
