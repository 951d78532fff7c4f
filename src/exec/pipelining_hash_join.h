#ifndef MJOIN_EXEC_PIPELINING_HASH_JOIN_H_
#define MJOIN_EXEC_PIPELINING_HASH_JOIN_H_

#include <memory>
#include <vector>

#include "exec/hash_table.h"
#include "exec/join_row.h"
#include "exec/join_spec.h"
#include "exec/operator.h"

namespace mjoin {

/// The symmetric pipelining hash-join of [WiA90, WiA91] (Figure 1 of the
/// paper): a hash table is built over *both* operands and the join runs in
/// a single phase. As each tuple arrives on either port it probes the
/// other operand's (partial) hash table, emits any matches, and is then
/// inserted into its own table. Output is produced as early as possible,
/// enabling pipelining along both operands, at the cost of a second hash
/// table in memory.
class PipeliningHashJoinOp : public Operator {
 public:
  static constexpr int kLeftPort = 0;
  static constexpr int kRightPort = 1;

  // Arriving batches are processed in chunks of this many tuples: keys are
  // gathered into keys_ and the whole chunk probes the other operand's
  // table via JoinHashTable::ProbeBatch before the chunk is inserted into
  // our own table. A chunk's probes can never hit rows inserted by the
  // same chunk (they target the *other* table), so the split preserves the
  // tuple-at-a-time semantics exactly. Cancellation is polled per chunk.
  static constexpr size_t kChunk = 128;

  explicit PipeliningHashJoinOp(JoinSpec spec);

  int num_input_ports() const override { return 2; }

  void Open(OpContext* ctx) override;
  void Consume(int port, const TupleBatch& batch, OpContext* ctx) override;
  void InputDone(int port, OpContext* ctx) override;
  bool finished() const override { return done_[0] && done_[1]; }
  void CollectMetrics(OpMetrics* metrics) const override;

  const std::shared_ptr<const Schema>& output_schema() const override {
    return spec_.output_schema;
  }
  size_t peak_memory_bytes() const override { return peak_memory_; }
  size_t memory_bytes() const override {
    return tables_[0].memory_bytes() + tables_[1].memory_bytes();
  }
  void ReleaseMemory() override {
    tables_[0].Clear();
    tables_[1].Clear();
  }

  size_t left_table_size() const { return tables_[0].size(); }
  size_t right_table_size() const { return tables_[1].size(); }

 private:
  JoinSpec spec_;
  // tables_[0] over the left operand, tables_[1] over the right.
  JoinHashTable tables_[2];
  bool done_[2] = {false, false};
  size_t peak_memory_ = 0;
  // Key-gather scratch; capacity persists across batches.
  std::vector<int32_t> keys_;
  // Which operand carries the routing value of an output row; resolved in
  // Open() from the writer's split column.
  JoinRoute route_;
};

}  // namespace mjoin

#endif  // MJOIN_EXEC_PIPELINING_HASH_JOIN_H_
