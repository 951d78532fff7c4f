#ifndef MJOIN_EXEC_SIMPLE_HASH_JOIN_H_
#define MJOIN_EXEC_SIMPLE_HASH_JOIN_H_

#include <memory>
#include <vector>

#include "exec/hash_table.h"
#include "exec/join_row.h"
#include "exec/join_spec.h"
#include "exec/operator.h"

namespace mjoin {

/// The classic two-phase (build/probe) parallel hash-join of
/// [ScD89]/[Sch90], the paper's "simple hash-join": port 0 is the build
/// (left/inner) operand, port 1 the probe (right/outer) operand. Probe
/// batches that arrive before the build completes are buffered and
/// processed once port 0 finishes, so the operator is safe under any
/// scheduling, but strategies normally sequence the probe source after the
/// build milestone.
class SimpleHashJoinOp : public Operator {
 public:
  static constexpr int kBuildPort = 0;
  static constexpr int kProbePort = 1;

  // Probe batches are processed in chunks of this many tuples: keys are
  // gathered into probe_keys_ and handed to JoinHashTable::ProbeBatch, and
  // cancellation is polled between chunks (so a cancelled query stops
  // within one chunk, and cost accounting still covers exactly the tuples
  // probed).
  static constexpr size_t kProbeChunk = 128;

  explicit SimpleHashJoinOp(JoinSpec spec);

  int num_input_ports() const override { return 2; }

  void Open(OpContext* ctx) override;
  void Consume(int port, const TupleBatch& batch, OpContext* ctx) override;
  void InputDone(int port, OpContext* ctx) override;
  bool finished() const override {
    return build_done_ && probe_done_ && buffered_.empty();
  }
  void CollectMetrics(OpMetrics* metrics) const override;

  const std::shared_ptr<const Schema>& output_schema() const override {
    return spec_.output_schema;
  }
  size_t peak_memory_bytes() const override { return peak_memory_; }
  size_t memory_bytes() const override {
    return table_.memory_bytes() + buffered_bytes_;
  }
  void ReleaseMemory() override {
    table_.Clear();
    buffered_.clear();
    buffered_bytes_ = 0;
  }

  /// True once the hash table over the build operand is complete; hosts
  /// surface this as the kBuildDone milestone.
  bool build_done() const { return build_done_; }
  size_t hash_table_size() const { return table_.size(); }

  /// The build hash table, for the skew defense: hosts scan it (sketch +
  /// Bloom over build keys) once the build input has finished, and insert
  /// replicated hot-key rows through the mutable accessor before calling
  /// InputDone(kBuildPort). Only valid between those two points — the
  /// operator itself never exposes a half-built or released table.
  const JoinHashTable& table() const { return table_; }
  JoinHashTable* mutable_table() { return &table_; }
  /// Re-checks peak memory after defense inserts grew the table.
  void NoteTableGrowth() { UpdatePeakMemory(); }

 private:
  void ConsumeBuild(const TupleBatch& batch, OpContext* ctx);
  void ConsumeProbe(const TupleBatch& batch, OpContext* ctx);
  void UpdatePeakMemory();
  void CheckBudget(OpContext* ctx);

  JoinSpec spec_;
  JoinHashTable table_;
  bool build_done_ = false;
  bool probe_done_ = false;
  std::vector<TupleBatch> buffered_;
  size_t buffered_bytes_ = 0;
  MemoryReservation buffered_reservation_;
  size_t peak_memory_ = 0;
  // Key-gather scratch for batch probing; capacity persists across batches.
  std::vector<int32_t> probe_keys_;
  // Which operand carries the routing value of an output row; resolved in
  // Open() from the writer's split column.
  JoinRoute route_;
};

}  // namespace mjoin

#endif  // MJOIN_EXEC_SIMPLE_HASH_JOIN_H_
