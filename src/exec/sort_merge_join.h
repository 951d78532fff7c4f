#ifndef MJOIN_EXEC_SORT_MERGE_JOIN_H_
#define MJOIN_EXEC_SORT_MERGE_JOIN_H_

#include <memory>
#include <vector>

#include "exec/batch.h"
#include "exec/join_row.h"
#include "exec/join_spec.h"
#include "exec/operator.h"

namespace mjoin {

/// Classic sort-merge equi-join: both operands are collected, sorted on
/// their key columns, and merged (with duplicate-run cross products). The
/// paper follows [SCD89]'s conclusion that the parallel *hash*-join beats
/// sort-merge in a shared-nothing setting; this operator is the baseline
/// that claim is measured against (`ablation_join_algorithm`).
///
/// A full sort is a pipeline breaker on both inputs, so no inter-operator
/// pipelining is possible: only the SP strategy uses it (optionally).
class SortMergeJoinOp : public Operator {
 public:
  static constexpr int kLeftPort = 0;
  static constexpr int kRightPort = 1;

  explicit SortMergeJoinOp(JoinSpec spec);

  int num_input_ports() const override { return 2; }

  void Open(OpContext* ctx) override;
  void Consume(int port, const TupleBatch& batch, OpContext* ctx) override;
  void InputDone(int port, OpContext* ctx) override;
  bool finished() const override { return done_[0] && done_[1]; }

  const std::shared_ptr<const Schema>& output_schema() const override {
    return spec_.output_schema;
  }
  size_t peak_memory_bytes() const override { return peak_memory_; }
  size_t memory_bytes() const override { return current_memory_; }
  void ReleaseMemory() override;

  size_t left_buffered() const { return buffered_[0].num_tuples(); }
  size_t right_buffered() const { return buffered_[1].num_tuples(); }

 private:
  void SortAndMerge(OpContext* ctx);

  JoinSpec spec_;
  TupleBatch buffered_[2];
  bool done_[2] = {false, false};
  size_t current_memory_ = 0;
  size_t peak_memory_ = 0;
  MemoryReservation reservation_;
  // Which operand carries the routing value of an output row; resolved in
  // Open() from the writer's split column.
  JoinRoute route_;
};

}  // namespace mjoin

#endif  // MJOIN_EXEC_SORT_MERGE_JOIN_H_
