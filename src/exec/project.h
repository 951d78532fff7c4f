#ifndef MJOIN_EXEC_PROJECT_H_
#define MJOIN_EXEC_PROJECT_H_

#include <memory>
#include <vector>

#include "common/statusor.h"
#include "exec/join_spec.h"
#include "exec/operator.h"

namespace mjoin {

/// Column-subset/reorder projection over a single input stream. The
/// paper's workload folds its post-join projection into the join's output
/// spec; this standalone operator exists for general plans.
class ProjectOp : public Operator {
 public:
  /// `columns` are input-schema column indices, in output order.
  [[nodiscard]] static StatusOr<std::unique_ptr<ProjectOp>> Make(
      std::shared_ptr<const Schema> input_schema, std::vector<size_t> columns);

  int num_input_ports() const override { return 1; }

  void Consume(int port, const TupleBatch& batch, OpContext* ctx) override;
  void InputDone(int port, OpContext* ctx) override { done_ = true; }
  bool finished() const override { return done_; }

  const std::shared_ptr<const Schema>& output_schema() const override {
    return output_schema_;
  }

 private:
  ProjectOp(std::shared_ptr<const Schema> input_schema,
            std::vector<size_t> columns,
            std::shared_ptr<const Schema> output_schema);

  std::shared_ptr<const Schema> input_schema_;
  std::vector<size_t> columns_;
  std::shared_ptr<const Schema> output_schema_;
  /// The projection as copy runs over the input row (every run side 0).
  std::vector<CopyRun> runs_;
  bool done_ = false;
};

}  // namespace mjoin

#endif  // MJOIN_EXEC_PROJECT_H_
