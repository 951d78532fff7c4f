#ifndef MJOIN_TESTS_RECORDING_CONTEXT_H_
#define MJOIN_TESTS_RECORDING_CONTEXT_H_

#include <memory>
#include <vector>

#include "exec/emit.h"
#include "exec/operator.h"

namespace mjoin {

/// OpContext for operator unit tests: records charged cost, and takes the
/// operator's output through the same EmitWriter path the engine hosts
/// use. Every destination batch keeps accumulating (BatchFull keeps the
/// rows), so a test can read the output at any point.
class RecordingContext : public OpContext, public EmitSink {
 public:
  /// Every row lands in `out`.
  explicit RecordingContext(std::shared_ptr<const Schema> schema)
      : RecordingContext(std::move(schema), 1, -1) {}

  /// Rows hash-split on output column `split_column` over `num_dests`
  /// destinations (`dests`), as when the consumer has `num_dests`
  /// instances.
  RecordingContext(std::shared_ptr<const Schema> schema, uint32_t num_dests,
                   int split_column)
      : dests(MakeDests(schema, num_dests)), out(dests[0]) {
    writer.Configure(dests.data(), num_dests, split_column,
                     /*fixed_dest=*/0, /*flush_threshold=*/1, this);
  }

  void Charge(Ticks cost) override { charged += cost; }
  EmitWriter& emit_writer() override { return writer; }
  const CostParams& costs() const override { return params; }
  void BatchFull(uint32_t dest) override {}

  CostParams params;
  Ticks charged = 0;
  std::vector<TupleBatch> dests;
  /// dests[0]: all of the output when there is one destination.
  TupleBatch& out;
  EmitWriter writer;

 private:
  static std::vector<TupleBatch> MakeDests(
      const std::shared_ptr<const Schema>& schema, uint32_t num_dests) {
    std::vector<TupleBatch> batches;
    for (uint32_t d = 0; d < num_dests; ++d) batches.emplace_back(schema);
    return batches;
  }
};

}  // namespace mjoin

#endif  // MJOIN_TESTS_RECORDING_CONTEXT_H_
