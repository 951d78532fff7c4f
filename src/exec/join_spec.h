#ifndef MJOIN_EXEC_JOIN_SPEC_H_
#define MJOIN_EXEC_JOIN_SPEC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/statusor.h"
#include "storage/schema.h"

namespace mjoin {

/// One output column of a join: taken from the left (0) or right (1)
/// operand.
struct JoinOutputColumn {
  int side = 0;
  size_t column = 0;

  static JoinOutputColumn Left(size_t column) {
    return JoinOutputColumn{0, column};
  }
  static JoinOutputColumn Right(size_t column) {
    return JoinOutputColumn{1, column};
  }

  bool operator==(const JoinOutputColumn&) const = default;
};

/// One memcpy of a row assembly: `length` bytes at `src_offset` of the
/// side-`side` input row (0 = left) go to `dst_offset` of the output row.
struct CopyRun {
  int side = 0;
  uint32_t src_offset = 0;
  uint32_t dst_offset = 0;
  uint32_t length = 0;

  bool operator==(const CopyRun&) const = default;
};

/// Compiles output columns (already validated against `left` and `right`)
/// into copy runs over the packed `output` layout: adjacent columns from
/// the same side whose source bytes are contiguous merge into one run.
std::vector<CopyRun> MakeCopyRuns(
    const std::vector<JoinOutputColumn>& output_columns, const Schema& left,
    const Schema& right, const Schema& output);

/// Full description of a binary equi-join: operand schemas, int32 join key
/// columns, and the projection applied to matching pairs. The paper's
/// workload projects every join result back to a Wisconsin relation; the
/// engine supports arbitrary projections.
struct JoinSpec {
  std::shared_ptr<const Schema> left_schema;
  std::shared_ptr<const Schema> right_schema;
  size_t left_key = 0;
  size_t right_key = 0;
  std::vector<JoinOutputColumn> output_columns;
  std::shared_ptr<const Schema> output_schema;  // derived by MakeJoinSpec
  std::vector<CopyRun> copy_runs;               // derived by MakeJoinSpec
};

/// Builds a JoinSpec, deriving the output schema from `output_columns`
/// (column names are taken from the source schemas; duplicate names get a
/// "_r" suffix) and its copy runs. Validates key columns are int32 and all
/// indices in range.
[[nodiscard]] StatusOr<JoinSpec> MakeJoinSpec(
    std::shared_ptr<const Schema> left_schema,
                                std::shared_ptr<const Schema> right_schema,
                                size_t left_key, size_t right_key,
                                std::vector<JoinOutputColumn> output_columns);

/// Convenience: output = all left columns followed by all right columns.
[[nodiscard]] StatusOr<JoinSpec> MakeNaturalConcatJoinSpec(
    std::shared_ptr<const Schema> left_schema,
    std::shared_ptr<const Schema> right_schema, size_t left_key,
    size_t right_key);

}  // namespace mjoin

#endif  // MJOIN_EXEC_JOIN_SPEC_H_
