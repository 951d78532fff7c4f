#ifndef MJOIN_EXEC_JOIN_ROW_H_
#define MJOIN_EXEC_JOIN_ROW_H_

#include <cstring>
#include <vector>

#include "exec/emit.h"
#include "exec/join_spec.h"
#include "storage/tuple.h"

namespace mjoin {

/// The one row-copy kernel: builds an output row at `out` from `runs`, one
/// memcpy per run, reading side-0 runs from `left` and side-1 runs from
/// `right`. Joins and projections (exec/project.h) both assemble rows
/// through it.
inline void CopyByRuns(const std::vector<CopyRun>& runs,
                       const std::byte* left, const std::byte* right,
                       std::byte* out) {
  for (const CopyRun& run : runs) {
    std::memcpy(out + run.dst_offset,
                (run.side == 0 ? left : right) + run.src_offset, run.length);
  }
}

/// Assembles one join output row from a matching (left, right) pair at
/// `out` (spec.output_schema->tuple_size() bytes). Shared by every join
/// operator (through EmitJoinRow) and the reference executor.
inline void AssembleJoinRow(const JoinSpec& spec, const TupleRef& left,
                            const TupleRef& right, std::byte* out) {
  CopyByRuns(spec.copy_runs, left.data(), right.data(), out);
}

/// Where a join reads the routing value of an output row before building
/// it: the operand (side 0 = left, 1 = right) and column that the writer's
/// split output column copies, or side -1 when the writer has a fixed
/// destination and no value is needed.
struct JoinRoute {
  int side = -1;
  size_t column = 0;

  JoinRoute() = default;
  JoinRoute(const JoinSpec& spec, const EmitWriter& writer) {
    if (writer.split_column() < 0) return;
    const JoinOutputColumn& oc =
        spec.output_columns[static_cast<size_t>(writer.split_column())];
    side = oc.side;
    column = oc.column;
  }

  int32_t Value(const TupleRef& left, const TupleRef& right) const {
    return side < 0 ? 0 : (side == 0 ? left : right).GetInt32(column);
  }
};

/// Builds the output row of a matching (left, right) pair in place in its
/// destination batch.
inline void EmitJoinRow(const JoinSpec& spec, const JoinRoute& route,
                        const TupleRef& left, const TupleRef& right,
                        EmitWriter& writer) {
  TupleWriter out = writer.Begin(route.Value(left, right));
  AssembleJoinRow(spec, left, right, out.data());
  writer.Commit();
}

}  // namespace mjoin

#endif  // MJOIN_EXEC_JOIN_ROW_H_
