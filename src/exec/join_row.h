#ifndef MJOIN_EXEC_JOIN_ROW_H_
#define MJOIN_EXEC_JOIN_ROW_H_

#include <cstring>
#include <vector>

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
/// `out` (spec.output_schema->tuple_size() bytes) — scratch memory or, on
/// the zero-copy path, the destination batch (EmitWriter::Begin). Shared
/// by every join operator and the reference executor.
inline void AssembleJoinRow(const JoinSpec& spec, const TupleRef& left,
                            const TupleRef& right, std::byte* out) {
  CopyByRuns(spec.copy_runs, left.data(), right.data(), out);
}

/// Same, through `writer`.
inline void AssembleJoinRow(const JoinSpec& spec, const TupleRef& left,
                            const TupleRef& right, TupleWriter& writer) {
  AssembleJoinRow(spec, left, right, writer.data());
}

}  // namespace mjoin

#endif  // MJOIN_EXEC_JOIN_ROW_H_
