#ifndef MJOIN_XRA_PLAN_H_
#define MJOIN_XRA_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/statusor.h"
#include "exec/filter.h"
#include "exec/join_spec.h"
#include "storage/schema.h"

namespace mjoin {

/// Physical operator kinds of the parallel plan language (the XRA-like
/// internal representation: each operation runs with an arbitrary degree
/// of intra-operator parallelism on an explicit list of processors, and
/// results are split over an arbitrary number of destinations).
enum class XraOpKind {
  /// Reads the node-local fragment of a base relation. Base relations are
  /// declustered over the scan's processors on the consumer's join key
  /// ("ideal initial fragmentation", §4.1), so scans are colocated with
  /// their consumer and need no redistribution.
  kScan,
  /// Reads the node-local fragments of a stored intermediate result and
  /// redistributes them to the consumer (an n x m refragmentation).
  kRescan,
  /// Two-phase build/probe hash-join (port 0 = build, port 1 = probe).
  kSimpleHashJoin,
  /// Symmetric pipelining hash-join (output produced as tuples arrive).
  kPipeliningHashJoin,
  /// Selection over one input stream (output schema = input schema).
  kFilter,
  /// Hash group-by aggregation (COUNT/SUM/MIN/MAX) over one input stream,
  /// hash-split on the grouping column so instances own disjoint groups.
  kAggregate,
  /// Sort-merge equi-join (port 0 = left, port 1 = right): the [SCD89]
  /// baseline algorithm; a pipeline breaker on both inputs.
  kSortMergeJoin,
};

std::string XraOpKindName(XraOpKind kind);

/// Events an operation process reports to the scheduler; trigger groups
/// can depend on them.
enum class Milestone {
  /// The operator consumed all input and emitted all output.
  kComplete,
  /// A simple hash-join finished building its hash table (its probe
  /// source may now be started).
  kBuildDone,
};

std::string MilestoneName(Milestone milestone);

/// How a producer's output reaches a consumer's instances.
enum class Routing {
  /// Producer instance i feeds consumer instance i on the same processor:
  /// no streams, no handshake, no send/receive cost (local memory).
  kColocated,
  /// Hash-split on `split_key`: producer instance feeds all m consumer
  /// instances; n producers x m consumers networked tuple streams.
  kHashSplit,
};

/// One input port of an operation.
struct XraInput {
  int producer = -1;  // op id; -1 = unused port
  Routing routing = Routing::kHashSplit;
  /// Column (in the producer's output schema) whose hash selects the
  /// destination instance; ignored for kColocated.
  size_t split_key = 0;
};

/// One (logical) operation, executed by one operation process per entry of
/// `processors`.
struct XraOp {
  int id = -1;
  XraOpKind kind = XraOpKind::kScan;
  /// Human-readable label ("join#7(SE)"), and the single character used in
  /// utilization diagrams.
  std::string label;
  char trace_label = '?';
  std::vector<uint32_t> processors;
  int trigger_group = -1;

  /// kScan: base relation name.
  std::string relation;
  /// kRescan: id of the stored result to read.
  int stored_result = -1;
  /// Joins: full join semantics.
  JoinSpec join_spec;
  /// kFilter: the predicate.
  FilterPredicate filter;
  /// kAggregate: grouping and value columns (in the input schema).
  size_t group_column = 0;
  size_t value_column = 0;
  /// Single-input ops (kFilter, kAggregate): their declared input schema.
  std::shared_ptr<const Schema> input_schema;
  /// Input ports: joins use [0]=build/left and [1]=probe/right; filter and
  /// aggregate use [0]; kRescan/kScan have none.
  XraInput inputs[2];

  /// Output destination: exactly one of the following.
  /// If >= 0, each instance stores its output rows locally under this
  /// result id (consumed later by a kRescan, or the query result).
  int store_result = -1;
  /// Otherwise the op with this id consumes our output on `consumer_port`.
  int consumer = -1;
  int consumer_port = 0;

  std::shared_ptr<const Schema> output_schema;

  bool is_source() const {
    return kind == XraOpKind::kScan || kind == XraOpKind::kRescan;
  }
  bool is_join() const {
    return kind == XraOpKind::kSimpleHashJoin ||
           kind == XraOpKind::kPipeliningHashJoin ||
           kind == XraOpKind::kSortMergeJoin;
  }
  /// Number of input ports (0 sources, 1 filter/aggregate, 2 joins).
  int num_inputs() const {
    if (is_source()) return 0;
    return is_join() ? 2 : 1;
  }
};

/// A dependency of a trigger group: `milestone` of op `op`.
struct TriggerDep {
  int op = -1;
  Milestone milestone = Milestone::kComplete;
};

/// Operations started together once all deps have fired. Group 0 must
/// have no deps (it starts the query).
struct TriggerGroup {
  std::vector<TriggerDep> deps;
  std::vector<int> ops;
};

/// Upper bound on ParallelPlan::num_processors. Every backend starts work
/// per declared processor (the thread backend one OS thread each), so a
/// plan parsed from untrusted text must not declare an unbounded count; the
/// paper's sweeps reach 80.
inline constexpr uint32_t kMaxPlanProcessors = 1024;

/// A complete parallel execution plan for a multi-join query, produced by
/// one of the four strategies and executed by the simulated or threaded
/// backend.
struct ParallelPlan {
  std::string strategy;
  uint32_t num_processors = 0;
  std::vector<XraOp> ops;
  std::vector<TriggerGroup> groups;
  /// Stored-result id holding the final query result (the root join's
  /// output), distributed over the root join's processors.
  int final_result = -1;
  /// Total number of stored-result ids used (result registry size); each
  /// id below it is stored by exactly one op.
  int num_results = 0;

  /// Structural validation: processor count (at most kMaxPlanProcessors),
  /// result ids, port wiring, schema agreement, processor lists, trigger
  /// groups (each op in exactly one, deps reference earlier
  /// milestones), colocation constraints, and the paper's rule that no
  /// processor runs two *join* operations of the same trigger epoch.
  Status Validate() const;

  /// Counts the networked tuple streams implied by the plan
  /// (sum over kHashSplit edges of n_producer_instances * m_consumer).
  uint64_t CountStreams() const;

  /// Total operation processes (sum of instances over ops).
  uint64_t CountProcesses() const;

  /// Multi-line EXPLAIN-style rendering.
  std::string ToString() const;
};

}  // namespace mjoin

#endif  // MJOIN_XRA_PLAN_H_
