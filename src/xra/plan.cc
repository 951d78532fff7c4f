#include "xra/plan.h"

#include <set>

#include "common/string_util.h"

namespace mjoin {

std::string XraOpKindName(XraOpKind kind) {
  switch (kind) {
    case XraOpKind::kScan:
      return "scan";
    case XraOpKind::kRescan:
      return "rescan";
    case XraOpKind::kSimpleHashJoin:
      return "simple-hash-join";
    case XraOpKind::kPipeliningHashJoin:
      return "pipelining-hash-join";
    case XraOpKind::kFilter:
      return "filter";
    case XraOpKind::kAggregate:
      return "aggregate";
    case XraOpKind::kSortMergeJoin:
      return "sort-merge-join";
  }
  return "?";
}

std::string MilestoneName(Milestone milestone) {
  switch (milestone) {
    case Milestone::kComplete:
      return "complete";
    case Milestone::kBuildDone:
      return "build-done";
  }
  return "?";
}

namespace {

Status ValidateOpBasics(const ParallelPlan& plan, const XraOp& op) {
  if (op.processors.empty()) {
    return Status::Internal(StrCat("op ", op.id, " has no processors"));
  }
  std::set<uint32_t> unique_processors;
  for (uint32_t p : op.processors) {
    if (p >= plan.num_processors) {
      return Status::Internal(StrCat("op ", op.id, " uses processor ", p,
                                     " >= P=", plan.num_processors));
    }
    if (!unique_processors.insert(p).second) {
      return Status::Internal(
          StrCat("op ", op.id, " lists processor ", p, " twice"));
    }
  }
  int outputs = (op.store_result >= 0 ? 1 : 0) + (op.consumer >= 0 ? 1 : 0);
  if (outputs != 1) {
    return Status::Internal(
        StrCat("op ", op.id, " must have exactly one output destination"));
  }
  if (op.output_schema == nullptr) {
    return Status::Internal(StrCat("op ", op.id, " has no output schema"));
  }
  return Status::OK();
}

/// Input ports an op kind exposes (scans and rescans are sources).
int NumInputPorts(XraOpKind kind) {
  switch (kind) {
    case XraOpKind::kSimpleHashJoin:
    case XraOpKind::kPipeliningHashJoin:
    case XraOpKind::kSortMergeJoin:
      return 2;
    case XraOpKind::kFilter:
    case XraOpKind::kAggregate:
      return 1;
    default:
      return 0;
  }
}

/// Forward-edge validation, from the producer's side. The consumer-side
/// checks (ValidateEdge / ValidateSingleInputEdge) only cover edges the
/// consumer's inputs[] actually names; a malformed plan whose op.consumer
/// points at an out-of-range op, a source, a bad port, or an op that reads
/// a *different* producer would sail through them — and the executors
/// route batches along the forward pointer, indexing the consumer's
/// instance array out of bounds when the fanouts disagree. Catch all of
/// that at Validate() time instead.
Status ValidateForwardEdge(const ParallelPlan& plan, const XraOp& op) {
  if (op.consumer < 0) return Status::OK();
  if (op.consumer >= static_cast<int>(plan.ops.size()) ||
      op.consumer == op.id) {
    return Status::Internal(
        StrCat("op ", op.id, " has bad consumer ", op.consumer));
  }
  const XraOp& consumer = plan.ops[static_cast<size_t>(op.consumer)];
  int ports = NumInputPorts(consumer.kind);
  if (op.consumer_port < 0 || op.consumer_port >= ports) {
    return Status::Internal(StrCat("op ", op.id, " feeds port ",
                                   op.consumer_port, " of op ", consumer.id,
                                   " which has ", ports, " input ports"));
  }
  const XraInput& input = consumer.inputs[op.consumer_port];
  if (input.producer != op.id) {
    return Status::Internal(
        StrCat("op ", op.id, " claims to feed op ", consumer.id, " port ",
               op.consumer_port, " but that port reads op ", input.producer));
  }
  if (input.routing == Routing::kColocated &&
      op.processors.size() != consumer.processors.size()) {
    return Status::Internal(StrCat(
        "colocated edge ", op.id, " -> ", consumer.id, " has producer fanout ",
        op.processors.size(), " but consumer fanout ",
        consumer.processors.size()));
  }
  return Status::OK();
}

Status ValidateEdge(const ParallelPlan& plan, const XraOp& consumer, int port) {
  const XraInput& input = consumer.inputs[port];
  if (input.producer < 0 ||
      input.producer >= static_cast<int>(plan.ops.size())) {
    return Status::Internal(StrCat("op ", consumer.id, " port ", port,
                                   " has bad producer ", input.producer));
  }
  const XraOp& producer = plan.ops[static_cast<size_t>(input.producer)];
  if (producer.consumer != consumer.id || producer.consumer_port != port) {
    return Status::Internal(StrCat("edge mismatch: op ", producer.id,
                                   " does not feed op ", consumer.id, " port ",
                                   port));
  }
  // Schema agreement with the join spec.
  const std::shared_ptr<const Schema>& expected =
      port == 0 ? consumer.join_spec.left_schema
                : consumer.join_spec.right_schema;
  if (!(*producer.output_schema == *expected)) {
    return Status::Internal(
        StrCat("schema mismatch on edge ", producer.id, " -> ", consumer.id,
               " port ", port, ": ", producer.output_schema->ToString(),
               " vs ", expected->ToString()));
  }
  size_t join_key =
      port == 0 ? consumer.join_spec.left_key : consumer.join_spec.right_key;
  if (input.routing == Routing::kHashSplit) {
    if (input.split_key != join_key) {
      return Status::Internal(
          StrCat("edge ", producer.id, " -> ", consumer.id, " port ", port,
                 " splits on column ", input.split_key,
                 " but the join key is column ", join_key,
                 " (results would be wrong)"));
    }
  } else {
    // Colocated: instance i feeds instance i on the same processor.
    if (producer.processors != consumer.processors) {
      return Status::Internal(
          StrCat("colocated edge ", producer.id, " -> ", consumer.id,
                 " has different processor lists"));
    }
  }
  return Status::OK();
}

// Validates the single input edge of a filter/aggregate op.
Status ValidateSingleInputEdge(const ParallelPlan& plan,
                               const XraOp& consumer) {
  const XraInput& input = consumer.inputs[0];
  if (input.producer < 0 ||
      input.producer >= static_cast<int>(plan.ops.size())) {
    return Status::Internal(StrCat("op ", consumer.id,
                                   " has bad producer ", input.producer));
  }
  const XraOp& producer = plan.ops[static_cast<size_t>(input.producer)];
  if (producer.consumer != consumer.id || producer.consumer_port != 0) {
    return Status::Internal(StrCat("edge mismatch: op ", producer.id,
                                   " does not feed op ", consumer.id));
  }
  if (consumer.input_schema == nullptr ||
      !(*producer.output_schema == *consumer.input_schema)) {
    return Status::Internal(
        StrCat("schema mismatch on edge ", producer.id, " -> ",
               consumer.id));
  }
  if (input.routing == Routing::kHashSplit) {
    if (input.split_key >= producer.output_schema->num_columns() ||
        producer.output_schema->column(input.split_key).type !=
            ColumnType::kInt32) {
      return Status::Internal(
          StrCat("edge into op ", consumer.id,
                 " splits on a non-int32 column"));
    }
    // Aggregation instances must own disjoint groups.
    if (consumer.kind == XraOpKind::kAggregate &&
        input.split_key != consumer.group_column) {
      return Status::Internal(
          StrCat("aggregate ", consumer.id, " input split on column ",
                 input.split_key, " but groups by column ",
                 consumer.group_column, " (results would be wrong)"));
    }
  } else {
    if (producer.processors != consumer.processors) {
      return Status::Internal(
          StrCat("colocated edge ", producer.id, " -> ", consumer.id,
                 " has different processor lists"));
    }
    if (consumer.kind == XraOpKind::kAggregate &&
        consumer.processors.size() > 1) {
      return Status::Internal(
          StrCat("aggregate ", consumer.id,
                 " has a colocated multi-instance input; groups would be "
                 "split across instances"));
    }
  }
  return Status::OK();
}

}  // namespace

Status ParallelPlan::Validate() const {
  if (num_processors == 0) return Status::Internal("plan has no processors");
  if (num_processors > kMaxPlanProcessors) {
    return Status::Internal(StrCat("plan declares ", num_processors,
                                   " processors; at most ",
                                   kMaxPlanProcessors, " are supported"));
  }
  if (ops.empty()) return Status::Internal("plan has no operations");

  std::set<int> stored_ids;
  for (size_t i = 0; i < ops.size(); ++i) {
    const XraOp& op = ops[i];
    if (op.id != static_cast<int>(i)) {
      return Status::Internal(StrCat("op at index ", i, " has id ", op.id));
    }
    MJOIN_RETURN_IF_ERROR(ValidateOpBasics(*this, op));
    MJOIN_RETURN_IF_ERROR(ValidateForwardEdge(*this, op));
    if (op.store_result >= 0) {
      if (op.store_result >= num_results) {
        return Status::Internal(StrCat("op ", op.id, " stores result ",
                                       op.store_result, " >= num_results=",
                                       num_results));
      }
      if (!stored_ids.insert(op.store_result).second) {
        return Status::Internal(
            StrCat("result id ", op.store_result, " stored twice"));
      }
    }
    switch (op.kind) {
      case XraOpKind::kScan:
        if (op.relation.empty()) {
          return Status::Internal(StrCat("scan ", op.id, " has no relation"));
        }
        break;
      case XraOpKind::kRescan: {
        if (op.stored_result < 0 || op.stored_result >= num_results) {
          return Status::Internal(
              StrCat("rescan ", op.id, " reads bad result id ",
                     op.stored_result));
        }
        // The rescan must run exactly where the result fragments live.
        const XraOp* storer = nullptr;
        for (const XraOp& other : ops) {
          if (other.store_result == op.stored_result) storer = &other;
        }
        if (storer == nullptr) {
          return Status::Internal(StrCat("rescan ", op.id, " reads result ",
                                         op.stored_result,
                                         " which nobody stores"));
        }
        if (storer->processors != op.processors) {
          return Status::Internal(
              StrCat("rescan ", op.id, " not colocated with the fragments of "
                     "result ", op.stored_result));
        }
        break;
      }
      case XraOpKind::kSimpleHashJoin:
      case XraOpKind::kPipeliningHashJoin:
      case XraOpKind::kSortMergeJoin:
        MJOIN_RETURN_IF_ERROR(ValidateEdge(*this, op, 0));
        MJOIN_RETURN_IF_ERROR(ValidateEdge(*this, op, 1));
        if (!(*op.join_spec.output_schema == *op.output_schema)) {
          return Status::Internal(
              StrCat("join ", op.id, " output schema disagrees with spec"));
        }
        break;
      case XraOpKind::kFilter:
        MJOIN_RETURN_IF_ERROR(ValidateSingleInputEdge(*this, op));
        if (!(*op.output_schema == *op.input_schema)) {
          return Status::Internal(
              StrCat("filter ", op.id, " must not change the schema"));
        }
        break;
      case XraOpKind::kAggregate:
        MJOIN_RETURN_IF_ERROR(ValidateSingleInputEdge(*this, op));
        break;
    }
  }
  // Every result id below num_results has its storer (the runtime sizes
  // its result registry by num_results).
  if (static_cast<int64_t>(stored_ids.size()) != num_results) {
    return Status::Internal(StrCat("plan declares ", num_results,
                                   " results but stores ", stored_ids.size()));
  }
  if (final_result < 0 || !stored_ids.contains(final_result)) {
    return Status::Internal("plan does not store a final result");
  }

  // Trigger groups: each op exactly once, matching indices; group 0 must
  // be dependency-free; deps must reference valid milestones.
  std::vector<int> seen(ops.size(), 0);
  if (groups.empty()) return Status::Internal("plan has no trigger groups");
  if (!groups[0].deps.empty()) {
    return Status::Internal("trigger group 0 must have no dependencies");
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    for (int op_id : groups[g].ops) {
      if (op_id < 0 || op_id >= static_cast<int>(ops.size())) {
        return Status::Internal(StrCat("group ", g, " lists bad op ", op_id));
      }
      if (ops[static_cast<size_t>(op_id)].trigger_group !=
          static_cast<int>(g)) {
        return Status::Internal(StrCat("op ", op_id,
                                       " trigger_group field disagrees with "
                                       "group ", g));
      }
      ++seen[static_cast<size_t>(op_id)];
    }
    for (const TriggerDep& dep : groups[g].deps) {
      if (dep.op < 0 || dep.op >= static_cast<int>(ops.size())) {
        return Status::Internal(StrCat("group ", g, " depends on bad op ",
                                       dep.op));
      }
      if (dep.milestone == Milestone::kBuildDone &&
          ops[static_cast<size_t>(dep.op)].kind !=
              XraOpKind::kSimpleHashJoin) {
        return Status::Internal(
            StrCat("group ", g, " waits for build-done of non-simple-join op ",
                   dep.op));
      }
    }
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    if (seen[i] != 1) {
      return Status::Internal(
          StrCat("op ", i, " appears in ", seen[i], " trigger groups"));
    }
  }

  // The paper's constraint: within one trigger group, two *join*
  // operations never share a processor.
  for (const TriggerGroup& group : groups) {
    std::set<uint32_t> join_processors;
    for (int op_id : group.ops) {
      const XraOp& op = ops[static_cast<size_t>(op_id)];
      if (!op.is_join()) continue;
      for (uint32_t p : op.processors) {
        if (!join_processors.insert(p).second) {
          return Status::Internal(
              StrCat("processor ", p,
                     " runs two concurrent joins in one trigger group"));
        }
      }
    }
  }
  return Status::OK();
}

uint64_t ParallelPlan::CountStreams() const {
  uint64_t streams = 0;
  for (const XraOp& op : ops) {
    if (op.consumer >= 0) {
      const XraOp& consumer = ops[static_cast<size_t>(op.consumer)];
      const XraInput& input = consumer.inputs[op.consumer_port];
      if (input.routing == Routing::kHashSplit) {
        streams += static_cast<uint64_t>(op.processors.size()) *
                   consumer.processors.size();
      }
    }
  }
  return streams;
}

uint64_t ParallelPlan::CountProcesses() const {
  uint64_t processes = 0;
  for (const XraOp& op : ops) processes += op.processors.size();
  return processes;
}

std::string ParallelPlan::ToString() const {
  std::string out = StrCat("ParallelPlan[", strategy, "] P=", num_processors,
                           " processes=", CountProcesses(),
                           " streams=", CountStreams(), "\n");
  for (size_t g = 0; g < groups.size(); ++g) {
    out += StrCat("  group ", g);
    if (!groups[g].deps.empty()) {
      std::vector<std::string> deps;
      for (const TriggerDep& dep : groups[g].deps) {
        deps.push_back(StrCat("op", dep.op, ".", MilestoneName(dep.milestone)));
      }
      out += StrCat(" after {", StrJoin(deps, ", "), "}");
    }
    out += ":\n";
    for (int op_id : groups[g].ops) {
      const XraOp& op = ops[static_cast<size_t>(op_id)];
      out += StrCat("    op", op.id, " ", XraOpKindName(op.kind), " '",
                    op.label, "' x", op.processors.size(), " on [",
                    op.processors.front(), "..", op.processors.back(), "]");
      if (op.kind == XraOpKind::kScan) out += StrCat(" rel=", op.relation);
      if (op.kind == XraOpKind::kRescan) {
        out += StrCat(" result=", op.stored_result);
      }
      if (op.store_result >= 0) {
        out += StrCat(" -> store result ", op.store_result);
      } else {
        const XraInput& input =
            ops[static_cast<size_t>(op.consumer)].inputs[op.consumer_port];
        out += StrCat(" -> op", op.consumer, ":", op.consumer_port,
                      input.routing == Routing::kColocated ? " (local)"
                                                           : " (split)");
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace mjoin
