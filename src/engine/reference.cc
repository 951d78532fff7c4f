#include "engine/reference.h"

#include <vector>

#include "exec/hash_table.h"
#include "exec/join_row.h"

namespace mjoin {

StatusOr<Relation> ExecuteReference(const JoinQuery& query,
                                    const Database& database) {
  MJOIN_RETURN_IF_ERROR(query.tree.Validate());
  MJOIN_ASSIGN_OR_RETURN(QueryAnalysis analysis, AnalyzeQuery(query));

  const JoinTree& tree = query.tree;
  std::vector<Relation> results(tree.num_nodes());

  for (int id : tree.PostOrder()) {
    const JoinTreeNode& node = tree.node(id);
    if (node.is_leaf()) {
      MJOIN_ASSIGN_OR_RETURN(const Relation* base,
                             database.Get(node.relation));
      results[static_cast<size_t>(id)] = base->Clone();
      continue;
    }
    const JoinSpec& spec = analysis.node_spec[static_cast<size_t>(id)];
    const Relation& left = results[static_cast<size_t>(node.left)];
    const Relation& right = results[static_cast<size_t>(node.right)];

    JoinHashTable table(spec.left_schema, spec.left_key);
    table.InsertRows(left.raw_data(), left.num_tuples());
    Relation out(*spec.output_schema);
    std::vector<std::byte> row(spec.output_schema->tuple_size());
    for (size_t i = 0; i < right.num_tuples(); ++i) {
      TupleRef probe = right.tuple(i);
      table.Probe(probe.GetInt32(spec.right_key), [&](const TupleRef& build) {
        AssembleJoinRow(spec, build, probe, row.data());
        out.AppendRow(row.data());
      });
    }
    // Free the operands; only this node's result is needed upward.
    results[static_cast<size_t>(node.left)] = Relation();
    results[static_cast<size_t>(node.right)] = Relation();
    results[static_cast<size_t>(id)] = std::move(out);
  }
  return std::move(results[static_cast<size_t>(tree.root())]);
}

StatusOr<ResultSummary> ReferenceSummary(const JoinQuery& query,
                                         const Database& database) {
  MJOIN_ASSIGN_OR_RETURN(Relation result, ExecuteReference(query, database));
  return SummarizeRelation(result);
}

}  // namespace mjoin
