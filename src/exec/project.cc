#include "exec/project.h"

#include "common/string_util.h"
#include "exec/emit.h"
#include "exec/join_row.h"
#include "storage/tuple.h"

namespace mjoin {

StatusOr<std::unique_ptr<ProjectOp>> ProjectOp::Make(
    std::shared_ptr<const Schema> input_schema, std::vector<size_t> columns) {
  std::vector<Column> out_columns;
  out_columns.reserve(columns.size());
  for (size_t c : columns) {
    if (c >= input_schema->num_columns()) {
      return Status::OutOfRange(StrCat("projection column ", c,
                                       " out of range for ",
                                       input_schema->ToString()));
    }
    out_columns.push_back(input_schema->column(c));
  }
  auto output_schema = std::make_shared<const Schema>(std::move(out_columns));
  // lint:allow-new private-constructor factory, owned immediately
  return std::unique_ptr<ProjectOp>(new ProjectOp(
      std::move(input_schema), std::move(columns), std::move(output_schema)));
}

ProjectOp::ProjectOp(std::shared_ptr<const Schema> input_schema,
                     std::vector<size_t> columns,
                     std::shared_ptr<const Schema> output_schema)
    : input_schema_(std::move(input_schema)),
      columns_(std::move(columns)),
      output_schema_(std::move(output_schema)) {
  std::vector<JoinOutputColumn> sources;
  sources.reserve(columns_.size());
  for (size_t c : columns_) sources.push_back(JoinOutputColumn::Left(c));
  runs_ = MakeCopyRuns(sources, *input_schema_, *input_schema_,
                       *output_schema_);
}

void ProjectOp::Consume(int port, const TupleBatch& batch, OpContext* ctx) {
  // One unit per tuple: constructing the projected tuple.
  ctx->Charge(static_cast<Ticks>(batch.num_tuples()) *
              ctx->costs().tuple_result);
  // An output column is a copy of an input column, so the routing value
  // of a hash-split output is readable from the input row up front and
  // the projected row is built directly in the destination batch.
  EmitWriter& writer = ctx->emit_writer();
  const int split = writer.split_column();
  const size_t route_column =
      split < 0 ? 0 : columns_[static_cast<size_t>(split)];
  for (size_t i = 0; i < batch.num_tuples(); ++i) {
    TupleRef in = batch.tuple(i);
    TupleWriter out = writer.Begin(split < 0 ? 0 : in.GetInt32(route_column));
    CopyByRuns(runs_, in.data(), in.data(), out.data());
    writer.Commit();
  }
}

}  // namespace mjoin
