#include "exec/join_spec.h"

#include <set>

#include "common/string_util.h"

namespace mjoin {

namespace {

Status ValidateKey(const Schema& schema, size_t key, const char* which) {
  if (key >= schema.num_columns()) {
    return Status::OutOfRange(StrCat(which, " key column ", key,
                                     " out of range for schema ",
                                     schema.ToString()));
  }
  if (schema.column(key).type != ColumnType::kInt32) {
    return Status::InvalidArgument(
        StrCat(which, " key column '", schema.column(key).name,
               "' is not int32"));
  }
  return Status::OK();
}

}  // namespace

std::vector<CopyRun> MakeCopyRuns(
    const std::vector<JoinOutputColumn>& output_columns, const Schema& left,
    const Schema& right, const Schema& output) {
  std::vector<CopyRun> runs;
  for (size_t i = 0; i < output_columns.size(); ++i) {
    const JoinOutputColumn& oc = output_columns[i];
    const Schema& src = oc.side == 0 ? left : right;
    const CopyRun next{oc.side, src.offset(oc.column), output.offset(i),
                       src.column(oc.column).width};
    if (!runs.empty()) {
      CopyRun& last = runs.back();
      if (last.side == next.side &&
          last.src_offset + last.length == next.src_offset &&
          last.dst_offset + last.length == next.dst_offset) {
        last.length += next.length;
        continue;
      }
    }
    runs.push_back(next);
  }
  return runs;
}

StatusOr<JoinSpec> MakeJoinSpec(std::shared_ptr<const Schema> left_schema,
                                std::shared_ptr<const Schema> right_schema,
                                size_t left_key, size_t right_key,
                                std::vector<JoinOutputColumn> output_columns) {
  MJOIN_RETURN_IF_ERROR(ValidateKey(*left_schema, left_key, "left"));
  MJOIN_RETURN_IF_ERROR(ValidateKey(*right_schema, right_key, "right"));

  std::vector<Column> out_columns;
  std::set<std::string> used_names;
  out_columns.reserve(output_columns.size());
  for (const JoinOutputColumn& oc : output_columns) {
    if (oc.side != 0 && oc.side != 1) {
      return Status::InvalidArgument(StrCat("bad join output side ", oc.side));
    }
    const Schema& src = oc.side == 0 ? *left_schema : *right_schema;
    if (oc.column >= src.num_columns()) {
      return Status::OutOfRange(StrCat("join output column ", oc.column,
                                       " out of range for ", src.ToString()));
    }
    Column col = src.column(oc.column);
    while (used_names.contains(col.name)) col.name += "_r";
    used_names.insert(col.name);
    out_columns.push_back(std::move(col));
  }

  JoinSpec spec;
  spec.left_schema = std::move(left_schema);
  spec.right_schema = std::move(right_schema);
  spec.left_key = left_key;
  spec.right_key = right_key;
  spec.output_columns = std::move(output_columns);
  spec.output_schema = std::make_shared<const Schema>(std::move(out_columns));
  spec.copy_runs = MakeCopyRuns(spec.output_columns, *spec.left_schema,
                                *spec.right_schema, *spec.output_schema);
  return spec;
}

StatusOr<JoinSpec> MakeNaturalConcatJoinSpec(
    std::shared_ptr<const Schema> left_schema,
    std::shared_ptr<const Schema> right_schema, size_t left_key,
    size_t right_key) {
  std::vector<JoinOutputColumn> outputs;
  for (size_t c = 0; c < left_schema->num_columns(); ++c) {
    outputs.push_back(JoinOutputColumn::Left(c));
  }
  for (size_t c = 0; c < right_schema->num_columns(); ++c) {
    outputs.push_back(JoinOutputColumn::Right(c));
  }
  return MakeJoinSpec(std::move(left_schema), std::move(right_schema),
                      left_key, right_key, std::move(outputs));
}

}  // namespace mjoin
