#include "exec/filter.h"

#include <cstring>

#include "common/string_util.h"
#include "exec/emit.h"
#include "storage/tuple.h"

namespace mjoin {

std::string CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kBetween:
      return "between";
  }
  return "?";
}

bool FilterPredicate::Matches(int32_t candidate) const {
  switch (op) {
    case CompareOp::kEq:
      return candidate == value;
    case CompareOp::kNe:
      return candidate != value;
    case CompareOp::kLt:
      return candidate < value;
    case CompareOp::kLe:
      return candidate <= value;
    case CompareOp::kGt:
      return candidate > value;
    case CompareOp::kGe:
      return candidate >= value;
    case CompareOp::kBetween:
      return candidate >= value && candidate <= value2;
  }
  return false;
}

std::string FilterPredicate::ToString(const Schema& schema) const {
  std::string name = column < schema.num_columns()
                         ? schema.column(column).name
                         : StrCat("col", column);
  if (op == CompareOp::kBetween) {
    return StrCat(name, " between ", value, " and ", value2);
  }
  return StrCat(name, " ", CompareOpName(op), " ", value);
}

StatusOr<std::unique_ptr<FilterOp>> FilterOp::Make(
    std::shared_ptr<const Schema> input_schema, FilterPredicate predicate) {
  if (predicate.column >= input_schema->num_columns()) {
    return Status::OutOfRange(StrCat("filter column ", predicate.column,
                                     " out of range for ",
                                     input_schema->ToString()));
  }
  if (input_schema->column(predicate.column).type != ColumnType::kInt32) {
    return Status::InvalidArgument("filter predicates require int32 columns");
  }
  if (predicate.op == CompareOp::kBetween &&
      predicate.value > predicate.value2) {
    return Status::InvalidArgument("between bounds reversed");
  }
  return std::unique_ptr<FilterOp>(
      // lint:allow-new private-constructor factory, owned immediately
      new FilterOp(std::move(input_schema), predicate));
}

void FilterOp::Consume(int port, const TupleBatch& batch, OpContext* ctx) {
  if (ctx->cancelled()) return;
  // One unit per tuple: evaluating the predicate.
  ctx->Charge(static_cast<Ticks>(batch.num_tuples()) *
              ctx->costs().tuple_hash);
  tuples_in_ += batch.num_tuples();
  // Output schema equals input schema, so a surviving row is copied
  // straight into the destination batch (its routing value, if any, is
  // the input row's value in the writer's split column).
  EmitWriter& writer = ctx->emit_writer();
  const int split = writer.split_column();
  const size_t row_bytes = schema_->tuple_size();
  for (size_t i = 0; i < batch.num_tuples(); ++i) {
    TupleRef t = batch.tuple(i);
    if (!predicate_.Matches(t.GetInt32(predicate_.column))) continue;
    ++tuples_out_;
    TupleWriter out =
        writer.Begin(split < 0 ? 0 : t.GetInt32(static_cast<size_t>(split)));
    std::memcpy(out.data(), t.data(), row_bytes);
    writer.Commit();
  }
}

}  // namespace mjoin
