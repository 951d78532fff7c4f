#include "exec/aggregate.h"

#include <algorithm>

#include "common/string_util.h"
#include "exec/emit.h"
#include "storage/tuple.h"

namespace mjoin {

StatusOr<std::unique_ptr<AggregateOp>> AggregateOp::Make(
    std::shared_ptr<const Schema> input_schema, size_t group_column,
    size_t value_column) {
  for (size_t col : {group_column, value_column}) {
    if (col >= input_schema->num_columns()) {
      return Status::OutOfRange(StrCat("aggregate column ", col,
                                       " out of range for ",
                                       input_schema->ToString()));
    }
    if (input_schema->column(col).type != ColumnType::kInt32) {
      return Status::InvalidArgument(
          "aggregation requires int32 group/value columns");
    }
  }
  std::string group_name = input_schema->column(group_column).name;
  std::string value_name = input_schema->column(value_column).name;
  auto output_schema = std::make_shared<const Schema>(Schema({
      Column::Int32(group_name),
      Column::Int64("count"),
      Column::Int64(StrCat("sum_", value_name)),
      Column::Int32(StrCat("min_", value_name)),
      Column::Int32(StrCat("max_", value_name)),
  }));
  return std::unique_ptr<AggregateOp>(
      // lint:allow-new private-constructor factory, owned immediately
      new AggregateOp(std::move(input_schema), group_column, value_column,
                      std::move(output_schema)));
}

void AggregateOp::Consume(int port, const TupleBatch& batch, OpContext* ctx) {
  if (ctx->cancelled()) return;
  // One hash + one accumulator update per tuple.
  ctx->Charge(static_cast<Ticks>(batch.num_tuples()) *
              (ctx->costs().tuple_hash + ctx->costs().tuple_build));
  for (size_t i = 0; i < batch.num_tuples(); ++i) {
    TupleRef t = batch.tuple(i);
    int32_t group = t.GetInt32(group_column_);
    int32_t value = t.GetInt32(value_column_);
    auto [it, inserted] = groups_.try_emplace(group);
    Accumulator& acc = it->second;
    if (inserted) {
      acc.min = acc.max = value;
      current_memory_ += sizeof(int32_t) + sizeof(Accumulator);
      peak_memory_ = std::max(peak_memory_, current_memory_);
    } else {
      acc.min = std::min(acc.min, value);
      acc.max = std::max(acc.max, value);
    }
    acc.count += 1;
    acc.sum += value;
  }
}

void AggregateOp::InputDone(int port, OpContext* ctx) {
  // Pipeline breaker: emit one result row per group now.
  ctx->Charge(static_cast<Ticks>(groups_.size()) *
              ctx->costs().tuple_result);
  // The routing value is the one the row will carry in the writer's split
  // column, which is int32: the group (0), the min (3) or the max (4).
  EmitWriter& writer = ctx->emit_writer();
  const int split = writer.split_column();
  MJOIN_DCHECK(split < 0 || split == 0 || split == 3 || split == 4);
  for (const auto& [group, acc] : groups_) {
    TupleWriter w = writer.Begin(split == 3   ? acc.min
                                 : split == 4 ? acc.max
                                              : group);
    w.SetInt32(0, group);
    w.SetInt64(1, acc.count);
    w.SetInt64(2, acc.sum);
    w.SetInt32(3, acc.min);
    w.SetInt32(4, acc.max);
    writer.Commit();
  }
  done_ = true;
}

void AggregateOp::ReleaseMemory() {
  groups_.clear();
  current_memory_ = 0;
}

}  // namespace mjoin
