#include "storage/partitioner.h"

#include "common/string_util.h"

namespace mjoin {

namespace {

Status CheckKeyColumn(const Schema& schema, size_t key_column) {
  if (key_column >= schema.num_columns()) {
    return Status::OutOfRange(StrCat("key column ", key_column,
                                     " out of range; schema has ",
                                     schema.num_columns(), " columns"));
  }
  if (schema.column(key_column).type != ColumnType::kInt32) {
    return Status::InvalidArgument(StrCat(
        "key column '", schema.column(key_column).name, "' is not int32"));
  }
  return Status::OK();
}

std::vector<Relation> MakeFragments(const Schema& schema, uint32_t n) {
  std::vector<Relation> fragments;
  fragments.reserve(n);
  for (uint32_t i = 0; i < n; ++i) fragments.emplace_back(schema);
  return fragments;
}

std::vector<Relation> SplitByRule(const Relation& input,
                                  const FragmentRule& rule) {
  std::vector<Relation> fragments =
      MakeFragments(input.schema(), rule.num_fragments());
  const size_t row_bytes = input.schema().tuple_size();
  for (size_t r = 0; r < input.num_tuples(); ++r) {
    const std::byte* row = input.raw_data() + r * row_bytes;
    fragments[rule.Of(r, row)].AppendRow(row);
  }
  return fragments;
}

}  // namespace

FragmentRule FragmentRule::RoundRobin(uint32_t num_fragments) {
  MJOIN_CHECK(num_fragments > 0);
  return FragmentRule(num_fragments, /*key_offset=*/-1);
}

StatusOr<FragmentRule> FragmentRule::Hash(const Schema& schema,
                                          size_t key_column,
                                          uint32_t num_fragments) {
  if (num_fragments == 0) {
    return Status::InvalidArgument("num_fragments must be > 0");
  }
  MJOIN_RETURN_IF_ERROR(CheckKeyColumn(schema, key_column));
  return FragmentRule(num_fragments, schema.offset(key_column));
}

StatusOr<std::vector<Relation>> HashPartition(const Relation& input,
                                              size_t key_column,
                                              uint32_t num_fragments) {
  MJOIN_ASSIGN_OR_RETURN(
      FragmentRule rule,
      FragmentRule::Hash(input.schema(), key_column, num_fragments));
  return SplitByRule(input, rule);
}

std::vector<Relation> RoundRobinPartition(const Relation& input,
                                          uint32_t num_fragments) {
  return SplitByRule(input, FragmentRule::RoundRobin(num_fragments));
}

StatusOr<std::vector<Relation>> RangePartition(const Relation& input,
                                               size_t key_column,
                                               uint32_t num_fragments,
                                               int32_t lo, int32_t hi) {
  if (num_fragments == 0) {
    return Status::InvalidArgument("num_fragments must be > 0");
  }
  if (lo > hi) return Status::InvalidArgument("range lo > hi");
  MJOIN_RETURN_IF_ERROR(CheckKeyColumn(input.schema(), key_column));
  std::vector<Relation> fragments = MakeFragments(input.schema(), num_fragments);
  double span = static_cast<double>(hi) - static_cast<double>(lo) + 1.0;
  for (size_t i = 0; i < input.num_tuples(); ++i) {
    TupleRef t = input.tuple(i);
    int32_t key = t.GetInt32(key_column);
    if (key < lo || key > hi) {
      return Status::OutOfRange(StrCat("key ", key, " outside [", lo, ", ",
                                       hi, "]"));
    }
    auto dest = static_cast<uint32_t>(
        (static_cast<double>(key) - static_cast<double>(lo)) / span *
        num_fragments);
    if (dest >= num_fragments) dest = num_fragments - 1;
    fragments[dest].AppendRow(t.data());
  }
  return fragments;
}

Relation ConcatFragments(const std::vector<Relation>& fragments) {
  MJOIN_CHECK(!fragments.empty());
  Relation out(fragments[0].schema());
  size_t total = 0;
  for (const Relation& f : fragments) total += f.num_tuples();
  out.Reserve(total);
  for (const Relation& f : fragments) {
    for (size_t i = 0; i < f.num_tuples(); ++i) out.AppendRow(f.tuple(i).data());
  }
  return out;
}

}  // namespace mjoin
