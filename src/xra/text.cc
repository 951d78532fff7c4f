#include "xra/text.h"

#include <charconv>
#include <map>
#include <sstream>
#include <vector>

#include "common/string_util.h"

namespace mjoin {

namespace {

// --- serialization -----------------------------------------------------------

std::string ColumnToken(const Column& column) {
  switch (column.type) {
    case ColumnType::kInt32:
      return StrCat(column.name, ":i32");
    case ColumnType::kInt64:
      return StrCat(column.name, ":i64");
    case ColumnType::kFixedString:
      return StrCat(column.name, ":str", column.width);
  }
  return "?";
}

std::string KindToken(XraOpKind kind) { return XraOpKindName(kind); }

std::string MilestoneToken(Milestone milestone) {
  return MilestoneName(milestone);
}

std::string CompareToken(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "eq";
    case CompareOp::kNe:
      return "ne";
    case CompareOp::kLt:
      return "lt";
    case CompareOp::kLe:
      return "le";
    case CompareOp::kGt:
      return "gt";
    case CompareOp::kGe:
      return "ge";
    case CompareOp::kBetween:
      return "between";
  }
  return "?";
}

/// Interns structurally-equal schemas and hands out stable indices.
class SchemaTable {
 public:
  size_t Intern(const std::shared_ptr<const Schema>& schema) {
    for (size_t i = 0; i < schemas_.size(); ++i) {
      if (*schemas_[i] == *schema) return i;
    }
    schemas_.push_back(schema);
    return schemas_.size() - 1;
  }

  const std::vector<std::shared_ptr<const Schema>>& schemas() const {
    return schemas_;
  }

 private:
  std::vector<std::shared_ptr<const Schema>> schemas_;
};

std::string ProcsToken(const std::vector<uint32_t>& processors) {
  std::vector<std::string> parts;
  parts.reserve(processors.size());
  for (uint32_t p : processors) parts.push_back(StrCat(p));
  return StrJoin(parts, ",");
}

std::string OutputsToken(const std::vector<JoinOutputColumn>& outputs) {
  std::vector<std::string> parts;
  parts.reserve(outputs.size());
  for (const JoinOutputColumn& oc : outputs) {
    parts.push_back(StrCat(oc.side == 0 ? "L" : "R", oc.column));
  }
  return StrJoin(parts, ",");
}

}  // namespace

std::string SerializePlan(const ParallelPlan& plan) {
  SchemaTable schemas;
  // Intern in a deterministic order first.
  for (const XraOp& op : plan.ops) {
    if (op.is_join()) {
      schemas.Intern(op.join_spec.left_schema);
      schemas.Intern(op.join_spec.right_schema);
    }
    if (op.input_schema != nullptr) schemas.Intern(op.input_schema);
    schemas.Intern(op.output_schema);
  }

  std::string out = "mjoin-plan v1\n";
  out += StrCat("strategy ", plan.strategy.empty() ? "-" : plan.strategy,
                "\n");
  out += StrCat("processors ", plan.num_processors, "\n");
  out += StrCat("results ", plan.num_results, " final ", plan.final_result,
                "\n");
  for (size_t i = 0; i < schemas.schemas().size(); ++i) {
    out += StrCat("schema ", i);
    for (const Column& column : schemas.schemas()[i]->columns()) {
      // Split concatenation: `"" + std::string&&` trips GCC 12's
      // -Wrestrict false positive (PR 105651) under -O2 -Werror.
      out += ' ';
      out += ColumnToken(column);
    }
    out += "\n";
  }
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    out += StrCat("group ", g);
    for (const TriggerDep& dep : plan.groups[g].deps) {
      out += StrCat(" dep ", dep.op, " ", MilestoneToken(dep.milestone));
    }
    out += "\n";
  }
  for (const XraOp& op : plan.ops) {
    out += StrCat("op ", op.id, " ", KindToken(op.kind), " group ",
                  op.trigger_group, " label \"", op.label, "\" trace ",
                  static_cast<int>(op.trace_label), " procs ",
                  ProcsToken(op.processors), " schema ",
                  schemas.Intern(op.output_schema));
    switch (op.kind) {
      case XraOpKind::kScan:
        out += StrCat(" relation ", op.relation);
        break;
      case XraOpKind::kRescan:
        out += StrCat(" result ", op.stored_result);
        break;
      case XraOpKind::kSimpleHashJoin:
      case XraOpKind::kPipeliningHashJoin:
      case XraOpKind::kSortMergeJoin:
        out += StrCat(" left ", schemas.Intern(op.join_spec.left_schema),
                      " right ", schemas.Intern(op.join_spec.right_schema),
                      " lkey ", op.join_spec.left_key, " rkey ",
                      op.join_spec.right_key, " outputs ",
                      OutputsToken(op.join_spec.output_columns), " in0 ",
                      op.inputs[0].producer, " ",
                      op.inputs[0].routing == Routing::kColocated
                          ? "colocated"
                          : StrCat("split:", op.inputs[0].split_key),
                      " in1 ", op.inputs[1].producer, " ",
                      op.inputs[1].routing == Routing::kColocated
                          ? "colocated"
                          : StrCat("split:", op.inputs[1].split_key));
        break;
      case XraOpKind::kFilter:
        out += StrCat(" input ", schemas.Intern(op.input_schema), " col ",
                      op.filter.column, " cmp ", CompareToken(op.filter.op),
                      " value ", op.filter.value, " value2 ",
                      op.filter.value2, " in0 ", op.inputs[0].producer, " ",
                      op.inputs[0].routing == Routing::kColocated
                          ? "colocated"
                          : StrCat("split:", op.inputs[0].split_key));
        break;
      case XraOpKind::kAggregate:
        out += StrCat(" input ", schemas.Intern(op.input_schema),
                      " groupcol ", op.group_column, " valuecol ",
                      op.value_column, " in0 ", op.inputs[0].producer, " ",
                      op.inputs[0].routing == Routing::kColocated
                          ? "colocated"
                          : StrCat("split:", op.inputs[0].split_key));
        break;
    }
    if (op.store_result >= 0) {
      out += StrCat(" store ", op.store_result);
    } else {
      out += StrCat(" feed ", op.consumer, " ", op.consumer_port);
    }
    out += "\n";
  }
  return out;
}

namespace {

// --- parsing -----------------------------------------------------------------

/// Splits one line into tokens; a double-quoted token (used for labels)
/// may contain spaces.
StatusOr<std::vector<std::string>> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    if (line[i] == ' ') {
      ++i;
      continue;
    }
    if (line[i] == '"') {
      size_t end = line.find('"', i + 1);
      if (end == std::string::npos) {
        return Status::InvalidArgument("unterminated quote");
      }
      tokens.push_back(line.substr(i + 1, end - i - 1));
      i = end + 1;
    } else {
      size_t end = line.find(' ', i);
      if (end == std::string::npos) end = line.size();
      tokens.push_back(line.substr(i, end - i));
      i = end;
    }
  }
  return tokens;
}

/// Parses `token` whole into the field's own type: out-of-range values
/// and, for unsigned fields, a minus sign are rejected, never cast.
template <typename T>
StatusOr<T> ParseInt(const std::string& token) {
  T value{};
  auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(),
                                   value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return Status::InvalidArgument(StrCat("bad integer '", token, "'"));
  }
  return value;
}

/// Checks a name the printer writes back: a label is printed quoted, so it
/// must not contain a quote; any other name is printed bare, so it must
/// also be non-empty and free of spaces. Either way the printed plan
/// re-parses to the same name.
Status CheckName(const std::string& name, bool quoted) {
  if (name.find('"') != std::string::npos ||
      (!quoted && (name.empty() || name.find(' ') != std::string::npos))) {
    return Status::InvalidArgument(StrCat("bad name '", name, "'"));
  }
  return Status::OK();
}

StatusOr<Column> ParseColumn(const std::string& token) {
  size_t colon = token.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    return Status::InvalidArgument(StrCat("bad column '", token, "'"));
  }
  std::string name = token.substr(0, colon);
  MJOIN_RETURN_IF_ERROR(CheckName(name, /*quoted=*/false));
  std::string type = token.substr(colon + 1);
  if (type == "i32") return Column::Int32(name);
  if (type == "i64") return Column::Int64(name);
  if (type.rfind("str", 0) == 0) {
    MJOIN_ASSIGN_OR_RETURN(uint32_t width, ParseInt<uint32_t>(type.substr(3)));
    if (width == 0 || width > 1 << 20) {
      return Status::InvalidArgument("bad string width");
    }
    return Column::FixedString(name, width);
  }
  return Status::InvalidArgument(StrCat("bad column type '", type, "'"));
}

StatusOr<CompareOp> ParseCompare(const std::string& token) {
  static const std::map<std::string, CompareOp> kOps = {
      {"eq", CompareOp::kEq},   {"ne", CompareOp::kNe},
      {"lt", CompareOp::kLt},   {"le", CompareOp::kLe},
      {"gt", CompareOp::kGt},   {"ge", CompareOp::kGe},
      {"between", CompareOp::kBetween}};
  auto it = kOps.find(token);
  if (it == kOps.end()) {
    return Status::InvalidArgument(StrCat("bad compare op '", token, "'"));
  }
  return it->second;
}

StatusOr<XraOpKind> ParseKind(const std::string& token) {
  static const std::map<std::string, XraOpKind> kKinds = {
      {"scan", XraOpKind::kScan},
      {"rescan", XraOpKind::kRescan},
      {"simple-hash-join", XraOpKind::kSimpleHashJoin},
      {"pipelining-hash-join", XraOpKind::kPipeliningHashJoin},
      {"filter", XraOpKind::kFilter},
      {"aggregate", XraOpKind::kAggregate},
      {"sort-merge-join", XraOpKind::kSortMergeJoin}};
  auto it = kKinds.find(token);
  if (it == kKinds.end()) {
    return Status::InvalidArgument(StrCat("bad op kind '", token, "'"));
  }
  return it->second;
}

/// Cursor over a token list with typed accessors.
class TokenCursor {
 public:
  explicit TokenCursor(std::vector<std::string> tokens)
      : tokens_(std::move(tokens)) {}

  bool done() const { return next_ >= tokens_.size(); }

  StatusOr<std::string> Next() {
    if (done()) return Status::InvalidArgument("unexpected end of line");
    return tokens_[next_++];
  }

  /// The next token as a name (see CheckName).
  StatusOr<std::string> NextName(bool quoted = false) {
    MJOIN_ASSIGN_OR_RETURN(std::string name, Next());
    MJOIN_RETURN_IF_ERROR(CheckName(name, quoted));
    return name;
  }

  Status Expect(const std::string& keyword) {
    MJOIN_ASSIGN_OR_RETURN(std::string token, Next());
    if (token != keyword) {
      return Status::InvalidArgument(
          StrCat("expected '", keyword, "', got '", token, "'"));
    }
    return Status::OK();
  }

  template <typename T>
  StatusOr<T> NextInt() {
    MJOIN_ASSIGN_OR_RETURN(std::string token, Next());
    return ParseInt<T>(token);
  }

  /// OK once every token is consumed; otherwise rejects the first leftover
  /// as trailing the `record` record.
  Status ExpectEnd(const std::string& record) const {
    if (done()) return Status::OK();
    return Status::InvalidArgument(StrCat("unexpected '", tokens_[next_],
                                          "' at the end of the '", record,
                                          "' record"));
  }

  /// Peeks whether the next token equals `keyword` (consumes on match).
  bool Accept(const std::string& keyword) {
    if (done() || tokens_[next_] != keyword) return false;
    ++next_;
    return true;
  }

 private:
  std::vector<std::string> tokens_;
  size_t next_ = 0;
};

Status ParseInputSpec(TokenCursor* cursor, XraInput* input) {
  MJOIN_ASSIGN_OR_RETURN(input->producer, cursor->NextInt<int>());
  MJOIN_ASSIGN_OR_RETURN(std::string routing, cursor->Next());
  if (routing == "colocated") {
    input->routing = Routing::kColocated;
  } else if (routing.rfind("split:", 0) == 0) {
    input->routing = Routing::kHashSplit;
    MJOIN_ASSIGN_OR_RETURN(input->split_key,
                           ParseInt<size_t>(routing.substr(6)));
  } else {
    return Status::InvalidArgument(StrCat("bad routing '", routing, "'"));
  }
  return Status::OK();
}

StatusOr<std::vector<JoinOutputColumn>> ParseOutputs(
    const std::string& token) {
  std::vector<JoinOutputColumn> outputs;
  for (const std::string& part : StrSplit(token, ',')) {
    if (part.size() < 2 || (part[0] != 'L' && part[0] != 'R')) {
      return Status::InvalidArgument(StrCat("bad output '", part, "'"));
    }
    MJOIN_ASSIGN_OR_RETURN(size_t column, ParseInt<size_t>(part.substr(1)));
    outputs.push_back(JoinOutputColumn{part[0] == 'L' ? 0 : 1, column});
  }
  return outputs;
}

}  // namespace

StatusOr<ParallelPlan> ParsePlan(const std::string& text) {
  std::vector<std::shared_ptr<const Schema>> schemas;
  ParallelPlan plan;
  bool saw_header = false;

  auto schema_at = [&](size_t idx) -> StatusOr<std::shared_ptr<const Schema>> {
    if (idx >= schemas.size()) {
      return Status::InvalidArgument(StrCat("bad schema index ", idx));
    }
    return schemas[idx];
  };

  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty() || line[0] == '#') continue;
    MJOIN_ASSIGN_OR_RETURN(std::vector<std::string> tokens, Tokenize(line));
    if (tokens.empty()) continue;
    TokenCursor cursor(std::move(tokens));
    MJOIN_ASSIGN_OR_RETURN(std::string head, cursor.Next());

    if (head == "mjoin-plan") {
      MJOIN_RETURN_IF_ERROR(cursor.Expect("v1"));
      saw_header = true;
    } else if (head == "strategy") {
      MJOIN_ASSIGN_OR_RETURN(plan.strategy, cursor.NextName());
    } else if (head == "processors") {
      MJOIN_ASSIGN_OR_RETURN(plan.num_processors, cursor.NextInt<uint32_t>());
    } else if (head == "results") {
      MJOIN_ASSIGN_OR_RETURN(plan.num_results, cursor.NextInt<int>());
      MJOIN_RETURN_IF_ERROR(cursor.Expect("final"));
      MJOIN_ASSIGN_OR_RETURN(plan.final_result, cursor.NextInt<int>());
    } else if (head == "schema") {
      MJOIN_ASSIGN_OR_RETURN(size_t idx, cursor.NextInt<size_t>());
      if (idx != schemas.size()) {
        return Status::InvalidArgument("schemas must appear in order");
      }
      std::vector<Column> columns;
      while (!cursor.done()) {
        MJOIN_ASSIGN_OR_RETURN(std::string token, cursor.Next());
        MJOIN_ASSIGN_OR_RETURN(Column column, ParseColumn(token));
        columns.push_back(std::move(column));
      }
      schemas.push_back(std::make_shared<const Schema>(std::move(columns)));
    } else if (head == "group") {
      MJOIN_ASSIGN_OR_RETURN(size_t idx, cursor.NextInt<size_t>());
      if (idx != plan.groups.size()) {
        return Status::InvalidArgument("groups must appear in order");
      }
      TriggerGroup group;
      while (cursor.Accept("dep")) {
        TriggerDep dep;
        MJOIN_ASSIGN_OR_RETURN(dep.op, cursor.NextInt<int>());
        MJOIN_ASSIGN_OR_RETURN(std::string milestone, cursor.Next());
        if (milestone == "complete") {
          dep.milestone = Milestone::kComplete;
        } else if (milestone == "build-done") {
          dep.milestone = Milestone::kBuildDone;
        } else {
          return Status::InvalidArgument(
              StrCat("bad milestone '", milestone, "'"));
        }
        group.deps.push_back(dep);
      }
      plan.groups.push_back(std::move(group));
    } else if (head == "op") {
      XraOp op;
      MJOIN_ASSIGN_OR_RETURN(op.id, cursor.NextInt<int>());
      MJOIN_ASSIGN_OR_RETURN(std::string kind, cursor.Next());
      MJOIN_ASSIGN_OR_RETURN(op.kind, ParseKind(kind));
      MJOIN_RETURN_IF_ERROR(cursor.Expect("group"));
      MJOIN_ASSIGN_OR_RETURN(op.trigger_group, cursor.NextInt<int>());
      MJOIN_RETURN_IF_ERROR(cursor.Expect("label"));
      MJOIN_ASSIGN_OR_RETURN(op.label, cursor.NextName(/*quoted=*/true));
      MJOIN_RETURN_IF_ERROR(cursor.Expect("trace"));
      MJOIN_ASSIGN_OR_RETURN(op.trace_label, cursor.NextInt<char>());
      MJOIN_RETURN_IF_ERROR(cursor.Expect("procs"));
      MJOIN_ASSIGN_OR_RETURN(std::string procs, cursor.Next());
      for (const std::string& token : StrSplit(procs, ',')) {
        MJOIN_ASSIGN_OR_RETURN(uint32_t p, ParseInt<uint32_t>(token));
        op.processors.push_back(p);
      }
      MJOIN_RETURN_IF_ERROR(cursor.Expect("schema"));
      MJOIN_ASSIGN_OR_RETURN(size_t out_schema, cursor.NextInt<size_t>());
      MJOIN_ASSIGN_OR_RETURN(op.output_schema, schema_at(out_schema));

      switch (op.kind) {
        case XraOpKind::kScan: {
          MJOIN_RETURN_IF_ERROR(cursor.Expect("relation"));
          MJOIN_ASSIGN_OR_RETURN(op.relation, cursor.NextName());
          break;
        }
        case XraOpKind::kRescan: {
          MJOIN_RETURN_IF_ERROR(cursor.Expect("result"));
          MJOIN_ASSIGN_OR_RETURN(op.stored_result, cursor.NextInt<int>());
          break;
        }
        case XraOpKind::kSimpleHashJoin:
        case XraOpKind::kPipeliningHashJoin:
        case XraOpKind::kSortMergeJoin: {
          MJOIN_RETURN_IF_ERROR(cursor.Expect("left"));
          MJOIN_ASSIGN_OR_RETURN(size_t left, cursor.NextInt<size_t>());
          MJOIN_RETURN_IF_ERROR(cursor.Expect("right"));
          MJOIN_ASSIGN_OR_RETURN(size_t right, cursor.NextInt<size_t>());
          MJOIN_RETURN_IF_ERROR(cursor.Expect("lkey"));
          MJOIN_ASSIGN_OR_RETURN(size_t lkey, cursor.NextInt<size_t>());
          MJOIN_RETURN_IF_ERROR(cursor.Expect("rkey"));
          MJOIN_ASSIGN_OR_RETURN(size_t rkey, cursor.NextInt<size_t>());
          MJOIN_RETURN_IF_ERROR(cursor.Expect("outputs"));
          MJOIN_ASSIGN_OR_RETURN(std::string outputs, cursor.Next());
          MJOIN_ASSIGN_OR_RETURN(std::vector<JoinOutputColumn> output_cols,
                                 ParseOutputs(outputs));
          MJOIN_ASSIGN_OR_RETURN(auto left_schema, schema_at(left));
          MJOIN_ASSIGN_OR_RETURN(auto right_schema, schema_at(right));
          MJOIN_ASSIGN_OR_RETURN(
              op.join_spec,
              MakeJoinSpec(left_schema, right_schema, lkey, rkey,
                           output_cols));
          MJOIN_RETURN_IF_ERROR(cursor.Expect("in0"));
          MJOIN_RETURN_IF_ERROR(ParseInputSpec(&cursor, &op.inputs[0]));
          MJOIN_RETURN_IF_ERROR(cursor.Expect("in1"));
          MJOIN_RETURN_IF_ERROR(ParseInputSpec(&cursor, &op.inputs[1]));
          break;
        }
        case XraOpKind::kFilter: {
          MJOIN_RETURN_IF_ERROR(cursor.Expect("input"));
          MJOIN_ASSIGN_OR_RETURN(size_t input, cursor.NextInt<size_t>());
          MJOIN_ASSIGN_OR_RETURN(op.input_schema, schema_at(input));
          MJOIN_RETURN_IF_ERROR(cursor.Expect("col"));
          MJOIN_ASSIGN_OR_RETURN(op.filter.column, cursor.NextInt<size_t>());
          MJOIN_RETURN_IF_ERROR(cursor.Expect("cmp"));
          MJOIN_ASSIGN_OR_RETURN(std::string cmp, cursor.Next());
          MJOIN_ASSIGN_OR_RETURN(op.filter.op, ParseCompare(cmp));
          MJOIN_RETURN_IF_ERROR(cursor.Expect("value"));
          MJOIN_ASSIGN_OR_RETURN(op.filter.value, cursor.NextInt<int32_t>());
          MJOIN_RETURN_IF_ERROR(cursor.Expect("value2"));
          MJOIN_ASSIGN_OR_RETURN(op.filter.value2, cursor.NextInt<int32_t>());
          MJOIN_RETURN_IF_ERROR(cursor.Expect("in0"));
          MJOIN_RETURN_IF_ERROR(ParseInputSpec(&cursor, &op.inputs[0]));
          break;
        }
        case XraOpKind::kAggregate: {
          MJOIN_RETURN_IF_ERROR(cursor.Expect("input"));
          MJOIN_ASSIGN_OR_RETURN(size_t input, cursor.NextInt<size_t>());
          MJOIN_ASSIGN_OR_RETURN(op.input_schema, schema_at(input));
          MJOIN_RETURN_IF_ERROR(cursor.Expect("groupcol"));
          MJOIN_ASSIGN_OR_RETURN(op.group_column, cursor.NextInt<size_t>());
          MJOIN_RETURN_IF_ERROR(cursor.Expect("valuecol"));
          MJOIN_ASSIGN_OR_RETURN(op.value_column, cursor.NextInt<size_t>());
          MJOIN_RETURN_IF_ERROR(cursor.Expect("in0"));
          MJOIN_RETURN_IF_ERROR(ParseInputSpec(&cursor, &op.inputs[0]));
          break;
        }
      }

      MJOIN_ASSIGN_OR_RETURN(std::string dest, cursor.Next());
      if (dest == "store") {
        MJOIN_ASSIGN_OR_RETURN(op.store_result, cursor.NextInt<int>());
      } else if (dest == "feed") {
        MJOIN_ASSIGN_OR_RETURN(op.consumer, cursor.NextInt<int>());
        MJOIN_ASSIGN_OR_RETURN(op.consumer_port, cursor.NextInt<int>());
      } else {
        return Status::InvalidArgument(
            StrCat("bad destination '", dest, "'"));
      }
      if (op.id != static_cast<int>(plan.ops.size())) {
        return Status::InvalidArgument("ops must appear in id order");
      }
      plan.ops.push_back(std::move(op));
      // Register in its group.
      if (plan.ops.back().trigger_group < 0 ||
          plan.ops.back().trigger_group >=
              static_cast<int>(plan.groups.size())) {
        return Status::InvalidArgument("op references unknown group");
      }
      plan.groups[static_cast<size_t>(plan.ops.back().trigger_group)]
          .ops.push_back(plan.ops.back().id);
    } else {
      return Status::InvalidArgument(StrCat("bad record '", head, "'"));
    }
    MJOIN_RETURN_IF_ERROR(cursor.ExpectEnd(head));
  }

  if (!saw_header) return Status::InvalidArgument("missing mjoin-plan header");
  MJOIN_RETURN_IF_ERROR(plan.Validate());
  return plan;
}

}  // namespace mjoin
