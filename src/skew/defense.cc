#include "skew/defense.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace mjoin {

const char* SkewDefenseModeName(SkewDefenseMode mode) {
  switch (mode) {
    case SkewDefenseMode::kOff:
      return "off";
    case SkewDefenseMode::kOn:
      return "on";
    case SkewDefenseMode::kAuto:
      return "auto";
  }
  return "unknown";
}

StatusOr<SkewDefenseMode> ParseSkewDefenseMode(const std::string& text) {
  if (text == "off") return SkewDefenseMode::kOff;
  if (text == "on") return SkewDefenseMode::kOn;
  if (text == "auto") return SkewDefenseMode::kAuto;
  return Status::InvalidArgument(
      StrCat("unknown skew defense mode '", text, "' (valid: off, on, auto)"));
}

Status CheckSkewDefenseOptions(const SkewDefenseOptions& options) {
  if (!options.enabled()) return Status::OK();
  if (options.bloom_bits == 0 || options.bloom_bits > kMaxBloomBits) {
    return Status::InvalidArgument(
        StrCat("SkewDefenseOptions::bloom_bits must be in [1, ", kMaxBloomBits,
               "], not ", options.bloom_bits));
  }
  if (options.sketch_capacity == 0) {
    return Status::InvalidArgument(
        "SkewDefenseOptions::sketch_capacity must be positive");
  }
  return Status::OK();
}

std::vector<int> DefendedJoinOps(const ParallelPlan& plan) {
  std::vector<int> out;
  for (const XraOp& op : plan.ops) {
    if (op.kind != XraOpKind::kSimpleHashJoin) continue;
    const XraInput& probe = op.inputs[1];
    if (probe.producer < 0 || probe.routing != Routing::kHashSplit) continue;
    out.push_back(op.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// The hot threshold in rows, given the row total the caller knows about.
/// Used with the instance-local total on workers (a lower bound on the
/// global threshold, since no instance holds more rows than the join) and
/// with the true total in the merger.
uint64_t HotThreshold(uint64_t total_rows, uint32_t num_instances,
                      const SkewDefenseOptions& options) {
  double fair = static_cast<double>(total_rows) / num_instances;
  auto scaled = static_cast<uint64_t>(std::ceil(options.hot_fraction * fair));
  return std::max<uint64_t>(scaled, options.min_hot_count);
}

}  // namespace

SkewJoinReport BuildSkewReport(const JoinHashTable& table, int op,
                               uint32_t instance, uint32_t num_instances,
                               const SkewDefenseOptions& options) {
  SkewJoinReport report;
  report.op = op;
  report.instance = instance;
  report.build_rows = table.size();
  report.tuple_size = static_cast<uint32_t>(table.schema().tuple_size());

  BloomFilter bloom(options.bloom_bits);
  SpaceSavingSketch sketch(options.sketch_capacity);
  const size_t key_column = table.key_column();
  table.ForEachRow([&](TupleRef row) {
    int32_t key = row.GetInt32(key_column);
    bloom.Insert(key);
    sketch.Observe(key);
  });
  report.bloom = std::move(bloom);

  const uint64_t threshold =
      HotThreshold(report.build_rows, num_instances, options);
  const size_t tuple_size = table.schema().tuple_size();
  size_t row_bytes_used = 0;
  for (const SpaceSavingSketch::Entry& entry : sketch.Entries()) {
    if (entry.count < threshold) break;  // entries are count-descending
    SkewCandidate candidate;
    candidate.key = entry.key;
    candidate.count = entry.count;
    // Gather the candidate's build rows while staying under the byte cap;
    // over-cap candidates are reported count-only (they keep their exact
    // sketch upper bound and stay pinned to their owner).
    std::vector<std::byte> rows;
    size_t matches = table.Probe(entry.key, [&](TupleRef row) {
      rows.insert(rows.end(), row.data(), row.data() + tuple_size);
    });
    if (row_bytes_used + rows.size() <= options.max_hot_row_bytes) {
      row_bytes_used += rows.size();
      candidate.count = matches;  // exact now that every row was visited
      candidate.rows_included = true;
      candidate.rows = std::move(rows);
    }
    report.candidates.push_back(std::move(candidate));
  }
  return report;
}

SkewReportMerger::SkewReportMerger(int op, uint32_t num_instances,
                                   const SkewDefenseOptions& options)
    : op_(op), num_instances_(num_instances), options_(options) {
  MJOIN_CHECK(num_instances > 0);
  per_instance_rows_.assign(num_instances, 0);
}

void SkewReportMerger::Add(SkewJoinReport report) {
  MJOIN_CHECK(report.op == op_) << "report for op " << report.op
                                << " fed to merger of op " << op_;
  MJOIN_CHECK(report.instance < num_instances_);
  MJOIN_CHECK(received_ < num_instances_);
  ++received_;
  per_instance_rows_[report.instance] += report.build_rows;
  if (report.tuple_size > tuple_size_) tuple_size_ = report.tuple_size;
  bloom_.Union(report.bloom);
  for (SkewCandidate& candidate : report.candidates) {
    candidates_.push_back(std::move(candidate));
  }
}

SkewDirective SkewReportMerger::Finish() {
  MJOIN_CHECK(complete());
  SkewDirective directive;
  directive.op = op_;
  directive.tuple_size = tuple_size_;
  directive.bloom = std::move(bloom_);

  uint64_t total = 0;
  uint64_t max_rows = 0;
  for (uint64_t rows : per_instance_rows_) {
    total += rows;
    max_rows = std::max(max_rows, rows);
  }
  directive.total_build_rows = total;
  double mean = static_cast<double>(total) / num_instances_;
  directive.imbalance = mean > 0 ? static_cast<double>(max_rows) / mean : 1.0;

  const bool repartition_allowed =
      options_.mode == SkewDefenseMode::kOn ||
      (options_.mode == SkewDefenseMode::kAuto &&
       directive.imbalance >= options_.auto_imbalance_threshold);
  if (!repartition_allowed) return directive;

  const uint64_t threshold = HotThreshold(total, num_instances_, options_);
  // Deterministic hot-key order regardless of report arrival order.
  std::sort(candidates_.begin(), candidates_.end(),
            [](const SkewCandidate& a, const SkewCandidate& b) {
              return a.key < b.key;
            });
  for (SkewCandidate& candidate : candidates_) {
    if (candidate.count < threshold || !candidate.rows_included) continue;
    // A key lives on exactly one build instance, so duplicates across
    // reports should not occur; fold them defensively anyway.
    if (!directive.hot_keys.empty() &&
        directive.hot_keys.back() == candidate.key) {
      directive.hot_rows.insert(directive.hot_rows.end(),
                                candidate.rows.begin(), candidate.rows.end());
      continue;
    }
    directive.hot_keys.push_back(candidate.key);
    directive.hot_rows.insert(directive.hot_rows.end(),
                              candidate.rows.begin(), candidate.rows.end());
  }
  directive.repartition = !directive.hot_keys.empty();
  return directive;
}

uint64_t ApplySkewDirective(const SkewDirective& directive,
                            JoinHashTable* table) {
  if (!directive.repartition || directive.hot_rows.empty()) return 0;
  MJOIN_CHECK(directive.tuple_size == table->schema().tuple_size())
      << "directive rows for tuple size " << directive.tuple_size
      << " applied to a table of tuple size " << table->schema().tuple_size();
  // Keys with rows already present locally belong to this instance — it
  // owns the originals, so inserting the replicas would double its
  // matches.
  std::unordered_set<int32_t> absent;
  for (int32_t key : directive.hot_keys) {
    if (table->Probe(key, [](TupleRef) {}) == 0) absent.insert(key);
  }
  if (absent.empty()) return 0;
  const size_t tuple_size = directive.tuple_size;
  const size_t key_column = table->key_column();
  const Schema* schema = &table->schema();
  uint64_t inserted = 0;
  for (size_t off = 0; off + tuple_size <= directive.hot_rows.size();
       off += tuple_size) {
    const std::byte* row = directive.hot_rows.data() + off;
    if (absent.count(TupleRef(row, schema).GetInt32(key_column)) == 0) {
      continue;
    }
    table->Insert(row);
    ++inserted;
  }
  return inserted;
}

SkewEmitDefense::SkewEmitDefense(const SkewDirective& directive)
    : bloom_(directive.bloom) {
  if (directive.repartition) {
    hot_.insert(directive.hot_keys.begin(), directive.hot_keys.end());
  }
}

EmitDefense::Verdict SkewEmitDefense::Classify(int32_t split_value) {
  if (!bloom_.MayContain(split_value)) return Verdict::kDrop;
  if (!hot_.empty() && hot_.count(split_value) != 0) {
    return Verdict::kRepartition;
  }
  return Verdict::kPass;
}

}  // namespace mjoin
