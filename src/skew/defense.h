#ifndef MJOIN_SKEW_DEFENSE_H_
#define MJOIN_SKEW_DEFENSE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/statusor.h"
#include "exec/emit.h"
#include "exec/hash_table.h"
#include "skew/bloom.h"
#include "skew/sketch.h"
#include "xra/plan.h"

namespace mjoin {

/// When the skew defense runs.
enum class SkewDefenseMode : uint8_t {
  /// No sketching, no reports, no directives — the pre-defense engine.
  kOff = 0,
  /// Bloom predicate transfer always on; every detected hot key is
  /// repartitioned.
  kOn = 1,
  /// Bloom predicate transfer always on; repartitioning engages only when
  /// the measured build-row imbalance across a join's instances exceeds
  /// SkewDefenseOptions::auto_imbalance_threshold.
  kAuto = 2,
};

const char* SkewDefenseModeName(SkewDefenseMode mode);

/// Parses "off" / "on" / "auto"; anything else is InvalidArgument naming
/// the valid values (callers surface this as a usage error).
StatusOr<SkewDefenseMode> ParseSkewDefenseMode(const std::string& text);

/// Tuning knobs for the defense, shipped to workers in the PlanEnvelope so
/// both ends agree on which joins defer their build milestone.
struct SkewDefenseOptions {
  SkewDefenseMode mode = SkewDefenseMode::kOff;
  /// Size of each per-instance build-key Bloom filter. Fixed across
  /// instances so the coordinator can OR them; rounded up to a power of
  /// two.
  uint32_t bloom_bits = 1u << 20;
  /// SpaceSaving candidate slots per build instance.
  uint32_t sketch_capacity = 64;
  /// A key is hot when its build count is at least this fraction of a
  /// fair per-instance share (total_build_rows / instances). 0.5 means
  /// "half a worker's fair share concentrated in one key".
  double hot_fraction = 0.5;
  /// Hot keys below this absolute count are ignored — repartitioning a
  /// tiny key costs more in replication than it saves in balance.
  uint64_t min_hot_count = 256;
  /// kAuto engages repartitioning only when max/mean per-instance build
  /// rows is at least this.
  double auto_imbalance_threshold = 1.2;
  /// Byte cap on the candidate build rows one instance ships in its
  /// report; candidates beyond the cap are reported count-only and can
  /// not be repartitioned (they stay on their owner, which is always
  /// correct).
  size_t max_hot_row_bytes = 8u << 20;

  bool enabled() const { return mode != SkewDefenseMode::kOff; }
};

/// Largest accepted SkewDefenseOptions::bloom_bits: a filter of 2^31 bits
/// is 256 MiB, which with the rest of its report does not fit one frame.
inline constexpr uint32_t kMaxBloomBits = 1u << 30;

/// InvalidArgument when an enabled defense cannot run on `options`: no
/// Bloom bits or more than kMaxBloomBits, or no sketch slots. The thread
/// and process backends check a query's options before running it, and a
/// worker checks the ones its plan envelope carries.
[[nodiscard]] Status CheckSkewDefenseOptions(const SkewDefenseOptions& options);

/// Joins the defense applies to: two-phase hash joins whose probe input
/// is a hash-split stream (the producer's EmitWriter routes each row by
/// its join-key value, so a defense hook there can drop or re-route rows
/// before they are serialized). Colocated probe edges are pre-partitioned
/// scans with no routing decision to override, and pipelining joins have
/// no build barrier to report at — both stay undefended. Sorted by op id.
/// Both the coordinator and every worker compute this from the same plan,
/// so no extra wire state is needed to agree on who defers.
std::vector<int> DefendedJoinOps(const ParallelPlan& plan);

/// One heavy-hitter candidate from a build instance's sketch.
struct SkewCandidate {
  int32_t key = 0;
  /// SpaceSaving count — an upper bound on the true build-side count.
  uint64_t count = 0;
  /// True when `rows` carries every build row with this key. Count-only
  /// candidates (over the row-byte cap) cannot be repartitioned.
  bool rows_included = false;
  /// The candidate's build rows, tuple_size-byte records back to back.
  std::vector<std::byte> rows;
};

/// One defended join instance's build-side summary, produced after the
/// instance's build input finished and before its build milestone fires.
struct SkewJoinReport {
  int op = -1;
  uint32_t instance = 0;
  uint64_t build_rows = 0;
  uint32_t tuple_size = 0;
  std::vector<SkewCandidate> candidates;
  BloomFilter bloom;
};

/// Scans a completed build hash table into a report: every key feeds the
/// Bloom filter and the SpaceSaving sketch; candidates whose count clears
/// the *local* hot threshold (a lower bound on the global one, since this
/// instance holds every row of each of its keys) additionally carry their
/// build rows, in descending-count order up to max_hot_row_bytes.
SkewJoinReport BuildSkewReport(const JoinHashTable& table, int op,
                               uint32_t instance, uint32_t num_instances,
                               const SkewDefenseOptions& options);

/// The merged plan of action for one defended join, broadcast to every
/// worker once all of the join's instances have reported.
struct SkewDirective {
  int op = -1;
  /// Whether hot-key probe rows are sprayed round-robin (and their build
  /// rows replicated). Always false when hot_keys is empty.
  bool repartition = false;
  /// Detected hot keys, sorted ascending.
  std::vector<int32_t> hot_keys;
  uint32_t tuple_size = 0;
  /// Replicated build rows for every hot key, back to back.
  std::vector<std::byte> hot_rows;
  /// OR of every instance's build-key Bloom filter: a key that fails
  /// MayContain() matches nothing anywhere.
  BloomFilter bloom;
  uint64_t total_build_rows = 0;
  /// max/mean per-instance build rows, the measured pre-defense imbalance.
  double imbalance = 1.0;
};

/// Accumulates the per-instance reports of one defended join and decides
/// hot keys once all instances have reported. A key is hot when its count
/// is at least hot_fraction * (total_build_rows / num_instances), at
/// least min_hot_count, and its rows were included in the report. Under
/// kAuto, repartitioning additionally requires the measured build-row
/// imbalance to reach auto_imbalance_threshold; the Bloom filter is
/// always merged and always transferred.
class SkewReportMerger {
 public:
  SkewReportMerger(int op, uint32_t num_instances,
                   const SkewDefenseOptions& options);

  void Add(SkewJoinReport report);
  bool complete() const { return received_ == num_instances_; }
  uint32_t received() const { return received_; }

  /// Requires complete(). Consumes the accumulated state.
  SkewDirective Finish();

 private:
  int op_;
  uint32_t num_instances_;
  SkewDefenseOptions options_;
  uint32_t received_ = 0;
  uint32_t tuple_size_ = 0;
  std::vector<uint64_t> per_instance_rows_;
  BloomFilter bloom_;
  std::vector<SkewCandidate> candidates_;
};

/// Inserts the directive's replicated hot rows into one instance's build
/// table. A key whose rows are already present locally is skipped — that
/// instance is the key's owner and holds the originals, so replication
/// would double its matches. Returns the number of rows inserted.
uint64_t ApplySkewDirective(const SkewDirective& directive,
                            JoinHashTable* table);

/// The EmitWriter hook installed on the probe edge's producers: drops
/// rows whose key cannot match any build row (Bloom predicate transfer)
/// and re-routes hot-key rows round-robin across the consumer's
/// instances. Stateless per row and shared-safe only per instance — each
/// producer instance gets its own copy (the writer mutates no defense
/// state; counters live in the writer).
class SkewEmitDefense : public EmitDefense {
 public:
  explicit SkewEmitDefense(const SkewDirective& directive);

  Verdict Classify(int32_t split_value) override;

 private:
  BloomFilter bloom_;
  std::unordered_set<int32_t> hot_;
};

}  // namespace mjoin

#endif  // MJOIN_SKEW_DEFENSE_H_
