#ifndef MJOIN_ENGINE_DATABASE_H_
#define MJOIN_ENGINE_DATABASE_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/statusor.h"
#include "storage/relation.h"

namespace mjoin {

/// A named collection of main-memory base relations (the "database" of one
/// experiment). Relations are owned by the database, are immutable once
/// added, and are never copied per query: each scan instance reads its
/// fragment straight out of them according to the plan's placement.
class Database {
 public:
  Database() = default;
  /// Both sides of a move get fresh version stamps: each now holds
  /// different relations than before.
  Database(Database&& other) noexcept;
  Database& operator=(Database&& other) noexcept;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Registers `relation` under `name`; fails if the name exists.
  [[nodiscard]] Status Add(const std::string& name, Relation relation);

  /// A stamp unique across the process, taken fresh at construction, on
  /// every successful Add and on every move. Equal stamps mean the same
  /// relations: a forked worker fleet records the stamp of the database
  /// it inherited and is respawned once the stamp moves on.
  uint64_t version() const { return version_; }

  [[nodiscard]] StatusOr<const Relation*> Get(const std::string& name) const;
  bool Contains(const std::string& name) const {
    return relations_.contains(name);
  }
  size_t size() const { return relations_.size(); }

  /// Total bytes across all relations.
  size_t TotalBytes() const;

 private:
  std::map<std::string, Relation> relations_;
  uint64_t version_ = NextVersion();

  static uint64_t NextVersion();
};

/// Builds the paper's test database: `num_relations` Wisconsin relations
/// named rel0..relN-1 of `cardinality` tuples each, generated from
/// independent seeds derived from `seed` (so no correlation exists between
/// the unique attributes of different relations).
Database MakeWisconsinDatabase(int num_relations, uint32_t cardinality,
                               uint64_t seed);

/// Skew-extension database: rel0 is a regular Wisconsin relation (unique1
/// a permutation); rel1..relN-1 have Zipf(theta)-skewed unique1 columns.
/// On the *linear* chain query every join stays 1:1 in total result size,
/// but hash declustering concentrates the hot keys on few nodes — the load
/// imbalance the paper's "non-skewed partitioning" assumption rules out.
Database MakeSkewedDatabase(int num_relations, uint32_t cardinality,
                            uint64_t seed, double theta);

}  // namespace mjoin

#endif  // MJOIN_ENGINE_DATABASE_H_
