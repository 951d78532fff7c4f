#include "engine/database.h"

#include <atomic>

#include "common/random.h"
#include "common/string_util.h"
#include "storage/wisconsin.h"
#include "storage/zipf.h"

namespace mjoin {

uint64_t Database::NextVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Database::Database(Database&& other) noexcept
    : relations_(std::move(other.relations_)) {
  other.version_ = NextVersion();
}

Database& Database::operator=(Database&& other) noexcept {
  if (this != &other) {
    relations_ = std::move(other.relations_);
    other.version_ = NextVersion();
  }
  version_ = NextVersion();
  return *this;
}

Status Database::Add(const std::string& name, Relation relation) {
  if (relations_.contains(name)) {
    return Status::AlreadyExists(StrCat("relation '", name, "' exists"));
  }
  relations_.emplace(name, std::move(relation));
  version_ = NextVersion();
  return Status::OK();
}

StatusOr<const Relation*> Database::Get(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound(StrCat("no relation '", name, "'"));
  }
  return &it->second;
}

size_t Database::TotalBytes() const {
  size_t total = 0;
  for (const auto& [name, relation] : relations_) {
    total += relation.byte_size();
  }
  return total;
}

Database MakeSkewedDatabase(int num_relations, uint32_t cardinality,
                            uint64_t seed, double theta) {
  Database db;
  uint64_t state = seed;
  for (int i = 0; i < num_relations; ++i) {
    uint64_t relation_seed = SplitMix64(&state);
    Relation rel = i == 0
                       ? GenerateWisconsin(cardinality, relation_seed)
                       : GenerateSkewedWisconsin(cardinality, relation_seed,
                                                 theta);
    MJOIN_CHECK_OK(db.Add(StrCat("rel", i), std::move(rel)));
  }
  return db;
}

Database MakeWisconsinDatabase(int num_relations, uint32_t cardinality,
                               uint64_t seed) {
  Database db;
  uint64_t state = seed;
  for (int i = 0; i < num_relations; ++i) {
    uint64_t relation_seed = SplitMix64(&state);
    MJOIN_CHECK_OK(db.Add(StrCat("rel", i),
                          GenerateWisconsin(cardinality, relation_seed)));
  }
  return db;
}

}  // namespace mjoin
