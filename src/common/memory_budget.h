#ifndef MJOIN_COMMON_MEMORY_BUDGET_H_
#define MJOIN_COMMON_MEMORY_BUDGET_H_

#include <atomic>
#include <cstddef>

#include "common/status.h"

namespace mjoin {

/// Per-query memory accounting shared by all operation processes of one
/// execution. Operators reserve bytes as their hash tables and run buffers
/// grow and release them when the memory is dropped; exceeding the limit
/// turns into Status::ResourceExhausted at the next batch boundary instead
/// of an OOM kill. Thread-safe: reservations arrive concurrently from
/// every worker thread.
///
/// A limit of 0 means "unlimited": reservations never fail but usage and
/// the high-water mark are still tracked (they feed QueryStats).
class MemoryBudget {
 public:
  explicit MemoryBudget(size_t limit_bytes = 0) : limit_(limit_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Reserves `bytes` against the budget. On overflow the reservation is
  /// rolled back and ResourceExhausted is returned.
  [[nodiscard]] Status Reserve(size_t bytes);

  /// Returns a previously reserved amount.
  void Release(size_t bytes);

  size_t limit() const { return limit_; }
  bool unlimited() const { return limit_ == 0; }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  void UpdatePeak(size_t candidate);

  const size_t limit_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
};

/// RAII bookkeeping for one operator's share of a MemoryBudget: tracks how
/// many bytes this holder has reserved so far and charges/releases only the
/// delta on each Resize. Detaches (releasing everything) on destruction.
/// Not thread-safe — each operator instance runs on one worker thread.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  ~MemoryReservation() { Reset(); }

  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  /// Binds the reservation to `budget` (may be null = no accounting). Any
  /// bytes held against a previous budget are released first.
  void Attach(MemoryBudget* budget);

  /// Grows or shrinks the reservation to `new_bytes` total. On failure the
  /// holder keeps its previous size and the budget is unchanged.
  [[nodiscard]] Status Resize(size_t new_bytes);

  /// Releases everything held.
  void Reset();

  size_t bytes() const { return bytes_; }
  bool attached() const { return budget_ != nullptr; }

 private:
  MemoryBudget* budget_ = nullptr;
  size_t bytes_ = 0;
};

}  // namespace mjoin

#endif  // MJOIN_COMMON_MEMORY_BUDGET_H_
