#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_budget.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace mjoin {
namespace {

// --- Status / StatusOr ------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad knob");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad knob");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kResourceExhausted,
        StatusCode::kCancelled, StatusCode::kDeadlineExceeded}) {
    EXPECT_NE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, CancelledAndDeadlineExceeded) {
  Status cancelled = Status::Cancelled("caller gave up");
  EXPECT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.ToString(), "Cancelled: caller gave up");

  Status late = Status::DeadlineExceeded("query ran past 5ms");
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.ToString(), "DeadlineExceeded: query ran past 5ms");
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

Status UseParsed(int x, int* out) {
  MJOIN_ASSIGN_OR_RETURN(*out, ParsePositive(x));
  return Status::OK();
}

TEST(StatusOrTest, ValueAndErrorPaths) {
  StatusOr<int> good = ParsePositive(4);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 4);

  StatusOr<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseParsed(7, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_EQ(UseParsed(-7, &out).code(), StatusCode::kOutOfRange);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> boxed = std::make_unique<int>(5);
  ASSERT_TRUE(boxed.ok());
  std::unique_ptr<int> owned = std::move(boxed).value();
  EXPECT_EQ(*owned, 5);
}

// --- MemoryBudget -----------------------------------------------------------

TEST(MemoryBudgetTest, ReserveReleaseAndPeak) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.Reserve(600).ok());
  EXPECT_TRUE(budget.Reserve(300).ok());
  EXPECT_EQ(budget.used(), 900u);

  Status overflow = budget.Reserve(200);
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  // Failed reservation rolls back: usage unchanged, more room later works.
  EXPECT_EQ(budget.used(), 900u);
  budget.Release(600);
  EXPECT_TRUE(budget.Reserve(200).ok());
  EXPECT_EQ(budget.peak(), 900u);
}

TEST(MemoryBudgetTest, UnlimitedTracksPeak) {
  MemoryBudget budget;
  EXPECT_TRUE(budget.unlimited());
  EXPECT_TRUE(budget.Reserve(1 << 20).ok());
  EXPECT_TRUE(budget.Reserve(1 << 20).ok());
  budget.Release(1 << 20);
  EXPECT_EQ(budget.peak(), 2u << 20);
  EXPECT_EQ(budget.used(), 1u << 20);
}

TEST(MemoryBudgetTest, ConcurrentReservationsBalance) {
  MemoryBudget budget(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&budget] {
      for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(budget.Reserve(64).ok());
        budget.Release(64);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(budget.used(), 0u);
}

TEST(MemoryReservationTest, ResizeChargesDeltas) {
  MemoryBudget budget(100);
  MemoryReservation res;
  res.Attach(&budget);
  EXPECT_TRUE(res.Resize(80).ok());
  EXPECT_EQ(budget.used(), 80u);
  // Growing past the limit fails and leaves the old size in place.
  EXPECT_EQ(res.Resize(150).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(res.bytes(), 80u);
  EXPECT_TRUE(res.Resize(20).ok());
  EXPECT_EQ(budget.used(), 20u);
  res.Reset();
  EXPECT_EQ(budget.used(), 0u);
}

// --- CancellationToken ------------------------------------------------------

TEST(CancellationTokenTest, CopiesShareState) {
  CancellationToken token;
  CancellationToken alias = token;
  EXPECT_FALSE(alias.cancelled());
  token.Cancel();
  EXPECT_TRUE(alias.cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

// --- Random -----------------------------------------------------------------

TEST(RandomTest, DeterministicFromSeed) {
  Random a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformWithinBound) {
  Random rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RandomTest, UniformRangeInclusive) {
  Random rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, PermutationIsPermutation) {
  Random rng(42);
  std::vector<uint32_t> perm = rng.Permutation(1000);
  std::set<uint32_t> values(perm.begin(), perm.end());
  EXPECT_EQ(values.size(), 1000u);
  EXPECT_EQ(*values.begin(), 0u);
  EXPECT_EQ(*values.rbegin(), 999u);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(5);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RandomTest, Mix64AvalanchesSmallDifferences) {
  // Consecutive inputs should produce very different outputs.
  EXPECT_NE(Mix64(1) >> 32, Mix64(2) >> 32);
  EXPECT_NE(Mix64(1) & 0xffff, Mix64(2) & 0xffff);
}

// --- String utilities --------------------------------------------------------

TEST(StringUtilTest, StrCatMixesTypes) {
  EXPECT_EQ(StrCat("P=", 80, " t=", 1.5), "P=80 t=1.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(StringUtilTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ", "), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StringUtilTest, StrSplitKeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Padding) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadRight("abcdef", 4), "abcd");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadLeft("abcdef", 4), "abcdef");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.0 MiB");
}

TEST(StringUtilTest, KiBToBytesRejectsOverflowInsteadOfWrapping) {
  EXPECT_EQ(KiBToBytes(0), 0u);
  EXPECT_EQ(KiBToBytes(256), 256u * 1024);
  EXPECT_EQ(KiBToBytes(4194303), 4194303u * 1024);  // largest that fits
  EXPECT_EQ(KiBToBytes(4194304), std::nullopt);     // 2^32 bytes
  EXPECT_EQ(KiBToBytes(uint64_t{1} << 60), std::nullopt);
}

// --- TablePrinter -------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer", "22"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TablePrinterTest, SeparatorRendersAsRule) {
  TablePrinter table({"a"});
  table.AddRow({"1"});
  table.AddSeparator();
  table.AddRow({"2"});
  std::string out = table.ToString();
  // header rule + top + bottom + middle separator = 4 rules.
  size_t rules = 0;
  for (size_t pos = out.find("+--"); pos != std::string::npos;
       pos = out.find("+--", pos + 1)) {
    ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

// --- Stats ---------------------------------------------------------------------

TEST(StatsTest, Percentiles) {
  PercentileTracker tracker;
  for (int i = 1; i <= 100; ++i) tracker.Add(i);
  EXPECT_DOUBLE_EQ(tracker.Percentile(0), 1);
  EXPECT_DOUBLE_EQ(tracker.Percentile(100), 100);
  EXPECT_NEAR(tracker.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(tracker.Percentile(90), 90.1, 1e-9);
}

// Percentile() interpolates between ranks (numpy's default), so the
// result need not be a member of the sample set.
TEST(StatsTest, PercentileInterpolatesBetweenRanks) {
  PercentileTracker tracker;
  tracker.Add(10);
  tracker.Add(20);
  EXPECT_NEAR(tracker.Percentile(50), 15.0, 1e-9);
  EXPECT_NEAR(tracker.Percentile(25), 12.5, 1e-9);
  EXPECT_EQ(PercentileTracker().Percentile(50), 0);
}

// Samples are sorted lazily: queries after Add() see the new sample, and
// interleaving Add() with Percentile() never yields a stale order.
TEST(StatsTest, PercentileLazySortSeesLaterAdds) {
  PercentileTracker tracker;
  tracker.Add(5);
  tracker.Add(1);
  EXPECT_DOUBLE_EQ(tracker.Percentile(0), 1);   // forces a sort
  EXPECT_DOUBLE_EQ(tracker.Percentile(100), 5); // reuses it
  tracker.Add(0.5);  // marks dirty again
  EXPECT_DOUBLE_EQ(tracker.Percentile(0), 0.5);
  EXPECT_DOUBLE_EQ(tracker.Percentile(100), 5);
  EXPECT_EQ(tracker.count(), 3u);
}

TEST(StatsTest, PercentileTrackerMerge) {
  PercentileTracker a;
  PercentileTracker b;
  for (int i = 1; i <= 50; ++i) a.Add(i);
  EXPECT_DOUBLE_EQ(a.Percentile(100), 50);  // sort a, then dirty it again
  for (int i = 51; i <= 100; ++i) b.Add(i);
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_DOUBLE_EQ(a.Percentile(100), 100);
  EXPECT_NEAR(a.Percentile(50), 50.5, 1e-9);
}

// Past kMaxSamples the tracker reservoir-samples: the total count keeps
// climbing, memory stays capped, and order statistics remain usable (for a
// uniform stream the sampled percentiles land near the true ones).
TEST(StatsTest, PercentileTrackerCapsRetainedSamples) {
  PercentileTracker tracker;
  const size_t total = PercentileTracker::kMaxSamples * 4;
  for (size_t i = 0; i < total; ++i) {
    tracker.Add(static_cast<double>(i));
  }
  EXPECT_EQ(tracker.count(), total);
  EXPECT_EQ(tracker.values().size(), PercentileTracker::kMaxSamples);
  const double span = static_cast<double>(total - 1);
  EXPECT_NEAR(tracker.Percentile(50), span / 2, span * 0.05);
  EXPECT_NEAR(tracker.Percentile(99), span * 0.99, span * 0.05);
}

TEST(StatsTest, PercentileTrackerMergePastCapKeepsTotals) {
  PercentileTracker a;
  PercentileTracker b;
  const size_t n = PercentileTracker::kMaxSamples;
  for (size_t i = 0; i < n; ++i) a.Add(1.0);
  for (size_t i = 0; i < n; ++i) b.Add(2.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2 * n);
  EXPECT_EQ(a.values().size(), PercentileTracker::kMaxSamples);
}

}  // namespace
}  // namespace mjoin
