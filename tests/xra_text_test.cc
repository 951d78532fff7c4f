#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "engine/sim_executor.h"
#include "plan/wisconsin_query.h"
#include "strategy/strategy.h"
#include "xra/text.h"

namespace mjoin {
namespace {

ParallelPlan MakePlan(StrategyKind kind, QueryShape shape, uint32_t procs) {
  auto query = MakeWisconsinChainQuery(shape, 6, 300);
  MJOIN_CHECK(query.ok());
  auto plan = MakeStrategy(kind)->Parallelize(*query, procs,
                                              TotalCostModel());
  MJOIN_CHECK(plan.ok()) << plan.status();
  return *std::move(plan);
}

TEST(XraTextTest, SerializeMentionsEveryOp) {
  ParallelPlan plan = MakePlan(StrategyKind::kSP, QueryShape::kLeftLinear, 6);
  std::string text = SerializePlan(plan);
  EXPECT_NE(text.find("mjoin-plan v1"), std::string::npos);
  EXPECT_NE(text.find("strategy SP"), std::string::npos);
  for (const XraOp& op : plan.ops) {
    EXPECT_NE(text.find(StrCat("op ", op.id, " ")), std::string::npos);
  }
}

// Round trip: parse(serialize(plan)) re-serializes to the identical text
// (canonical form), for every strategy on every shape.
struct Case {
  StrategyKind strategy;
  QueryShape shape;
};

std::string CaseName(const testing::TestParamInfo<Case>& info) {
  std::string shape = ShapeName(info.param.shape);
  for (char& c : shape) {
    if (c == ' ') c = '_';
  }
  return StrategyName(info.param.strategy) + "_" + shape;
}

class XraTextRoundTrip : public testing::TestWithParam<Case> {};

TEST_P(XraTextRoundTrip, ParseSerializeIsIdentity) {
  ParallelPlan plan = MakePlan(GetParam().strategy, GetParam().shape, 10);
  std::string text = SerializePlan(plan);
  auto parsed = ParsePlan(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
  EXPECT_TRUE(parsed->Validate().ok());
  EXPECT_EQ(SerializePlan(*parsed), text);
  EXPECT_EQ(parsed->CountStreams(), plan.CountStreams());
  EXPECT_EQ(parsed->CountProcesses(), plan.CountProcesses());
}

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (StrategyKind strategy : kAllStrategies) {
    for (QueryShape shape : kAllShapes) {
      cases.push_back({strategy, shape});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllStrategiesAllShapes, XraTextRoundTrip,
                         testing::ValuesIn(AllCases()), CaseName);

TEST(XraTextTest, ParsedPlanExecutesIdentically) {
  constexpr uint32_t kCardinality = 300;
  Database db = MakeWisconsinDatabase(6, kCardinality, 51);
  ParallelPlan plan = MakePlan(StrategyKind::kRD,
                               QueryShape::kRightOrientedBushy, 10);
  auto parsed = ParsePlan(SerializePlan(plan));
  ASSERT_TRUE(parsed.ok());

  SimExecutor executor(&db);
  auto original = executor.Execute(plan, SimExecOptions());
  auto replayed = executor.Execute(*parsed, SimExecOptions());
  ASSERT_TRUE(original.ok() && replayed.ok());
  EXPECT_EQ(original->result, replayed->result);
  EXPECT_EQ(original->elapsed, replayed->elapsed);
}

TEST(XraTextTest, RejectsGarbage) {
  EXPECT_FALSE(ParsePlan("").ok());
  EXPECT_FALSE(ParsePlan("not a plan\n").ok());
  EXPECT_FALSE(ParsePlan("mjoin-plan v2\n").ok());
}

TEST(XraTextTest, RejectsTamperedPlans) {
  ParallelPlan plan = MakePlan(StrategyKind::kFP, QueryShape::kWideBushy, 8);
  std::string text = SerializePlan(plan);

  // Out-of-range processor.
  std::string bad = text;
  size_t pos = bad.find("processors 8");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 12, "processors 2");
  EXPECT_FALSE(ParsePlan(bad).ok());

  // Corrupted integer.
  bad = text;
  pos = bad.find("lkey 0");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 6, "lkey xx");
  EXPECT_FALSE(ParsePlan(bad).ok());
}

// Replaces the first occurrence of `from` in `text` with `to`.
std::string Tamper(const std::string& text, const std::string& from,
                   const std::string& to) {
  std::string out = text;
  size_t pos = out.find(from);
  MJOIN_CHECK(pos != std::string::npos) << from;
  out.replace(pos, from.size(), to);
  return out;
}

// Plan text is untrusted (serve submissions, run-plan files), and every
// backend starts work per declared processor and sizes its result registry
// by the declared result count. These plans are only parsed, never run.
TEST(XraTextTest, RejectsUnboundedProcessorAndResultCounts) {
  ParallelPlan plan = MakePlan(StrategyKind::kFP, QueryShape::kWideBushy, 8);
  std::string text = SerializePlan(plan);

  EXPECT_TRUE(
      ParsePlan(Tamper(text, "processors 8",
                       StrCat("processors ", kMaxPlanProcessors)))
          .ok());
  for (const char* processors :
       {"processors 1025", "processors 4294967295", "processors -1"}) {
    EXPECT_FALSE(ParsePlan(Tamper(text, "processors 8", processors)).ok())
        << processors;
  }
  // Every declared result id must have its storer.
  for (const char* results :
       {"results 2 final 0", "results 2000000000 final 0"}) {
    EXPECT_FALSE(ParsePlan(Tamper(text, "results 1 final 0", results)).ok())
        << results;
  }
}

TEST(XraTextTest, RejectsIntegersOutsideTheirFieldType) {
  ParallelPlan plan = MakePlan(StrategyKind::kFP, QueryShape::kWideBushy, 8);
  std::string text = SerializePlan(plan);
  ASSERT_TRUE(ParsePlan(text).ok());
  // Each would wrap to the original value if parsed wide and then cast.
  EXPECT_FALSE(ParsePlan(Tamper(text, "op 0 ", "op 4294967296 ")).ok());
  EXPECT_FALSE(
      ParsePlan(Tamper(text, "procs 0 ", "procs -4294967296 ")).ok());
  EXPECT_FALSE(ParsePlan(Tamper(text, "trace 49 ", "trace 305 ")).ok());
  EXPECT_FALSE(ParsePlan(Tamper(text, "lkey 0 ", "lkey -0 ")).ok());
  EXPECT_FALSE(
      ParsePlan(Tamper(text, "feed 3 1", "feed 3 4294967297")).ok());
}

// A record's fields are fixed, so anything after its last field is a typo
// or an edit to reject, never to drop: plan text arrives from serve clients
// and run-plan files. The error names the record.
TEST(XraTextTest, RejectsTrailingTokens) {
  ParallelPlan plan = MakePlan(StrategyKind::kFP, QueryShape::kWideBushy, 8);
  const std::string text = SerializePlan(plan);
  struct Edit {
    const char* from;
    const char* to;
    const char* record;
  };
  const Edit kEdits[] = {
      {"mjoin-plan v1\n", "mjoin-plan v1 x\n", "mjoin-plan"},
      {"strategy FP\n", "strategy FP extra\n", "strategy"},
      {"processors 8\n", "processors 8 junk\n", "processors"},
      {"results 1 final 0\n", "results 1 final 0 0\n", "results"},
      {"group 0\n", "group 0 nonsense 7\n", "group"},
      {" store 0\n", " store 0 junk\n", "op"},
  };
  for (const Edit& edit : kEdits) {
    StatusOr<ParallelPlan> parsed = ParsePlan(Tamper(text, edit.from, edit.to));
    EXPECT_FALSE(parsed.ok()) << edit.to;
    if (parsed.ok()) continue;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find(edit.record), std::string::npos)
        << parsed.status();
  }
  // Every op record ends in its destination: a token after `feed N P`.
  std::string fed = text;
  const size_t feed = fed.find(" feed ");
  ASSERT_NE(feed, std::string::npos);
  fed.insert(fed.find('\n', feed), " 1");
  StatusOr<ParallelPlan> parsed = ParsePlan(fed);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("op"), std::string::npos);
}

// Seeded mutation loop over the round-trip corpus (every strategy on every
// shape): byte flips, inserted and deleted bytes, and digit runs replaced
// by extreme integers. A mutant must either fail with a Status or parse to
// a plan whose printed text re-parses to the same text. Mutants are only
// parsed, never executed.
TEST(XraTextTest, SeededMutationsFailOrRoundTrip) {
  static const char* const kExtremes[] = {
      "0",           "1",          "-1",          "-0",
      "127",         "128",        "-129",        "255",
      "1024",        "1025",       "2147483647",  "2147483648",
      "-2147483648", "-2147483649", "4294967295", "4294967296",
      "9223372036854775807",  "9223372036854775808",
      "18446744073709551615", "18446744073709551616",
      "99999999999999999999999999"};
  constexpr int kMutantsPerPlan = 300;
  Random rng(0x5eed);
  size_t parsed_mutants = 0;
  for (const Case& c : AllCases()) {
    const std::string text =
        SerializePlan(MakePlan(c.strategy, c.shape, 10));
    for (int m = 0; m < kMutantsPerPlan; ++m) {
      std::string mutant = text;
      const int edits = 1 + static_cast<int>(rng.Uniform(3));
      for (int e = 0; e < edits; ++e) {
        const size_t at = rng.Uniform(mutant.size());
        switch (rng.Uniform(4)) {
          case 0:  // flip some bits of one byte
            mutant[at] = static_cast<char>(
                mutant[at] ^ static_cast<char>(1 + rng.Uniform(255)));
            break;
          case 1:  // insert a byte
            mutant.insert(mutant.begin() + static_cast<ptrdiff_t>(at),
                          static_cast<char>(rng.Uniform(256)));
            break;
          case 2:  // delete a few bytes
            mutant.erase(at, 1 + rng.Uniform(4));
            break;
          default: {  // replace the digit run at or after `at`
            size_t begin = at;
            while (begin < mutant.size() &&
                   !std::isdigit(static_cast<unsigned char>(mutant[begin]))) {
              ++begin;
            }
            size_t end = begin;
            while (end < mutant.size() &&
                   std::isdigit(static_cast<unsigned char>(mutant[end]))) {
              ++end;
            }
            mutant.replace(begin, end - begin,
                           kExtremes[rng.Uniform(std::size(kExtremes))]);
            break;
          }
        }
        if (mutant.empty()) mutant.push_back('\n');
      }
      auto parsed = ParsePlan(mutant);
      if (!parsed.ok()) {
        EXPECT_FALSE(parsed.status().message().empty()) << mutant;
        continue;
      }
      ++parsed_mutants;
      const std::string printed = SerializePlan(*parsed);
      auto reparsed = ParsePlan(printed);
      ASSERT_TRUE(reparsed.ok())
          << reparsed.status() << "\nmutant:\n" << mutant
          << "\nprinted:\n" << printed;
      ASSERT_EQ(SerializePlan(*reparsed), printed) << "mutant:\n" << mutant;
    }
  }
  // Some mutants (a changed label, a relabelled trace lane) stay valid, so
  // the round-trip half of the property is exercised too.
  EXPECT_GT(parsed_mutants, 0u);
}

TEST(XraTextTest, CommentsAndBlankLinesIgnored) {
  ParallelPlan plan = MakePlan(StrategyKind::kSE, QueryShape::kWideBushy, 8);
  std::string text = "# saved by test\n\n" + SerializePlan(plan);
  auto parsed = ParsePlan(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
}

}  // namespace
}  // namespace mjoin
