// mjoin_check: bounded interleaving model checker for the shm ring.
//
// The binary recompiles the production src/net/shm_ring.cc over the
// model-checking memory policy (-DMJOIN_SHM_MEMORY_MODEL) and drives it
// through the scenario catalogue in ring_harness.cc. Commands:
//
//   mjoin_check list                         scenarios and mutations
//   mjoin_check run [--scenario S] [--mutation M]
//                   [--schedules N] [--seed K]
//   mjoin_check mutants [--schedules N]      every seeded bug must be caught
//   mjoin_check selftest [--scenario S] [--schedules N]
//                                            baseline clean AND mutants caught
//   mjoin_check check-list S...              S... is exactly `list`'s scenarios
//
// selftest is the CI entry point: it proves both soundness (the
// unmutated ring passes every scenario) and teeth (each of the nine
// seeded bugs is caught by its designated scenario). With --scenario it
// runs one scenario's share: its baseline plus every mutant it catches,
// so the scenarios can run in parallel; check-list proves a caller that
// runs them one by one (the ctest registration) covers every scenario.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "check/mutations.h"
#include "check/ring_harness.h"

namespace mjoin {
namespace check {
namespace {

struct Options {
  std::string scenario;  // empty = all
  Mutation mutation = Mutation::kNone;
  uint64_t schedules = 20000;
  uint64_t seed = 0;
};

void PrintTrace(const ScenarioResult& result, size_t max_lines) {
  const size_t n = result.trace.size();
  const size_t from = n > max_lines ? n - max_lines : 0;
  if (from > 0) {
    std::printf("    ... (%zu earlier steps)\n", from);
  }
  for (size_t i = from; i < n; ++i) {
    std::printf("    %s\n", result.trace[i].c_str());
  }
}

void PrintResult(const ScenarioResult& result, bool expect_violation) {
  const bool pass = result.violated == expect_violation;
  std::printf("%-14s %-22s %-8s %6llu exec%s%s\n", result.name.c_str(),
              expect_violation ? "(mutant: must catch)" : "(baseline)",
              pass ? "PASS" : "FAIL",
              static_cast<unsigned long long>(result.executions),
              result.exhausted ? " exhaustive" : "",
              result.violated ? "" : " clean");
  if (result.violated) {
    std::printf("    caught: %s\n", result.message.c_str());
  }
  if (!pass) PrintTrace(result, 40);
}

int CmdList() {
  std::printf("scenarios:\n");
  for (const std::string& name : ScenarioNames()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("mutations (each caught by the named scenario):\n");
  for (int i = 1; i <= kNumMutations; ++i) {
    const Mutation m = static_cast<Mutation>(i);
    std::printf("  %-22s -> %s\n", MutationName(m), CatchingScenario(m));
  }
  return 0;
}

int CmdRun(const Options& opts) {
  std::vector<std::string> names =
      opts.scenario.empty() ? ScenarioNames()
                            : std::vector<std::string>{opts.scenario};
  const bool expect_violation = opts.mutation != Mutation::kNone;
  int failures = 0;
  for (const std::string& name : names) {
    const ScenarioResult result =
        RunScenario(name, opts.mutation, opts.schedules, opts.seed);
    PrintResult(result, expect_violation);
    if (result.violated != expect_violation) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

bool KnownScenario(const std::string& name) {
  for (const std::string& known : ScenarioNames()) {
    if (known == name) return true;
  }
  return false;
}

/// Runs every mutant (or, with opts.scenario set, those that scenario
/// catches) and returns how many were missed.
int RunMutants(const Options& opts) {
  int caught = 0;
  int total = 0;
  for (int i = 1; i <= kNumMutations; ++i) {
    const Mutation m = static_cast<Mutation>(i);
    if (!opts.scenario.empty() && opts.scenario != CatchingScenario(m)) {
      continue;
    }
    ++total;
    ScenarioResult result =
        RunScenario(CatchingScenario(m), m, opts.schedules, opts.seed);
    std::printf("mutant %-22s @ %-13s %s", MutationName(m),
                result.name.c_str(),
                result.violated ? "CAUGHT" : "MISSED");
    if (result.violated) {
      std::printf(" — %s\n", result.message.c_str());
      ++caught;
    } else {
      std::printf(" after %llu executions\n",
                  static_cast<unsigned long long>(result.executions));
    }
  }
  std::printf("mutation self-test: %d/%d caught\n", caught, total);
  return total - caught;
}

int CmdMutants(Options opts) {
  opts.scenario.clear();
  return RunMutants(opts) == 0 ? 0 : 1;
}

int CmdSelftest(const Options& opts) {
  std::vector<std::string> names = ScenarioNames();
  if (!opts.scenario.empty()) {
    if (!KnownScenario(opts.scenario)) {
      std::fprintf(stderr, "unknown scenario: %s\n", opts.scenario.c_str());
      return 2;
    }
    names = {opts.scenario};
  }
  int failures = 0;
  for (const std::string& name : names) {
    const ScenarioResult result =
        RunScenario(name, Mutation::kNone, opts.schedules, opts.seed);
    PrintResult(result, /*expect_violation=*/false);
    if (result.violated) ++failures;
  }
  failures += RunMutants(opts);
  if (failures == 0) {
    std::printf("mjoin_check selftest OK: %zu scenario%s clean, every "
                "mutant %s caught\n",
                names.size(), names.size() == 1 ? "" : "s",
                names.size() == 1 ? "it catches" : "they catch");
    return 0;
  }
  std::printf("mjoin_check selftest FAILED\n");
  return 1;
}

/// Exit 0 iff `names` lists exactly the catalogue's scenarios, in order,
/// and every mutant is caught by one of them: a caller running `selftest
/// --scenario S` once per listed name then runs every baseline and every
/// mutant.
int CmdCheckList(const std::vector<std::string>& names) {
  for (int i = 1; i <= kNumMutations; ++i) {
    const Mutation m = static_cast<Mutation>(i);
    if (!KnownScenario(CatchingScenario(m))) {
      std::printf("mjoin_check check-list FAILED: mutant %s names unknown "
                  "scenario %s\n",
                  MutationName(m), CatchingScenario(m));
      return 1;
    }
  }
  if (names == ScenarioNames()) {
    std::printf("mjoin_check check-list OK: %zu scenarios\n", names.size());
    return 0;
  }
  std::printf("mjoin_check check-list FAILED: expected");
  for (const std::string& name : ScenarioNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n  got");
  for (const std::string& name : names) std::printf(" %s", name.c_str());
  std::printf("\n");
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: mjoin_check <list|run|mutants|selftest> "
                 "[--scenario S] [--mutation M] [--schedules N] [--seed K]\n"
                 "       mjoin_check check-list S...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "check-list") {
    return CmdCheckList(std::vector<std::string>(argv + 2, argv + argc));
  }
  Options opts;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scenario") {
      opts.scenario = next();
    } else if (arg == "--mutation") {
      const char* name = next();
      opts.mutation = MutationFromName(name);
      if (opts.mutation == Mutation::kNone) {
        std::fprintf(stderr, "unknown mutation: %s\n", name);
        return 2;
      }
    } else if (arg == "--schedules") {
      opts.schedules = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(next(), nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (cmd == "list") return CmdList();
  if (cmd == "run") return CmdRun(opts);
  if (cmd == "mutants") return CmdMutants(opts);
  if (cmd == "selftest") return CmdSelftest(opts);
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}

}  // namespace
}  // namespace check
}  // namespace mjoin

int main(int argc, char** argv) { return mjoin::check::Main(argc, argv); }
