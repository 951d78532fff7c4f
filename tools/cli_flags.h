// The command-line plumbing mjoin_cli and mjoin_serve share: a command
// followed by `--flag`, `--flag value` or `--flag=value` tokens, typed
// value getters that exit 2 on a malformed value, the shape and strategy
// names, and the exit-1 error report. Each tool keeps its own flag sets
// and usage text.
#ifndef MJOIN_TOOLS_CLI_FLAGS_H_
#define MJOIN_TOOLS_CLI_FLAGS_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "common/status.h"
#include "common/string_util.h"
#include "plan/shapes.h"
#include "strategy/strategy.h"

namespace mjoin {

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  /// Prints the flag's value with what was `expected` instead, exits 2.
  [[noreturn]] void BadValue(const std::string& key,
                             const char* expected) const {
    std::fprintf(stderr, "invalid value '%s' for --%s: expected %s\n",
                 Get(key, "").c_str(), key.c_str(), expected);
    std::exit(2);
  }
  /// The flag's value parsed as a T over the whole string (ParseNumber);
  /// a malformed value prints the flag and exits 2.
  template <typename T>
  T GetNum(const std::string& key, T fallback) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    std::optional<T> value = ParseNumber<T>(it->second);
    if (!value.has_value()) BadValue(key, NumberKindName<T>());
    return *value;
  }
  /// A KiB-count flag as bytes (KiBToBytes); a count whose byte total
  /// overflows exits 2 like a malformed one instead of wrapping around.
  uint32_t GetKiB(const std::string& key, uint32_t fallback_kib) const {
    std::optional<uint32_t> bytes =
        KiBToBytes(GetNum<uint64_t>(key, fallback_kib));
    if (!bytes.has_value()) BadValue(key, "a KiB count that fits 32 bits");
    return *bytes;
  }
  bool Has(const std::string& key) const { return flags.contains(key); }
};

/// Parses `argv` as a command and its flags. A switch takes no value; a
/// valued flag takes `--flag=value` or the next token. Returns nullopt on
/// a malformed line (no command, a token that is not a flag, a valued
/// flag with no value), for the caller to print its usage. A flag in
/// neither set is named on stderr and exits 2.
inline std::optional<Args> ParseArgs(int argc, char** argv,
                                     const std::set<std::string>& switches,
                                     const std::set<std::string>& valued) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) return std::nullopt;
    std::string key = token.substr(2);
    const size_t eq = key.find('=');
    const std::string name = key.substr(0, eq);
    if (!switches.contains(name) && !valued.contains(name)) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      std::exit(2);
    }
    if (eq != std::string::npos) {
      args.flags.insert_or_assign(name, key.substr(eq + 1));
    } else if (switches.contains(name)) {
      args.flags.insert_or_assign(name, std::string("1"));
    } else if (i + 1 < argc) {
      args.flags.insert_or_assign(name, std::string(argv[++i]));
    } else {
      return std::nullopt;
    }
  }
  return args;
}

inline bool ParseShape(const std::string& text, QueryShape* shape) {
  static const std::map<std::string, QueryShape> kShapes = {
      {"left-linear", QueryShape::kLeftLinear},
      {"left-bushy", QueryShape::kLeftOrientedBushy},
      {"wide-bushy", QueryShape::kWideBushy},
      {"right-bushy", QueryShape::kRightOrientedBushy},
      {"right-linear", QueryShape::kRightLinear}};
  auto it = kShapes.find(text);
  if (it == kShapes.end()) return false;
  *shape = it->second;
  return true;
}

inline bool ParseStrategy(const std::string& text, StrategyKind* kind) {
  for (StrategyKind candidate : kAllStrategies) {
    if (StrategyName(candidate) == text) {
      *kind = candidate;
      return true;
    }
  }
  return false;
}

/// Prints `context` and `status` on stderr; returns 1, the exit code of a
/// command that failed.
inline int Fail(const Status& status, const char* context = "") {
  std::fprintf(stderr, "%s%s\n", context, status.ToString().c_str());
  return 1;
}

}  // namespace mjoin

#endif  // MJOIN_TOOLS_CLI_FLAGS_H_
