// Positional-argument parsing for the examples: a malformed number is an
// error that names the argument, never a silent zero.
#ifndef MJOIN_EXAMPLES_EXAMPLE_ARGS_H_
#define MJOIN_EXAMPLES_EXAMPLE_ARGS_H_

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "common/string_util.h"

namespace mjoin {

/// argv[index] parsed as a T over the whole string (ParseNumber), or
/// `fallback` when the argument is absent. A malformed value prints the
/// argument's `name` and exits 2.
template <typename T>
T NumberArg(int argc, char** argv, int index, const char* name, T fallback) {
  if (index >= argc) return fallback;
  std::optional<T> value = ParseNumber<T>(argv[index]);
  if (!value.has_value()) {
    std::fprintf(stderr, "invalid %s '%s': expected %s\n", name, argv[index],
                 NumberKindName<T>());
    std::exit(2);
  }
  return *value;
}

}  // namespace mjoin

#endif  // MJOIN_EXAMPLES_EXAMPLE_ARGS_H_
