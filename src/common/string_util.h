#ifndef MJOIN_COMMON_STRING_UTIL_H_
#define MJOIN_COMMON_STRING_UTIL_H_

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace mjoin {

/// Concatenates the string representations of all arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  // Comma fold (not `os << ... << args`): the empty pack then expands to
  // nothing instead of a value-less `os;` statement, which -Werror flags.
  ((os << args), ...);
  return os.str();
}

/// Joins `parts` with `sep`.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Splits `text` on `sep` (single character); keeps empty fields.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Pads or truncates `text` to exactly `width` characters, left-aligned.
std::string PadRight(std::string_view text, size_t width);

/// Pads (never truncates) `text` to at least `width` characters,
/// right-aligned.
std::string PadLeft(std::string_view text, size_t width);

/// Formats `value` with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

/// Human-readable byte count ("1.5 MiB").
std::string FormatBytes(uint64_t bytes);

/// Parses the whole of `text` as a T with std::from_chars: no whitespace,
/// no trailing characters, no leading '+', and an unsigned T rejects a
/// sign. nullopt for empty, malformed, or out-of-range text.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

/// What ParseNumber<T> accepts, in words for an error message.
template <typename T>
constexpr const char* NumberKindName() {
  return std::is_floating_point_v<T> ? "a number"
         : std::is_signed_v<T>       ? "an integer"
                                     : "a non-negative integer";
}

/// `kib` KiB in bytes; nullopt when the byte count overflows a uint32_t.
inline std::optional<uint32_t> KiBToBytes(uint64_t kib) {
  if (kib > std::numeric_limits<uint32_t>::max() / 1024) return std::nullopt;
  return static_cast<uint32_t>(kib * 1024);
}

}  // namespace mjoin

#endif  // MJOIN_COMMON_STRING_UTIL_H_
