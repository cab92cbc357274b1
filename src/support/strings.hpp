#pragma once

// Small string helpers shared by the override-config parser, the Scheme
// reader, and the bench table printers.

#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "support/result.hpp"

namespace mv {

std::vector<std::string> split(std::string_view s, char sep);
std::string_view trim(std::string_view s);

// printf-style formatting into std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Parse a value from outside the program (a config option, a fault spec) as
// exactly one finite number of type T. The whole token must be the number:
// a numeric prefix ("150k", "2e8" for an integer), a sign on an unsigned
// type, an out-of-range value, nan and inf are all kParse errors, never a
// silently different value.
template <typename T>
Result<T> parse_number(std::string_view token) {
  T value{};
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  bool ok = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    return err(Err::kParse, strfmt("'%.*s' is not a valid number",
                                   static_cast<int>(token.size()),
                                   token.data()));
  }
  return value;
}

}  // namespace mv
