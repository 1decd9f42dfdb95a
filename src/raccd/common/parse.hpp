// Strict whole-field parsing of numeric command-line and environment values.
// std::strtoul and std::atof read "-1" as 2^64-1, "12abc" as 12 and "abc" as
// 0, so every numeric flag goes through parse_number instead: a malformed
// value becomes an error message, not a wrong run or an assertion abort.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>

#include "raccd/common/format.hpp"

namespace raccd {

/// Parse all of `text` as a decimal number in [lo, hi] into `out`: a leading
/// digit (no sign, no blank) and nothing after the number. Returns "" or an
/// error naming the accepted range; `out` is unchanged on error.
template <typename T>
[[nodiscard]] std::string parse_number(std::string_view text, T lo, T hi, T& out) {
  static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
  T v{};
  const char* const last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  if (!text.empty() && text.front() >= '0' && text.front() <= '9' && ec == std::errc{} &&
      end == last && v >= lo && v <= hi) {
    out = v;
    return {};
  }
  const std::string range =
      std::is_floating_point_v<T>
          ? strprintf("%g, %g", static_cast<double>(lo), static_cast<double>(hi))
          : strprintf("%llu, %llu", static_cast<unsigned long long>(lo),
                      static_cast<unsigned long long>(hi));
  return strprintf("'%.*s' is not a number in [%s]", static_cast<int>(text.size()), text.data(),
                   range.c_str());
}

}  // namespace raccd
