// Checked parsing of numeric command-line values, config-file values and
// environment variables.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "src/common/error.hpp"

namespace dozz {

/// Parses `text` as a decimal unsigned integer no greater than `max`. A
/// sign, blank, trailing character or out-of-range value throws a
/// ConfigError naming `name` (the flag or variable the value was given
/// under) and echoing `text` as typed, so "--cycles -5" is reported as
/// "got -5" rather than as its wrapped-around value.
inline std::uint64_t parse_unsigned(
    const std::string& text, const std::string& name,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end || value > max) {
    const std::string rule =
        max == std::numeric_limits<std::uint64_t>::max()
            ? "a non-negative integer"
            : "an integer from 0 to " + std::to_string(max);
    throw ConfigError(name + " must be " + rule + " (got " + text + ")");
  }
  return value;
}

namespace parse_detail {

/// The bounds a value was checked against, as the tail of a "must be"
/// rule: " from 0 to 256", " of at least 0", " of at most 9" or "".
template <typename T>
std::string range_text(T min, T max) {
  std::ostringstream os;
  const bool low = min != std::numeric_limits<T>::lowest();
  const bool high = max != std::numeric_limits<T>::max();
  if (low && high)
    os << " from " << min << " to " << max;
  else if (low)
    os << " of at least " << min;
  else if (high)
    os << " of at most " << max;
  return os.str();
}

}  // namespace parse_detail

/// Parses `text` as a decimal integer from `min` to `max`, with the
/// parse_unsigned contract: a blank, "+" sign, trailing character or
/// out-of-range value throws a ConfigError naming `name` and echoing
/// `text` as typed, so "--vcs 0abc" is reported as "got 0abc".
inline int parse_signed(const std::string& text, const std::string& name,
                        int min = std::numeric_limits<int>::min(),
                        int max = std::numeric_limits<int>::max()) {
  int value = 0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end || value < min ||
      value > max)
    throw ConfigError(name + " must be an integer" +
                      parse_detail::range_text(min, max) + " (got " + text +
                      ")");
  return value;
}

/// Parses `text` as a finite decimal number from `min` to `max`, with the
/// parse_unsigned contract: a blank, "+" sign, trailing character, value
/// out of range or not finite ("inf", "nan") throws a ConfigError naming
/// `name` and echoing `text` as typed, so "--compress 0x" is reported as
/// "got 0x".
inline double parse_double(
    const std::string& text, const std::string& name,
    double min = std::numeric_limits<double>::lowest(),
    double max = std::numeric_limits<double>::max()) {
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end ||
      !std::isfinite(value) || value < min || value > max)
    throw ConfigError(name + " must be a finite number" +
                      parse_detail::range_text(min, max) + " (got " + text +
                      ")");
  return value;
}

}  // namespace dozz
