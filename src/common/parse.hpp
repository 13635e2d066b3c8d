// Checked parsing of numeric command-line values and environment variables.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
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

}  // namespace dozz
