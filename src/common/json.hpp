// JSON string escaping, shared by the run reports (src/sim/report.cpp) and
// the sweep manifest (src/ckpt/checkpoint.cpp).
#pragma once

#include <string>

namespace dozz {

/// Escapes a string for inclusion in a JSON document: quote, backslash,
/// \n, \t and \r by name, every other control byte as \u00XX.
std::string json_escape(const std::string& raw);

}  // namespace dozz
