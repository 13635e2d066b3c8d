// Simple key = value experiment configuration files for dozznoc_sim:
//
//   # fig8 compressed DozzNoC run
//   topology  = mesh
//   policy    = dozznoc
//   benchmark = x264
//   compress  = 0.25
//
// '#' starts a comment; whitespace around keys and values is trimmed;
// later assignments override earlier ones.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <string>

namespace dozz {

using ConfigMap = std::map<std::string, std::string>;

/// Parses a config stream. Throws dozz::InputError on malformed lines;
/// `source` names the stream in those errors (pass the file path when
/// reading from a file).
ConfigMap parse_config(std::istream& in,
                       const std::string& source = "<stream>");

/// Loads and parses a config file by path; errors name the path and the
/// 1-based line number.
ConfigMap load_config_file(const std::string& path);

/// Typed lookup helpers with defaults. The numeric ones take a plain decimal
/// number (config_get_u64 without a sign, config_get_int an integer from
/// `min` to `max`, config_get_double a finite number): anything else,
/// trailing text included, is a ConfigError naming the key.
std::string config_get(const ConfigMap& config, const std::string& key,
                       const std::string& fallback);
double config_get_double(const ConfigMap& config, const std::string& key,
                         double fallback);
std::uint64_t config_get_u64(const ConfigMap& config, const std::string& key,
                             std::uint64_t fallback);
int config_get_int(const ConfigMap& config, const std::string& key,
                   int fallback, int min = std::numeric_limits<int>::min(),
                   int max = std::numeric_limits<int>::max());
bool config_get_bool(const ConfigMap& config, const std::string& key,
                     bool fallback);

}  // namespace dozz
