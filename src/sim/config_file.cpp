#include "src/sim/config_file.hpp"

#include <fstream>
#include <istream>

#include "src/common/error.hpp"
#include "src/common/parse.hpp"

namespace dozz {

namespace {
std::string trim(const std::string& raw) {
  const auto b = raw.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  const auto e = raw.find_last_not_of(" \t\r");
  return raw.substr(b, e - b + 1);
}
}  // namespace

ConfigMap parse_config(std::istream& in, const std::string& source) {
  ConfigMap config;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos)
      throw InputError("config file " + source + " line " +
                       std::to_string(line_no) + ": expected key = value");
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    if (key.empty())
      throw InputError("config file " + source + " line " +
                       std::to_string(line_no) + ": empty key");
    config[key] = value;
  }
  return config;
}

ConfigMap load_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw InputError("cannot open config file " + path);
  return parse_config(in, path);
}

std::string config_get(const ConfigMap& config, const std::string& key,
                       const std::string& fallback) {
  const auto it = config.find(key);
  return it == config.end() ? fallback : it->second;
}

double config_get_double(const ConfigMap& config, const std::string& key,
                         double fallback) {
  const auto it = config.find(key);
  if (it == config.end()) return fallback;
  return parse_double(it->second, "config key '" + key + "'");
}

std::uint64_t config_get_u64(const ConfigMap& config, const std::string& key,
                             std::uint64_t fallback) {
  const auto it = config.find(key);
  if (it == config.end()) return fallback;
  return parse_unsigned(it->second, "config key '" + key + "'");
}

int config_get_int(const ConfigMap& config, const std::string& key,
                   int fallback, int min, int max) {
  const auto it = config.find(key);
  if (it == config.end()) return fallback;
  return parse_signed(it->second, "config key '" + key + "'", min, max);
}

bool config_get_bool(const ConfigMap& config, const std::string& key,
                     bool fallback) {
  const auto it = config.find(key);
  if (it == config.end()) return fallback;
  if (it->second == "true" || it->second == "1" || it->second == "yes")
    return true;
  if (it->second == "false" || it->second == "0" || it->second == "no")
    return false;
  throw InputError("config key '" + key + "' is not a boolean: " +
                   it->second);
}

}  // namespace dozz
