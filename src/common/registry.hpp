// Generic name -> factory registry backing the policy/topology/traffic
// extension points (DESIGN.md §9). Registration order is preserved so CLI
// listings and sweeps enumerate entries deterministically.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/common/error.hpp"

namespace dozz {

/// Thrown on registry misuse: duplicate registration, or lookup of an
/// unknown name (the message names the registry and lists what is
/// available, so a CLI typo reads like `--list-...` output).
class RegistryError : public InputError {
 public:
  using InputError::InputError;
};

/// Ordered name -> value map with typed errors. `Entry` is typically a
/// factory callable plus metadata; the registry itself never invokes it.
template <typename Entry>
class Registry {
 public:
  /// `registry_name` appears in every error message ("policy registry").
  explicit Registry(std::string registry_name)
      : registry_name_(std::move(registry_name)) {}

  /// Registers `entry` under `name`; duplicate names throw RegistryError.
  void add(const std::string& name, Entry entry) {
    if (contains(name)) {
      throw RegistryError(registry_name_ + ": duplicate registration of '" +
                          name + "'");
    }
    entries_.emplace_back(name, std::move(entry));
  }

  bool contains(const std::string& name) const {
    for (const auto& [key, value] : entries_) {
      if (key == name) return true;
    }
    return false;
  }

  /// Looks up `name`; unknown names throw RegistryError naming the
  /// registry and listing every registered entry.
  const Entry& at(const std::string& name) const {
    for (const auto& [key, value] : entries_) {
      if (key == name) return value;
    }
    std::string msg =
        registry_name_ + ": unknown entry '" + name + "' (available:";
    for (const auto& [key, value] : entries_) msg += " " + key;
    msg += ")";
    throw RegistryError(msg);
  }

  /// Registered names, in registration order.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [key, value] : entries_) out.push_back(key);
    return out;
  }

  std::size_t size() const { return entries_.size(); }
  const std::string& registry_name() const { return registry_name_; }

  /// Iteration in registration order (for sweeps and `--list-...`).
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  std::string registry_name_;
  std::vector<std::pair<std::string, Entry>> entries_;
};

}  // namespace dozz
