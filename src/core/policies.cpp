#include "src/core/policies.hpp"

#include <algorithm>
#include <variant>

#include "src/ckpt/serial.hpp"
#include "src/common/error.hpp"

namespace dozz {

namespace {

// The turbo rule's per-router mid-mode tallies are the only mutable state
// an ML policy carries across epochs; the weights are construction wiring.
void walk_mid_counts(CkptIo io, std::vector<std::uint32_t>& counts) {
  std::visit(
      [&counts](auto* io) {
        io->check(static_cast<std::uint32_t>(counts.size()),
                  "policy mid-count size mismatch");
        for (std::uint32_t& c : counts) io->u32(c);
      },
      io);
}

}  // namespace

void ReactiveDvfsPolicy::walk_extra_state(CkptIo io) {
  walk_mid_counts(io, mid_counts_);
}

void ProactiveMlPolicy::walk_extra_state(CkptIo io) {
  walk_mid_counts(io, mid_counts_);
}

void ProactiveExtendedMlPolicy::walk_extra_state(CkptIo io) {
  walk_mid_counts(io, mid_counts_);
}

const std::vector<PolicyKind>& all_policy_kinds() {
  static const std::vector<PolicyKind> kKinds = {
      PolicyKind::kBaseline, PolicyKind::kPowerGate, PolicyKind::kLeadTau,
      PolicyKind::kDozzNoc, PolicyKind::kMlTurbo};
  return kKinds;
}

std::string policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kBaseline: return "Baseline";
    case PolicyKind::kPowerGate: return "PG";
    case PolicyKind::kLeadTau: return "LEAD-tau";
    case PolicyKind::kDozzNoc: return "DozzNoC";
    case PolicyKind::kMlTurbo: return "ML+TURBO";
  }
  DOZZ_ASSERT(false);
}

bool policy_uses_ml(PolicyKind kind) {
  return kind == PolicyKind::kLeadTau || kind == PolicyKind::kDozzNoc ||
         kind == PolicyKind::kMlTurbo;
}

bool policy_uses_gating(PolicyKind kind) {
  return kind == PolicyKind::kPowerGate || kind == PolicyKind::kDozzNoc ||
         kind == PolicyKind::kMlTurbo;
}

VfMode apply_turbo_rule(VfMode predicted, std::uint32_t& mid_count) {
  if (predicted == kBottomMode || predicted == kTopMode) return predicted;
  ++mid_count;
  return mid_count % 3 == 0 ? kTopMode : predicted;
}

ReactiveDvfsPolicy::ReactiveDvfsPolicy(std::string name, bool gating,
                                       bool turbo, int num_routers)
    : name_(std::move(name)), gating_(gating), turbo_(turbo),
      mid_counts_(static_cast<std::size_t>(num_routers), 0) {
  DOZZ_REQUIRE(num_routers > 0);
}

VfMode ReactiveDvfsPolicy::select_mode(RouterId r,
                                       const EpochFeatures& features) {
  DOZZ_REQUIRE(r >= 0 &&
               r < static_cast<RouterId>(mid_counts_.size()));
  VfMode mode = model_select_.select(features.current_ibu);
  if (turbo_) mode = apply_turbo_rule(mode, mid_counts_[static_cast<std::size_t>(r)]);
  // Graceful degradation: a domain pinned to nominal after repeated
  // regulator faults overrides the DVFS decision (no-op otherwise).
  return resolve_degraded(r, mode);
}

ProactiveMlPolicy::ProactiveMlPolicy(PolicyKind kind, WeightVector weights,
                                     int num_routers)
    : kind_(kind), label_generate_(std::move(weights)),
      mid_counts_(static_cast<std::size_t>(num_routers), 0) {
  DOZZ_REQUIRE(policy_uses_ml(kind));
  DOZZ_REQUIRE(num_routers > 0);
}

bool ProactiveMlPolicy::gating_enabled() const {
  return policy_uses_gating(kind_);
}

VfMode ProactiveMlPolicy::select_mode(RouterId r,
                                      const EpochFeatures& features) {
  DOZZ_REQUIRE(r >= 0 &&
               r < static_cast<RouterId>(mid_counts_.size()));
  const double label = label_generate_.generate(features);
  VfMode mode = model_select_.select(label);
  if (kind_ == PolicyKind::kMlTurbo)
    mode = apply_turbo_rule(mode, mid_counts_[static_cast<std::size_t>(r)]);
  // Graceful degradation: a fault-pinned domain ignores the ML prediction.
  return resolve_degraded(r, mode);
}

ProactiveExtendedMlPolicy::ProactiveExtendedMlPolicy(PolicyKind kind,
                                                     WeightVector weights,
                                                     int num_routers)
    : kind_(kind), weights_(std::move(weights)),
      mid_counts_(static_cast<std::size_t>(num_routers), 0) {
  DOZZ_REQUIRE(policy_uses_ml(kind));
  DOZZ_REQUIRE(num_routers > 0);
  DOZZ_REQUIRE(weights_.weights.size() > EpochFeatures::names().size());
}

std::string ProactiveExtendedMlPolicy::name() const {
  return policy_name(kind_) + "-" + std::to_string(weights_.weights.size());
}

bool ProactiveExtendedMlPolicy::gating_enabled() const {
  return policy_uses_gating(kind_);
}

VfMode ProactiveExtendedMlPolicy::select_mode(RouterId,
                                              const EpochFeatures&) {
  // The network always routes extended policies through
  // select_mode_extended(); reaching here is a harness bug.
  throw PreconditionError(
      "extended policy requires extended features at selection time");
}

VfMode ProactiveExtendedMlPolicy::select_mode_extended(
    RouterId r, const std::vector<double>& features) {
  DOZZ_REQUIRE(r >= 0 && r < static_cast<RouterId>(mid_counts_.size()));
  const double label =
      std::clamp(weights_.predict(features), 0.0, 1.0);
  VfMode mode = model_select_.select(label);
  if (kind_ == PolicyKind::kMlTurbo)
    mode = apply_turbo_rule(mode, mid_counts_[static_cast<std::size_t>(r)]);
  // Graceful degradation: a fault-pinned domain ignores the ML prediction.
  return resolve_degraded(r, mode);
}

std::unique_ptr<PowerController> make_policy(
    PolicyKind kind, int num_routers,
    const std::optional<WeightVector>& weights) {
  switch (kind) {
    case PolicyKind::kBaseline:
      return std::make_unique<BaselinePolicy>();
    case PolicyKind::kPowerGate:
      return std::make_unique<PowerGatePolicy>();
    case PolicyKind::kLeadTau:
    case PolicyKind::kDozzNoc:
    case PolicyKind::kMlTurbo:
      DOZZ_REQUIRE(weights.has_value());
      return std::make_unique<ProactiveMlPolicy>(kind, *weights, num_routers);
  }
  DOZZ_ASSERT(false);
}

std::unique_ptr<PowerController> make_reactive_twin(PolicyKind kind,
                                                    int num_routers) {
  DOZZ_REQUIRE(policy_uses_ml(kind));
  return std::make_unique<ReactiveDvfsPolicy>(
      policy_name(kind) + "-reactive", policy_uses_gating(kind),
      kind == PolicyKind::kMlTurbo, num_routers);
}

}  // namespace dozz
