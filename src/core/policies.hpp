// The five power-management models of paper §III-B, plus the reactive
// variants used to generate ML training data (paper §IV-A).
//
//   Baseline   — always active at mode 7; no savings, best performance.
//   PG         — Power Punch-style partially non-blocking power-gating;
//                active routers run at mode 7.
//   LEAD-tau   — DVFS + ML, no gating: proactive per-epoch mode selection.
//   DozzNoC    — DVFS + ML + power-gating (the paper's contribution).
//   ML+TURBO   — DozzNoC, but every third mid-mode prediction is forced to
//                mode 7 (trades dynamic energy for throughput).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/mode_select.hpp"
#include "src/ml/ridge.hpp"
#include "src/noc/stats.hpp"

namespace dozz {

/// Identifies one of the paper's five models.
enum class PolicyKind {
  kBaseline,
  kPowerGate,
  kLeadTau,
  kDozzNoc,
  kMlTurbo,
};

/// All five kinds in the paper's presentation order.
const std::vector<PolicyKind>& all_policy_kinds();

/// Display name ("DozzNoC (ML+DVFS+PG)", ...).
std::string policy_name(PolicyKind kind);

/// True for the three models that predict labels with ridge regression.
bool policy_uses_ml(PolicyKind kind);

/// True for the three models that may power-gate routers.
bool policy_uses_gating(PolicyKind kind);

/// Baseline: every router active at the top mode forever.
class BaselinePolicy final : public PowerController {
 public:
  std::string name() const override { return policy_name(PolicyKind::kBaseline); }
  bool gating_enabled() const override { return false; }
  VfMode select_mode(RouterId, const EpochFeatures&) override {
    return kTopMode;
  }
  bool uses_ml() const override { return false; }
};

/// Power-gating only (Power Punch-like): active routers run at mode 7.
class PowerGatePolicy final : public PowerController {
 public:
  std::string name() const override {
    return policy_name(PolicyKind::kPowerGate);
  }
  bool gating_enabled() const override { return true; }
  VfMode select_mode(RouterId, const EpochFeatures&) override {
    return kTopMode;
  }
  bool uses_ml() const override { return false; }
};

/// Reactive DVFS: selects the mode from the utilization *measured* in the
/// epoch that just ended. Used to generate training data for the proactive
/// models (paper §III-D "reactive versions of each machine learning
/// model"). `turbo` applies the ML+TURBO forcing rule so its feature
/// distribution matches the model it trains.
class ReactiveDvfsPolicy final : public PowerController {
 public:
  ReactiveDvfsPolicy(std::string name, bool gating, bool turbo,
                     int num_routers);

  std::string name() const override { return name_; }
  bool gating_enabled() const override { return gating_; }
  VfMode select_mode(RouterId r, const EpochFeatures& features) override;
  bool uses_ml() const override { return false; }

 protected:
  void walk_extra_state(CkptIo io) override;

 private:
  std::string name_;
  bool gating_;
  bool turbo_;
  ModelSelectUnit model_select_;
  std::vector<std::uint32_t> mid_counts_;
};

/// Proactive ML mode selection: Label Generate predicts the future IBU from
/// the Table IV features, Model Select maps it to a mode. Covers LEAD-tau
/// (no gating), DozzNoC (gating) and ML+TURBO (gating + forcing rule).
class ProactiveMlPolicy final : public PowerController {
 public:
  ProactiveMlPolicy(PolicyKind kind, WeightVector weights, int num_routers);

  std::string name() const override { return policy_name(kind_); }
  bool gating_enabled() const override;
  VfMode select_mode(RouterId r, const EpochFeatures& features) override;
  bool uses_ml() const override { return true; }

  PolicyKind kind() const { return kind_; }
  const WeightVector& weights() const { return label_generate_.weights(); }

 protected:
  void walk_extra_state(CkptIo io) override;

 private:
  PolicyKind kind_;
  LabelGenerateUnit label_generate_;
  ModelSelectUnit model_select_;
  std::vector<std::uint32_t> mid_counts_;
};

/// Proactive ML mode selection over the *extended* feature set (paper
/// Sec. IV-B1's DozzNoC-41 configuration). Functionally identical to
/// ProactiveMlPolicy but predicts the label from the full ~41-feature
/// vector, paying the correspondingly larger label energy (61.1 pJ).
class ProactiveExtendedMlPolicy final : public PowerController {
 public:
  ProactiveExtendedMlPolicy(PolicyKind kind, WeightVector weights,
                            int num_routers);

  std::string name() const override;
  bool gating_enabled() const override;
  VfMode select_mode(RouterId r, const EpochFeatures& features) override;
  bool uses_ml() const override { return true; }
  bool wants_extended_features() const override { return true; }
  VfMode select_mode_extended(RouterId r,
                              const std::vector<double>& features) override;
  int label_feature_count() const override {
    return static_cast<int>(weights_.weights.size());
  }

  const WeightVector& weights() const { return weights_; }

 protected:
  void walk_extra_state(CkptIo io) override;

 private:
  PolicyKind kind_;
  WeightVector weights_;
  ModelSelectUnit model_select_;
  std::vector<std::uint32_t> mid_counts_;
};

/// Builds the runtime policy for `kind`. ML kinds require trained weights.
std::unique_ptr<PowerController> make_policy(
    PolicyKind kind, int num_routers,
    const std::optional<WeightVector>& weights = std::nullopt);

/// Builds the reactive data-generation twin of an ML policy kind.
std::unique_ptr<PowerController> make_reactive_twin(PolicyKind kind,
                                                    int num_routers);

/// Applies the ML+TURBO rule: every third consecutive mid-mode (M4..M6)
/// prediction for a router is escalated to the top mode. `mid_count` is the
/// router's running tally (updated in place).
VfMode apply_turbo_rule(VfMode predicted, std::uint32_t& mid_count);

}  // namespace dozz
