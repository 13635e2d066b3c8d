// Additional comparison policies beyond the paper's five models, used by
// the ablation benches:
//
//  * OracleDvfsPolicy  — DVFS steered by the *actual* future utilization
//    (recorded from a previous run of the same configuration). An upper
//    bound on what any predictor can achieve; how close ridge regression
//    gets to it quantifies the value of the paper's ML stage.
//  * GlobalDvfsPolicy  — a single voltage/frequency island: every router
//    follows the network-wide utilization maximum of the previous window
//    (coarse-grain VFI DVFS from the related work, e.g. Herbert &
//    Marculescu). Contrasts with DozzNoC's per-router domains.
//
//  The reactive per-router policies (the paper's training-data generators)
//  are exposed through make_reactive_twin() in policies.hpp and compared
//  against the proactive models in bench_policy_ablation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/mode_select.hpp"
#include "src/core/policies.hpp"
#include "src/noc/stats.hpp"

namespace dozz {

/// Per-epoch, per-router utilization trajectory recorded from a run.
using IbuTrajectory = std::vector<std::vector<double>>;  // [epoch][router]

/// DVFS with perfect knowledge of the next window's utilization, replayed
/// from `trajectory`. When the run outlives the trajectory, the last known
/// value is held. Optionally combines with power-gating like DozzNoC.
class OracleDvfsPolicy final : public PowerController {
 public:
  OracleDvfsPolicy(IbuTrajectory trajectory, bool gating, int num_routers);

  std::string name() const override {
    return gating_ ? "Oracle (DVFS+PG)" : "Oracle (DVFS)";
  }
  bool gating_enabled() const override { return gating_; }
  VfMode select_mode(RouterId r, const EpochFeatures& features) override;
  bool uses_ml() const override { return false; }  // no label computed
  void on_epoch_begin(std::uint64_t ended_epoch_index) override {
    current_epoch_ = ended_epoch_index;
  }

 protected:
  void walk_extra_state(CkptIo io) override;

 private:
  IbuTrajectory trajectory_;
  bool gating_;
  int num_routers_;
  std::uint64_t current_epoch_ = 0;
  ModelSelectUnit model_select_;
};

/// One voltage/frequency island: all routers move together, driven by the
/// previous window's network-wide peak utilization.
class GlobalDvfsPolicy final : public PowerController {
 public:
  explicit GlobalDvfsPolicy(bool gating);

  std::string name() const override {
    return gating_ ? "GlobalVFI (DVFS+PG)" : "GlobalVFI (DVFS)";
  }
  bool gating_enabled() const override { return gating_; }
  VfMode select_mode(RouterId r, const EpochFeatures& features) override;
  bool uses_ml() const override { return false; }
  void on_epoch_begin(std::uint64_t ended_epoch_index) override;

 protected:
  void walk_extra_state(CkptIo io) override;

 private:
  bool gating_;
  double window_max_ = 0.0;      ///< Accumulating over the current window.
  double previous_max_ = 0.0;    ///< Decision basis (one-window lag).
  ModelSelectUnit model_select_;
};

/// Extracts the per-epoch utilization trajectory from a collected epoch
/// log (the oracle's input).
IbuTrajectory trajectory_from_log(
    const std::vector<std::vector<EpochFeatures>>& epoch_log);

/// Router Parking-style gating (related work, HPCA'13): a router may only
/// be parked once its *attached cores* have issued no requests for
/// `silent_epochs_required` consecutive windows — a much coarser trigger
/// than DozzNoC's T-Idle router-level rule, trading off time for fewer
/// wake stalls. Active routers stay at the top mode (no DVFS).
class RouterParkingPolicy final : public PowerController {
 public:
  RouterParkingPolicy(int num_routers, int silent_epochs_required = 2);

  std::string name() const override { return "RouterParking"; }
  bool gating_enabled() const override { return true; }
  bool may_gate(RouterId r) const override;
  VfMode select_mode(RouterId r, const EpochFeatures& features) override;
  bool uses_ml() const override { return false; }

 protected:
  void walk_extra_state(CkptIo io) override;

 private:
  int silent_epochs_required_;
  std::vector<std::uint32_t> silent_epochs_;
};

}  // namespace dozz
