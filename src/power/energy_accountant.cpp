#include "src/power/energy_accountant.hpp"

#include "src/common/error.hpp"

namespace dozz {

EnergyAccountant::EnergyAccountant(const PowerModel& power,
                                   const SimoLdoRegulator& regulator,
                                   const MlOverheadModel& ml_overhead)
    : power_(&power), regulator_(&regulator), ml_overhead_(&ml_overhead) {
  for (int m = 0; m < kNumVfModes; ++m) {
    const VfMode mode = mode_from_index(m);
    static_w_[static_cast<std::size_t>(m)] = power.static_power_w(mode);
    hop_j_[static_cast<std::size_t>(m)] = power.hop_energy_j(mode);
    eff_[static_cast<std::size_t>(m)] = regulator.simo_efficiency(mode);
  }
  label_j_ = ml_overhead.label_energy_j();
}

void EnergyAccountant::add_label() {
  ++labels_;
  ml_j_ += label_j_;
}

double EnergyAccountant::off_fraction() const {
  const Tick total = accounted_ticks();
  return total == 0 ? 0.0
                    : static_cast<double>(inactive_ticks_) /
                          static_cast<double>(total);
}

void EnergyAccountant::merge(const EnergyAccountant& other) {
  static_j_ += other.static_j_;
  dynamic_j_ += other.dynamic_j_;
  ml_j_ += other.ml_j_;
  wall_static_j_ += other.wall_static_j_;
  wall_dynamic_j_ += other.wall_dynamic_j_;
  hops_ += other.hops_;
  for (std::size_t m = 0; m < hops_per_mode_.size(); ++m)
    hops_per_mode_[m] += other.hops_per_mode_[m];
  labels_ += other.labels_;
  active_ticks_ += other.active_ticks_;
  wakeup_ticks_ += other.wakeup_ticks_;
  inactive_ticks_ += other.inactive_ticks_;
}

void EnergyAccountant::reset() {
  static_j_ = dynamic_j_ = ml_j_ = 0.0;
  wall_static_j_ = wall_dynamic_j_ = 0.0;
  hops_ = labels_ = 0;
  hops_per_mode_.fill(0);
  active_ticks_ = wakeup_ticks_ = inactive_ticks_ = 0;
}

}  // namespace dozz
