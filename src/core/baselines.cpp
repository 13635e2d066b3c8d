#include "src/core/baselines.hpp"

#include <algorithm>
#include <variant>

#include "src/ckpt/serial.hpp"
#include "src/common/error.hpp"

namespace dozz {

void OracleDvfsPolicy::walk_extra_state(CkptIo io) {
  std::visit([this](auto* io) { io->u64(current_epoch_); }, io);
}

void GlobalDvfsPolicy::walk_extra_state(CkptIo io) {
  std::visit(
      [this](auto* io) {
        io->f64(window_max_);
        io->f64(previous_max_);
      },
      io);
}

void RouterParkingPolicy::walk_extra_state(CkptIo io) {
  std::visit(
      [this](auto* io) {
        io->check(static_cast<std::uint32_t>(silent_epochs_.size()),
                  "policy silent-epochs size mismatch");
        for (std::uint32_t& c : silent_epochs_) io->u32(c);
      },
      io);
}

OracleDvfsPolicy::OracleDvfsPolicy(IbuTrajectory trajectory, bool gating,
                                   int num_routers)
    : trajectory_(std::move(trajectory)), gating_(gating),
      num_routers_(num_routers) {
  DOZZ_REQUIRE(num_routers > 0);
  DOZZ_REQUIRE(!trajectory_.empty());
  for (const auto& row : trajectory_)
    DOZZ_REQUIRE(static_cast<int>(row.size()) == num_routers);
}

VfMode OracleDvfsPolicy::select_mode(RouterId r,
                                     const EpochFeatures& /*features*/) {
  DOZZ_REQUIRE(r >= 0 && r < num_routers_);
  // Selecting the mode for window current_epoch_ + 1: the oracle reads
  // that window's recorded utilization directly.
  const std::uint64_t future = current_epoch_ + 1;
  const std::size_t idx =
      std::min<std::size_t>(future, trajectory_.size() - 1);
  return model_select_.select(trajectory_[idx][static_cast<std::size_t>(r)]);
}

GlobalDvfsPolicy::GlobalDvfsPolicy(bool gating) : gating_(gating) {}

void GlobalDvfsPolicy::on_epoch_begin(std::uint64_t /*ended_epoch_index*/) {
  previous_max_ = window_max_;
  window_max_ = 0.0;
}

VfMode GlobalDvfsPolicy::select_mode(RouterId /*r*/,
                                     const EpochFeatures& features) {
  // Record this window's utilization for the next decision; decide from
  // the previous window's network-wide maximum (global coordination needs
  // a full window to collect everyone's measurements).
  window_max_ = std::max(window_max_, features.current_ibu);
  return model_select_.select(previous_max_);
}

RouterParkingPolicy::RouterParkingPolicy(int num_routers,
                                         int silent_epochs_required)
    : silent_epochs_required_(silent_epochs_required),
      silent_epochs_(static_cast<std::size_t>(num_routers), 0) {
  DOZZ_REQUIRE(num_routers > 0 && silent_epochs_required >= 0);
}

bool RouterParkingPolicy::may_gate(RouterId r) const {
  DOZZ_REQUIRE(r >= 0 && r < static_cast<RouterId>(silent_epochs_.size()));
  return silent_epochs_[static_cast<std::size_t>(r)] >=
         static_cast<std::uint32_t>(silent_epochs_required_);
}

VfMode RouterParkingPolicy::select_mode(RouterId r,
                                        const EpochFeatures& features) {
  DOZZ_REQUIRE(r >= 0 && r < static_cast<RouterId>(silent_epochs_.size()));
  auto& count = silent_epochs_[static_cast<std::size_t>(r)];
  if (features.reqs_sent == 0.0 && features.reqs_received == 0.0)
    ++count;
  else
    count = 0;
  return kTopMode;
}

IbuTrajectory trajectory_from_log(
    const std::vector<std::vector<EpochFeatures>>& epoch_log) {
  IbuTrajectory trajectory;
  trajectory.reserve(epoch_log.size());
  for (const auto& epoch : epoch_log) {
    std::vector<double> row;
    row.reserve(epoch.size());
    for (const auto& f : epoch) row.push_back(f.current_ibu);
    trajectory.push_back(std::move(row));
  }
  return trajectory;
}

}  // namespace dozz
