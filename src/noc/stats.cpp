#include "src/noc/stats.hpp"

#include <variant>
#include <vector>

#include "src/ckpt/serial.hpp"

namespace dozz {

VfMode mode_for_utilization(double ibu) {
  // Paper Fig. 3b thresholds on (predicted) input-buffer utilization.
  if (ibu < 0.05) return VfMode::kV08;
  if (ibu < 0.10) return VfMode::kV09;
  if (ibu < 0.20) return VfMode::kV10;
  if (ibu < 0.25) return VfMode::kV11;
  return VfMode::kV12;
}

void PowerController::degrade_gating(RouterId r) { gating_degraded_.insert(r); }

bool PowerController::gating_degraded(RouterId r) const {
  return gating_degraded_.count(r) != 0;
}

void PowerController::pin_nominal(RouterId r) { pinned_nominal_.insert(r); }

bool PowerController::pinned_nominal(RouterId r) const {
  return pinned_nominal_.count(r) != 0;
}

std::size_t PowerController::degraded_router_count() const {
  std::set<RouterId> all = gating_degraded_;
  all.insert(pinned_nominal_.begin(), pinned_nominal_.end());
  return all.size();
}

VfMode PowerController::resolve_degraded(RouterId r, VfMode selected) const {
  if (!pinned_nominal_.empty() && pinned_nominal_.count(r) != 0)
    return kNominalMode;
  return selected;
}

namespace {

// std::set iterates sorted, so equal sets write equal bytes.
template <typename Io>
void walk_router_set(Io& io, std::set<RouterId>& set) {
  std::vector<RouterId> ids(set.begin(), set.end());
  io.seq(ids, [&io](auto& r) { io.i32(r); });
  if constexpr (Io::kLoading) set = std::set<RouterId>(ids.begin(), ids.end());
}

}  // namespace

void PowerController::walk_state(CkptIo io) {
  std::visit(
      [this](auto* io) {
        io->tag("POL0");
        walk_router_set(*io, gating_degraded_);
        walk_router_set(*io, pinned_nominal_);
      },
      io);
  walk_extra_state(io);
}

}  // namespace dozz
