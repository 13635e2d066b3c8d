#include "src/noc/nic.hpp"

#include <algorithm>
#include <functional>

#include "src/ckpt/state_io.hpp"
#include "src/common/error.hpp"
#include "src/noc/sim_context.hpp"

namespace dozz {

NetworkInterface::NetworkInterface(RouterId router, const Topology& topo,
                                   const NocConfig& config)
    : router_(router), topo_(&topo), config_(&config),
      queues_(static_cast<std::size_t>(topo.concentration())) {}

NetworkInterface::NetworkInterface(RouterId router, const SimContext& ctx)
    : NetworkInterface(router, *ctx.topo, ctx.config) {}

void NetworkInterface::enqueue(const PendingPacket& packet) {
  const int slot = topo_->local_slot_of_core(packet.src_core);
  DOZZ_REQUIRE(topo_->router_of_core(packet.src_core) == router_);
  queues_[static_cast<std::size_t>(slot)].push_back(packet);
  if (!packet.is_response) ++epoch_reqs_sent_;
}

void NetworkInterface::schedule_response(std::uint64_t packet_id,
                                         CoreId responder, CoreId requester,
                                         Tick ready_tick) {
  PendingPacket p;
  p.packet_id = packet_id;
  p.src_core = responder;
  p.dst_core = requester;
  p.is_response = true;
  p.size_flits = static_cast<std::uint16_t>(config_->response_size_flits);
  p.inject_tick = ready_tick;
  pending_responses_.push_back({ready_tick, p});
  std::push_heap(pending_responses_.begin(), pending_responses_.end(),
                 std::greater<TimedResponse>());
}

void NetworkInterface::schedule_retransmit(const PendingPacket& packet,
                                           Tick ready_tick) {
  DOZZ_REQUIRE(packet.retry > 0);
  pending_responses_.push_back({ready_tick, packet});
  std::push_heap(pending_responses_.begin(), pending_responses_.end(),
                 std::greater<TimedResponse>());
}

Tick NetworkInterface::next_response_tick() const {
  return pending_responses_.empty() ? kInfTick
                                    : pending_responses_.front().ready_tick;
}

int NetworkInterface::mature_responses(Tick now, std::vector<CoreId>* dsts) {
  int matured = 0;
  while (!pending_responses_.empty() &&
         pending_responses_.front().ready_tick <= now) {
    if (dsts != nullptr)
      dsts->push_back(pending_responses_.front().packet.dst_core);
    enqueue(pending_responses_.front().packet);
    std::pop_heap(pending_responses_.begin(), pending_responses_.end(),
                  std::greater<TimedResponse>());
    pending_responses_.pop_back();
    ++matured;
  }
  return matured;
}

std::size_t NetworkInterface::backlog() const {
  std::size_t total = 0;
  for (const auto& q : queues_) total += q.size();
  return total;
}

void NetworkInterface::on_ejected_packet(const Flit& tail) {
  DOZZ_REQUIRE(tail.is_tail);
  if (!tail.is_response) ++epoch_reqs_recvd_;
}

void NetworkInterface::reset_epoch_window() {
  epoch_reqs_sent_ = 0;
  epoch_reqs_recvd_ = 0;
}

template <typename Io>
void NetworkInterface::walk_state(Io& io) {
  io.tag("NIC0");
  io.check(static_cast<std::uint32_t>(queues_.size()),
           "NIC queue count mismatch (topology changed?)");
  for (auto& queue : queues_)
    io.seq(queue, [&io](auto& packet) { ckpt::walk(io, packet); });
  // The heap's raw array is walked verbatim: restoring it byte-for-byte
  // reproduces the pop order of equal-ready_tick entries exactly.
  io.seq(pending_responses_, [&io](auto& timed) {
    io.u64(timed.ready_tick);
    ckpt::walk(io, timed.packet);
  });
  io.u64(epoch_reqs_sent_);
  io.u64(epoch_reqs_recvd_);
}

template void NetworkInterface::walk_state(CkptWriter& io);
template void NetworkInterface::walk_state(CkptReader& io);

}  // namespace dozz
