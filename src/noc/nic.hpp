// Network interface: per-router injection queues (one per attached core),
// ejection accounting, and the request -> response protocol that gives the
// Table IV features "requests sent/received by the cores connected to the
// router" their meaning.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/ring_buffer.hpp"
#include "src/common/time.hpp"
#include "src/faults/crc.hpp"
#include "src/noc/flit.hpp"
#include "src/noc/noc_config.hpp"
#include "src/noc/router.hpp"
#include "src/topology/topology.hpp"

namespace dozz {

/// One router's network interface, multiplexing `concentration` cores onto
/// the router's local ports.
class NetworkInterface {
 public:
  NetworkInterface(RouterId router, const Topology& topo,
                   const NocConfig& config);

  /// Convenience wiring from the shared simulation context.
  NetworkInterface(RouterId router, const SimContext& ctx);

  RouterId router() const { return router_; }

  /// Queues a matured packet for injection (trace entry or generated
  /// response). `ready.inject_tick` must already be set.
  void enqueue(const PendingPacket& packet);

  /// Schedules a response to mature at `ready_tick`.
  void schedule_response(std::uint64_t packet_id, CoreId responder,
                         CoreId requester, Tick ready_tick);

  /// Schedules a retransmission of a CRC-failed packet to mature at
  /// `ready_tick` (the retransmit backoff). Shares the response timer
  /// queue, so the kernels' event scheduling covers it with no new event
  /// source. `packet.retry` must already be bumped and `packet.inject_tick`
  /// set to `ready_tick` (latency is measured from the retransmission).
  void schedule_retransmit(const PendingPacket& packet, Tick ready_tick);

  /// Earliest tick at which a scheduled response matures (kInfTick if none).
  Tick next_response_tick() const;

  /// Responses scheduled but not yet matured at this NI. The sharded
  /// engine derives per-shard pending counts from this after a restore,
  /// since the checkpointed global counter is plan-independent.
  std::size_t pending_response_count() const {
    return pending_responses_.size();
  }

  /// Moves matured responses into the injection queues; returns how many
  /// matured (the caller counts them as offered packets). If `dsts` is
  /// non-null, appends each matured response's destination core so the
  /// caller can punch the path awake.
  int mature_responses(Tick now, std::vector<CoreId>* dsts = nullptr);

  /// True if any core has packets waiting to enter the network.
  bool has_backlog() const {
    for (const auto& q : queues_)
      if (!q.empty()) return true;
    return false;
  }

  /// Number of queued packets across all cores.
  std::size_t backlog() const;

  /// Pushes up to one flit per local port into the router's input buffers.
  /// No-op unless the router is active.
  void inject_into(Router& router, Tick now);

  /// Ejection bookkeeping (tail flits signal packet delivery).
  void on_ejected_packet(const Flit& tail);

  // --- Epoch feature counters (paper Table IV, features 2 and 3) ---
  std::uint64_t epoch_requests_sent() const { return epoch_reqs_sent_; }
  std::uint64_t epoch_requests_received() const { return epoch_reqs_recvd_; }
  void reset_epoch_window();

  // --- Checkpoint/restore (src/ckpt; DESIGN.md §8) ---
  /// Saves (Io = CkptWriter) or restores (Io = CkptReader) the injection
  /// queues, the pending responses and the epoch counters in one walk.
  template <typename Io>
  void walk_state(Io& io);

 private:
  struct TimedResponse {
    Tick ready_tick;
    PendingPacket packet;
    bool operator>(const TimedResponse& other) const {
      return ready_tick > other.ready_tick;
    }
  };

  RouterId router_;
  const Topology* topo_;
  const NocConfig* config_;
  /// One ring-backed injection queue per local slot: ready packets stream
  /// through, so after warm-up push/pop never allocates (unlike deque's
  /// chunk churn at block boundaries).
  std::vector<RingBuffer<PendingPacket>> queues_;
  /// Min-heap on ready_tick, kept via std::push_heap/std::pop_heap so the
  /// raw array layout — which fixes the pop order of equal-ready_tick
  /// entries — can be checkpointed and restored verbatim.
  std::vector<TimedResponse> pending_responses_;
  std::uint64_t epoch_reqs_sent_ = 0;
  std::uint64_t epoch_reqs_recvd_ = 0;
};

inline void NetworkInterface::inject_into(Router& router, Tick now) {
  if (router.state() != RouterState::kActive || router.stalled(now)) return;
  for (int slot = 0; slot < topo_->concentration(); ++slot) {
    auto& queue = queues_[static_cast<std::size_t>(slot)];
    if (queue.empty()) continue;
    PendingPacket& packet = queue.front();
    const int port = topo_->local_port(slot);

    // Pick (or reuse) the VC carrying this packet: flits of one packet must
    // stay in order in a single VC. A packet in progress resumes its VC
    // (encoded as the low bits of sent progress is not enough, so we simply
    // search for a VC with space when starting and remember it via
    // packet_id-stable choice: the VC chosen when sent_flits == 0).
    // New packets always start in dateline class 0 (torus deadlock rule).
    const int injectable_vcs =
        config_->vcs_per_port / std::max(1, config_->vc_classes);
    int vc = static_cast<int>(packet.packet_id %
                              static_cast<std::uint64_t>(injectable_vcs));
    if (!router.local_vc_has_space(port, vc)) continue;

    Flit flit;
    flit.packet_id = packet.packet_id;
    flit.src_core = packet.src_core;
    flit.dst_core = packet.dst_core;
    flit.dst_router = topo_->router_of_core(packet.dst_core);
    flit.is_response = packet.is_response;
    flit.packet_size_flits = packet.size_flits;
    flit.is_head = (packet.sent_flits == 0);
    flit.is_tail = (packet.sent_flits + 1 == packet.size_flits);
    flit.inject_tick = packet.inject_tick;
    if (config_->faults.enabled) {
      flit.retry = packet.retry;
      flit.crc = flit_crc(flit);
    }
    router.accept_local(port, vc, flit, now);
    ++packet.sent_flits;
    if (packet.sent_flits == packet.size_flits) queue.pop_front();
  }
}

}  // namespace dozz
