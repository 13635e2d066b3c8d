// Checkpoint walks for the small NoC value types that appear inside
// router, NIC and network checkpoints. Each walk is one template that both
// directions run (serial.hpp). Included from .cpp files only (router.cpp,
// nic.cpp, network_ckpt.cpp); the public headers stay free of
// serialization details.
#pragma once

#include <type_traits>

#include "src/ckpt/serial.hpp"
#include "src/common/stats.hpp"
#include "src/noc/channel.hpp"
#include "src/noc/flit.hpp"
#include "src/power/energy_accountant.hpp"

namespace dozz {
namespace ckpt {

/// The record a walk visits: read-only when saving, written when loading.
template <typename Io, typename T>
using Rec = std::conditional_t<Io::kLoading, T&, const T&>;

template <typename Io>
void walk(Io& io, Rec<Io, Flit> f) {
  io.u64(f.packet_id);
  io.i32(f.src_core);
  io.i32(f.dst_core);
  io.i32(f.dst_router);
  io.boolean(f.is_head);
  io.boolean(f.is_tail);
  io.boolean(f.is_response);
  io.u8(f.vc_class);
  io.u16(f.packet_size_flits);
  io.u64(f.inject_tick);
  io.u64(f.enter_tick);
  io.u64(f.eligible_tick);
  io.u16(f.hops);
  io.u16(f.crc);
  io.u8(f.retry);
}

template <typename Io>
void walk(Io& io, Rec<Io, PendingPacket> p) {
  io.u64(p.packet_id);
  io.i32(p.src_core);
  io.i32(p.dst_core);
  io.boolean(p.is_response);
  io.u16(p.size_flits);
  io.u64(p.inject_tick);
  io.u16(p.sent_flits);
  io.u8(p.retry);
}

template <typename Io>
void walk(Io& io, Rec<Io, TimedFlit> t) {
  io.u64(t.arrival);
  io.i32(t.vc);
  walk(io, t.flit);
}

template <typename Io>
void walk(Io& io, Rec<Io, TimedCredit> t) {
  io.u64(t.arrival);
  io.i32(t.port);
  io.i32(t.vc);
}

template <typename Io>
void walk(Io& io, Rec<Io, RunningStat> s) {
  RunningStat::Raw raw = s.raw();
  io.u64(raw.n);
  io.f64(raw.mean);
  io.f64(raw.m2);
  io.f64(raw.min);
  io.f64(raw.max);
  if constexpr (Io::kLoading) s.restore(raw);
}

template <typename Io>
void walk(Io& io, Rec<Io, EnergyAccountant> a) {
  EnergyAccountant::Snapshot s = a.snapshot();
  io.f64(s.static_j);
  io.f64(s.dynamic_j);
  io.f64(s.ml_j);
  io.f64(s.wall_static_j);
  io.f64(s.wall_dynamic_j);
  io.u64(s.hops);
  for (auto& h : s.hops_per_mode) io.u64(h);
  io.u64(s.labels);
  io.u64(s.active_ticks);
  io.u64(s.wakeup_ticks);
  io.u64(s.inactive_ticks);
  if constexpr (Io::kLoading) a.restore(s);
}

}  // namespace ckpt
}  // namespace dozz
