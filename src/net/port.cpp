#include "net/port.h"

#include "obs/obs.h"

namespace rb {

void Port::connect(Port& a, Port& b, std::int64_t latency_ns) {
  a.peer_ = &b;
  b.peer_ = &a;
  a.link_latency_ns_ = latency_ns;
  b.link_latency_ns_ = latency_ns;
}

bool Port::send(PacketPtr p) {
  if (!p) return false;
  if (!peer_ || !link_up_ || !peer_->link_up_) return false;  // dropped
  if (!fault_) return inject(std::move(p));
  // The hook may drop, hold, mutate or multiply the packet; deliver
  // whatever it hands back.
  fault_out_.clear();
  fault_->on_tx(std::move(p), fault_out_);
  bool delivered = false;
  for (auto& q : fault_out_) {
    if (q && inject(std::move(q))) delivered = true;
  }
  fault_out_.clear();
  return delivered;
}

bool Port::inject(PacketPtr p) {
  if (!p) return false;
  if (!peer_ || !link_up_ || !peer_->link_up_) return false;  // dropped
  stats_.tx_packets++;
  stats_.tx_bytes += p->len();
  if (obs::enabled()) {
    // Track 0 means "engine", so lazily intern on first traced traversal.
    if (obs_track_ == 0)
      obs_track_ = obs::Collector::instance().intern_track("link." + name_);
    // Wire span: departs at the packet's current stamp, dur = propagation.
    obs::emit(obs::Cat::Link, obs::kNLink, obs_track_, p->rx_time_ns,
              std::uint32_t(link_latency_ns_), p->len());
  }
  p->rx_time_ns += link_latency_ns_;
  p->ingress_port = peer_->id_;
  peer_->deliver(std::move(p));
  return true;
}

void Port::deliver(PacketPtr p) {
  stats_.rx_packets++;
  stats_.rx_bytes += p->len();
  if (tap_) tap_(*p);
  if (rx_handler_) {
    rx_handler_(std::move(p));
    return;
  }
  if (rx_queue_.size() >= rx_queue_cap_) {
    stats_.rx_dropped++;
    return;  // PacketPtr destructor returns the buffer to the pool
  }
  rx_queue_.push_back(std::move(p));
}

std::size_t Port::rx_burst(std::vector<PacketPtr>& out, std::size_t max) {
  std::size_t n = 0;
  while (n < max && !rx_queue_.empty()) {
    out.push_back(std::move(rx_queue_.front()));
    rx_queue_.pop_front();
    ++n;
  }
  return n;
}

void save_packet(state::StateWriter& w, const Packet& p) {
  w.i64(p.rx_time_ns);
  w.u16(p.ingress_port);
  w.u32(std::uint32_t(p.len()));
  w.bytes(p.data());
}

PacketPtr load_packet(state::StateReader& r, PacketPool& pool) {
  std::int64_t rx_time_ns = r.i64();
  std::uint16_t ingress = r.u16();
  std::uint32_t len = r.u32();
  if (!r.ok()) return nullptr;
  if (len > kPacketCapacity || len > r.section_remaining()) {
    r.fail(state::StateError::kBadValue);
    return nullptr;
  }
  PacketPtr p = pool.alloc();
  if (!p) {
    r.fail(state::StateError::kMismatch);  // pool smaller than checkpoint
    return nullptr;
  }
  r.bytes(p->raw().subspan(0, len));
  p->set_len(len);
  p->rx_time_ns = rx_time_ns;
  p->ingress_port = ingress;
  return p;
}

void Port::save_state(state::StateWriter& w) const {
  w.u64(stats_.tx_packets);
  w.u64(stats_.tx_bytes);
  w.u64(stats_.rx_packets);
  w.u64(stats_.rx_bytes);
  w.u64(stats_.rx_dropped);
  w.b(link_up_);
  w.u32(std::uint32_t(rx_queue_.size()));
  for (const PacketPtr& p : rx_queue_) save_packet(w, *p);
}

void Port::load_state(state::StateReader& r, PacketPool& pool) {
  stats_.tx_packets = r.u64();
  stats_.tx_bytes = r.u64();
  stats_.rx_packets = r.u64();
  stats_.rx_bytes = r.u64();
  stats_.rx_dropped = r.u64();
  link_up_ = r.b();
  std::uint32_t n = r.u32();
  rx_queue_.clear();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    PacketPtr p = load_packet(r, pool);
    if (p) rx_queue_.push_back(std::move(p));
  }
}

}  // namespace rb
