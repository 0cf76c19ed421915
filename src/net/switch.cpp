#include "net/switch.h"

#include <algorithm>

#include "net/packet.h"

namespace rb {

Port& EmbeddedSwitch::add_port(const std::string& name) {
  auto port = std::make_unique<Port>(name_ + "." + name);
  Port* raw = port.get();
  const std::size_t idx = ports_.size();
  raw->set_id(std::uint16_t(idx));
  raw->set_rx_handler([this, idx](PacketPtr p) { on_rx(idx, std::move(p)); });
  ports_.push_back(std::move(port));
  return *raw;
}

void EmbeddedSwitch::add_static_entry(const MacAddr& mac, const Port& port) {
  static_fdb_[mac] = port.id();
}

void EmbeddedSwitch::on_rx(std::size_t in_port, PacketPtr p) {
  auto frame = p->data();
  if (frame.size() < 14) {  // runt, drop
    ++runt_dropped_;
    return;
  }
  MacAddr dst, src;
  std::copy(frame.begin(), frame.begin() + 6, dst.bytes.begin());
  std::copy(frame.begin() + 6, frame.begin() + 12, src.bytes.begin());

  // Learn the source.
  fdb_[src] = in_port;
  p->rx_time_ns += hop_latency_ns_;

  // Static entries win, then learned, then flood.
  std::size_t out = SIZE_MAX;
  if (auto it = static_fdb_.find(dst); it != static_fdb_.end())
    out = it->second;
  else if (auto it2 = fdb_.find(dst); it2 != fdb_.end())
    out = it2->second;

  if (out != SIZE_MAX && out != in_port && !dst.is_broadcast()) {
    ++forwarded_;
    ports_[out]->send(std::move(p));
    return;
  }
  // Flood to all ports except ingress: clones for all egresses but the
  // last, which gets the original packet itself.
  ++flooded_;
  std::size_t last = SIZE_MAX;
  for (std::size_t i = ports_.size(); i-- > 0;) {
    if (i != in_port) {
      last = i;
      break;
    }
  }
  if (last == SIZE_MAX) return;  // no egress ports
  for (std::size_t i = 0; i < last; ++i) {
    if (i == in_port) continue;
    PacketPtr copy = p->pool()->clone(*p);
    if (copy) ports_[i]->send(std::move(copy));
  }
  ports_[last]->send(std::move(p));
}


void EmbeddedSwitch::save_state(state::StateWriter& w) const {
  std::vector<std::pair<MacAddr, std::size_t>> fdb(fdb_.begin(), fdb_.end());
  std::sort(fdb.begin(), fdb.end(), [](const auto& a, const auto& b) {
    return a.first.bytes < b.first.bytes;
  });
  w.u32(std::uint32_t(fdb.size()));
  for (const auto& [mac, port] : fdb) {
    w.bytes(mac.bytes);
    w.u32(std::uint32_t(port));
  }
  w.u64(flooded_);
  w.u64(forwarded_);
  w.u64(runt_dropped_);
  w.u32(std::uint32_t(ports_.size()));
  for (const auto& p : ports_) p->save_state(w);
}

void EmbeddedSwitch::load_state(state::StateReader& r) {
  fdb_.clear();
  for (std::uint32_t i = 0, n = r.count(10); i < n && r.ok(); ++i) {
    MacAddr mac;
    r.bytes(mac.bytes);
    const std::uint32_t port = r.u32();
    if (port >= ports_.size()) {
      r.fail(state::StateError::kBadValue);
      return;
    }
    fdb_[mac] = port;
  }
  flooded_ = r.u64();
  forwarded_ = r.u64();
  runt_dropped_ = r.u64();
  if (r.count(1) != ports_.size()) {
    r.fail(state::StateError::kMismatch);
    return;
  }
  for (const auto& p : ports_)
    p->load_state(r, PacketPool::default_pool());
}

}  // namespace rb
