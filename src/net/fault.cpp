#include "net/fault.h"

#include <algorithm>
#include <cstdio>

#include "obs/obs.h"

namespace rb {

namespace {

// Flip `bits` random bits anywhere past the Ethernet MAC addresses. MACs
// are spared so corruption exercises parser robustness (bad ethertype,
// bad eCPRI header, garbage sections, flipped IQ) rather than teaching
// the learning switch phantom hosts.
void corrupt_payload(Packet& p, int bits, FaultRng& rng) {
  constexpr std::size_t kSkip = 12;  // dst + src MAC
  if (p.len() <= kSkip) return;
  const std::size_t span = p.len() - kSkip;
  auto bytes = p.data();
  for (int i = 0; i < bits; ++i) {
    const std::size_t byte = kSkip + std::size_t(rng.below(span));
    bytes[byte] ^= std::uint8_t(1u << rng.below(8));
  }
}

}  // namespace

FaultyLink::FaultyLink(std::string name, Port& a, Port& b, FaultPlan a_to_b,
                       FaultPlan b_to_a)
    : name_(std::move(name)) {
  ab_.plan = std::move(a_to_b);
  ba_.plan = std::move(b_to_a);
  ab_.rng = FaultRng(ab_.plan.seed * 2 + 1);
  ba_.rng = FaultRng(ba_.plan.seed * 2 + 2);
  ab_.src = &a;
  ba_.src = &b;
  ab_.obs_track = obs::Collector::instance().intern_track(name_ + ".ab");
  ba_.obs_track = obs::Collector::instance().intern_track(name_ + ".ba");
  a.set_fault_hook(&ab_);
  b.set_fault_hook(&ba_);
}

FaultyLink::~FaultyLink() {
  if (ab_.src && ab_.src->fault_hook() == &ab_) ab_.src->set_fault_hook(nullptr);
  if (ba_.src && ba_.src->fault_hook() == &ba_) ba_.src->set_fault_hook(nullptr);
}

void FaultyLink::Dir::on_tx(PacketPtr p, std::vector<PacketPtr>& out) {
  // Annotation helper: instants on this direction's track, stamped with
  // the packet's (possibly perturbed) virtual time.
  const auto note = [&](std::uint16_t name, std::int64_t ts,
                        std::uint32_t dur = 0, std::uint64_t arg = 0) {
    if (obs::enabled()) obs::emit(obs::Cat::Fault, name, obs_track, ts, dur, arg);
  };
  if (down) {
    stats.flap_loss++;
    note(obs::kNFaultFlap, p->rx_time_ns, 0, p->len());
    return;  // packet evaporates on the downed direction
  }
  bool touched = false;
  // Gilbert-Elliott burst loss: advance the two-state chain, then roll
  // for loss in the bad state.
  if (plan.ge_enter_bad > 0) {
    if (!ge_bad) {
      if (rng.uniform() < plan.ge_enter_bad) ge_bad = true;
    } else if (rng.uniform() < plan.ge_exit_bad) {
      ge_bad = false;
    }
    if (ge_bad && rng.uniform() < plan.ge_loss_bad) {
      stats.burst_loss++;
      note(obs::kNFaultBurst, p->rx_time_ns, 0, p->len());
      return;
    }
  }
  if (plan.loss > 0 && rng.uniform() < plan.loss) {
    stats.iid_loss++;
    note(obs::kNFaultLoss, p->rx_time_ns, 0, p->len());
    return;
  }
  if (plan.corrupt > 0 && rng.uniform() < plan.corrupt) {
    corrupt_payload(*p, plan.corrupt_bits, rng);
    stats.corrupted++;
    note(obs::kNFaultCorrupt, p->rx_time_ns, 0,
         std::uint64_t(plan.corrupt_bits));
    touched = true;
  }
  if (plan.delay_ns > 0 || plan.jitter_ns > 0) {
    const std::int64_t extra =
        plan.delay_ns +
        (plan.jitter_ns > 0
             ? std::int64_t(rng.below(std::uint64_t(plan.jitter_ns)))
             : 0);
    if (extra > 0) {
      // Annotated span over the injected extra delay, distinct from the
      // link's own propagation span (which Port::inject emits).
      note(obs::kNFaultDelay, p->rx_time_ns, std::uint32_t(extra),
           std::uint64_t(extra));
      p->rx_time_ns += extra;
      stats.delayed++;
      stats.delay_ns_total += std::uint64_t(extra);
      touched = true;
    }
  }
  PacketPtr dup;
  if (plan.duplicate > 0 && rng.uniform() < plan.duplicate) {
    dup = p->pool()->clone(*p);
    if (dup) {
      stats.duplicated++;
      note(obs::kNFaultDup, p->rx_time_ns, 0, p->len());
      touched = true;
    }
  }
  if (held) {
    // A packet is waiting: the current one overtakes it. Release the held
    // packet second with a timestamp no earlier than the overtaker so the
    // receiver observes genuine reordering, not just a resort.
    held->rx_time_ns = std::max(held->rx_time_ns, p->rx_time_ns);
    note(obs::kNFaultReorder, held->rx_time_ns, 0, held->len());
    out.push_back(std::move(p));
    out.push_back(std::move(held));
    stats.reordered++;
  } else if (plan.reorder > 0 && rng.uniform() < plan.reorder) {
    held = std::move(p);  // next packet or slot boundary releases it
  } else {
    out.push_back(std::move(p));
    if (!touched) stats.passed++;
  }
  if (dup) out.push_back(std::move(dup));
}

void FaultyLink::Dir::release_held(std::vector<PacketPtr>& out) {
  if (!held) return;
  stats.held_released++;
  out.push_back(std::move(held));
}

void FaultyLink::begin_slot(std::int64_t slot) {
  for (Dir* d : {&ab_, &ba_}) {
    d->down = false;
    for (const auto& f : d->plan.flaps) {
      if (slot >= f.down_slot && slot < f.up_slot) {
        d->down = true;
        break;
      }
    }
    // A hold must not outlive the slot: release it (bypassing the hook,
    // so no fresh perturbation or PRNG draw) with its original timestamp;
    // consumers count it as late.
    if (d->held) {
      std::vector<PacketPtr> rel;
      d->release_held(rel);
      for (auto& p : rel) {
        if (d->down) {
          d->stats.flap_loss++;
        } else {
          d->src->inject(std::move(p));
        }
      }
    }
  }
}

void FaultyLink::dump_dir(const Dir& d, const std::string& prefix,
                          std::string& out) {
  const auto line = [&](const char* key, std::uint64_t v) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s.%s=%llu\n", prefix.c_str(), key,
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  line("iid_loss", d.stats.iid_loss);
  line("burst_loss", d.stats.burst_loss);
  line("flap_loss", d.stats.flap_loss);
  line("delayed", d.stats.delayed);
  line("delay_ns_total", d.stats.delay_ns_total);
  line("duplicated", d.stats.duplicated);
  line("reordered", d.stats.reordered);
  line("corrupted", d.stats.corrupted);
  line("held_released", d.stats.held_released);
  line("passed", d.stats.passed);
}

std::string FaultyLink::dump() const {
  std::string out;
  dump_dir(ab_, name_ + ".ab", out);
  dump_dir(ba_, name_ + ".ba", out);
  return out;
}

void FaultyLink::save_state(state::StateWriter& w) const {
  for (const Dir* d : {&ab_, &ba_}) {
    w.u64(d->rng.state());
    w.u64(d->stats.iid_loss);
    w.u64(d->stats.burst_loss);
    w.u64(d->stats.flap_loss);
    w.u64(d->stats.delayed);
    w.u64(d->stats.delay_ns_total);
    w.u64(d->stats.duplicated);
    w.u64(d->stats.reordered);
    w.u64(d->stats.corrupted);
    w.u64(d->stats.held_released);
    w.u64(d->stats.passed);
    w.b(d->ge_bad);
    w.b(d->down);
    w.b(d->held != nullptr);
    if (d->held) save_packet(w, *d->held);
  }
}

void FaultyLink::load_state(state::StateReader& r) {
  for (Dir* d : {&ab_, &ba_}) {
    d->rng.set_state(r.u64());
    d->stats.iid_loss = r.u64();
    d->stats.burst_loss = r.u64();
    d->stats.flap_loss = r.u64();
    d->stats.delayed = r.u64();
    d->stats.delay_ns_total = r.u64();
    d->stats.duplicated = r.u64();
    d->stats.reordered = r.u64();
    d->stats.corrupted = r.u64();
    d->stats.held_released = r.u64();
    d->stats.passed = r.u64();
    d->ge_bad = r.b();
    d->down = r.b();
    d->held.reset();
    if (r.b()) d->held = load_packet(r, PacketPool::default_pool());
  }
}

}  // namespace rb
