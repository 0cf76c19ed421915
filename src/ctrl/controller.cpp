#include "ctrl/controller.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "common/ctrl_stats.h"
#include "core/middlebox.h"
#include "obs/obs.h"

namespace rb::ctrl {

namespace {
constexpr std::size_t kLogCap = 256;  // bounded decision log
}

const char* verb_name(CtrlVerb v) {
  switch (v) {
    case CtrlVerb::SetUlIqWidth:
      return "set_ul_iq_width";
    case CtrlVerb::SetDasMember:
      return "set_das_member";
    case CtrlVerb::SetDmimoGate:
      return "set_dmimo_gate";
  }
  return "?";
}

std::string CtrlAction::str() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "slot=%lld link=%d %s value=%d enable=%d",
                static_cast<long long>(slot), link, verb_name(verb), value,
                int(enable));
  return buf;
}

AdaptationController::AdaptationController(CtrlConfig cfg)
    : cfg_(std::move(cfg)) {
  obs_name_ = obs::Collector::instance().intern_name("ctrl.decide");
  obs_track_ = obs::Collector::instance().intern_track(cfg_.name);
}

AdaptationController::~AdaptationController() {
  ctrlstats::links_watched().fetch_sub(links_.size(),
                                       std::memory_order_relaxed);
  ctrlstats::links_degraded().fetch_sub(published_degraded_,
                                        std::memory_order_relaxed);
  ctrlstats::links_ejected().fetch_sub(published_ejected_,
                                       std::memory_order_relaxed);
}

int AdaptationController::add_link(LinkSpec spec) {
  LinkState ls;
  ls.spec = std::move(spec);
  if (ls.spec.ul_stats) ls.seen = *ls.spec.ul_stats;
  links_.push_back(std::move(ls));
  ctrlstats::links_watched().fetch_add(1, std::memory_order_relaxed);
  return int(links_.size()) - 1;
}

void AdaptationController::sample(LinkState& ls) {
  if (!ls.spec.ul_stats) return;
  const FaultStats& now = *ls.spec.ul_stats;
  const FaultStats& old = ls.seen;
  // Per-slot deltas of the link's uplink-direction fault counters. The
  // fault layer mutates them in deterministic virtual-time order, and this
  // hook runs at the slot barrier, so the deltas are replay-stable.
  const std::uint64_t dropped = now.dropped() - old.dropped();
  const std::uint64_t attempts = dropped + (now.passed - old.passed) +
                                 (now.delayed - old.delayed) +
                                 (now.reordered - old.reordered) +
                                 (now.corrupted - old.corrupted);
  const std::uint64_t delayed = now.delayed - old.delayed;
  const std::uint64_t delay_ns = now.delay_ns_total - old.delay_ns_total;
  ls.seen = now;
  if (attempts == 0) return;  // nothing flowed: keep the EWMAs frozen
  const double loss_sample = double(dropped) / double(attempts);
  // Mean injected one-way delay over the packets that actually flowed: a
  // link that delays everything by 50us reads ~50us here regardless of
  // offered load.
  const double delay_sample =
      double(delay_ns) / double(delayed > 0 ? delayed : attempts);
  const double a = cfg_.alpha;
  ls.loss_ewma += a * (loss_sample - ls.loss_ewma);
  ls.delay_ewma_ns += a * (delay_sample - ls.delay_ewma_ns);
  if (ls.spec.rt) {
    std::uint64_t rejects = 0;
    for (const auto& [k, v] : ls.spec.rt->telemetry().counters())
      if (k.rfind("parse_reject_", 0) == 0) rejects += v;
    const double reject_sample = double(rejects - ls.seen_rejects);
    ls.seen_rejects = rejects;
    ls.reject_ewma += a * (reject_sample - ls.reject_ewma);
  }
}

bool AdaptationController::apply(LinkState& ls, CtrlAction a) {
  if (!ls.spec.actuate || !ls.spec.actuate(a)) return false;
  ++ls.actions;
  ++actions_applied_;
  ctrlstats::actions_total().fetch_add(1, std::memory_order_relaxed);
  ls.last_action_slot = a.slot;
  log_.push_back(a);
  if (log_.size() > kLogCap) log_.erase(log_.begin());
  return true;
}

void AdaptationController::decide(LinkState& ls, int index,
                                  std::int64_t slot) {
  const bool over_eject = ls.delay_ewma_ns >= double(cfg_.delay_eject_ns) ||
                          ls.loss_ewma >= cfg_.loss_eject;
  const bool over_reduce = ls.loss_ewma >= cfg_.loss_reduce;
  const bool healthy = ls.loss_ewma <= cfg_.loss_recover &&
                       ls.delay_ewma_ns <= double(cfg_.delay_recover_ns);
  if (over_eject || over_reduce) {
    ++ls.breach_streak;
    ls.healthy_streak = 0;
  } else if (healthy) {
    ls.breach_streak = 0;
    ++ls.healthy_streak;
  } else {
    ls.breach_streak = 0;
    ls.healthy_streak = 0;
  }
  const bool dwell_ok = slot - ls.last_action_slot >= cfg_.dwell_slots;
  if (!dwell_ok) return;

  if (ls.breach_streak >= cfg_.hold_slots) {
    // Escalation ladder: shed mantissa bits first; a link past the
    // latency budget (or in deep loss) is ejected from its set outright.
    if (over_eject && cfg_.enable_membership &&
        ls.mode != LinkMode::Ejected) {
      CtrlAction a{ls.spec.eject_verb, index, 0, /*enable=*/false, slot};
      if (apply(ls, a)) ls.mode = LinkMode::Ejected;
      return;
    }
    if (over_reduce && cfg_.enable_width && !ls.width_reduced &&
        ls.mode == LinkMode::Healthy) {
      CtrlAction a{CtrlVerb::SetUlIqWidth, index, cfg_.degraded_iq_width,
                   /*enable=*/true, slot};
      if (apply(ls, a)) {
        ls.width_reduced = true;
        ls.mode = LinkMode::WidthReduced;
      }
      return;
    }
    return;
  }
  if (ls.healthy_streak >= cfg_.recover_hold_slots) {
    // De-escalate one rung at a time: readmit first, restore width last.
    if (ls.mode == LinkMode::Ejected && cfg_.enable_membership) {
      CtrlAction a{ls.spec.eject_verb, index, 0, /*enable=*/true, slot};
      if (apply(ls, a))
        ls.mode = ls.width_reduced ? LinkMode::WidthReduced
                                   : LinkMode::Healthy;
      return;
    }
    if (ls.width_reduced && cfg_.enable_width) {
      CtrlAction a{CtrlVerb::SetUlIqWidth, index, ls.spec.nominal_iq_width,
                   /*enable=*/true, slot};
      if (apply(ls, a)) {
        ls.width_reduced = false;
        ls.mode = LinkMode::Healthy;
      }
      return;
    }
  }
}

void AdaptationController::publish_stats() {
  // Deltas, never stores: every cell's controller adds into the same
  // process-wide gauges, possibly from different conductor workers. The
  // unsigned difference wraps, so a shrinking count subtracts.
  std::uint64_t degraded = 0, ejected = 0;
  for (const auto& ls : links_) {
    if (ls.width_reduced) ++degraded;
    if (ls.mode == LinkMode::Ejected) ++ejected;
  }
  ctrlstats::links_degraded().fetch_add(degraded - published_degraded_,
                                        std::memory_order_relaxed);
  ctrlstats::links_ejected().fetch_add(ejected - published_ejected_,
                                       std::memory_order_relaxed);
  published_degraded_ = degraded;
  published_ejected_ = ejected;
}

void AdaptationController::on_slot(std::int64_t slot) {
  // Wall-clock bracket around the decision pass: observability only (the
  // ISSUE's "decision latency traced in obs"); decisions themselves are a
  // pure function of virtual-time counters.
  const auto t0 = std::chrono::steady_clock::now();
  ++decision_slots_;
  ctrlstats::decisions_total().fetch_add(1, std::memory_order_relaxed);
  if (auto_enabled_) {
    for (std::size_t i = 0; i < links_.size(); ++i) {
      sample(links_[i]);
      decide(links_[i], int(i), slot);
    }
  } else {
    for (auto& ls : links_) sample(ls);
  }
  publish_stats();
  const auto wall = std::uint64_t(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  ctrlstats::decision_ns_last().store(wall, std::memory_order_relaxed);
  ctrlstats::decision_ns_sum().fetch_add(wall, std::memory_order_relaxed);
  iqstats::raise_hwm(ctrlstats::decision_ns_hwm(), wall);
  if (obs::enabled()) {
    // A Packet-category span folds into the per-track processing-latency
    // histogram at commit, giving p50/p99 decision latency per controller.
    obs::emit(obs::Cat::Packet, obs_name_, obs_track_,
              slot * slot_duration_ns(cfg_.scs), std::uint32_t(wall),
              links_.size());
  }
}

std::string AdaptationController::dump() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s.decision_slots=%llu\n%s.actions=%llu\n",
                cfg_.name.c_str(),
                static_cast<unsigned long long>(decision_slots_),
                cfg_.name.c_str(),
                static_cast<unsigned long long>(actions_applied_));
  out += buf;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const LinkState& ls = links_[i];
    const char* mode = ls.mode == LinkMode::Healthy       ? "healthy"
                       : ls.mode == LinkMode::WidthReduced ? "width_reduced"
                                                           : "ejected";
    std::snprintf(buf, sizeof(buf),
                  "%s.link%zu[%s] mode=%s loss=%.6f delay_ns=%.1f "
                  "rejects=%.3f breach=%d healthy=%d actions=%llu\n",
                  cfg_.name.c_str(), i, ls.spec.name.c_str(), mode,
                  ls.loss_ewma, ls.delay_ewma_ns, ls.reject_ewma,
                  ls.breach_streak, ls.healthy_streak,
                  static_cast<unsigned long long>(ls.actions));
    out += buf;
  }
  for (const auto& a : log_) out += cfg_.name + ".log " + a.str() + "\n";
  return out;
}

std::string AdaptationController::ctrl_mgmt(const std::string& cmd) {
  std::istringstream is(cmd);
  std::string verb;
  is >> verb;
  if (verb.empty() || verb == "status") return dump();
  if (verb == "links") {
    std::ostringstream os;
    for (std::size_t i = 0; i < links_.size(); ++i)
      os << i << " " << links_[i].spec.name << "\n";
    return os.str();
  }
  if (verb == "auto") {
    std::string v;
    is >> v;
    if (v == "on" || v == "off") {
      auto_enabled_ = v == "on";
      return "ok";
    }
    return "usage: auto on|off";
  }
  if (verb == "force") {
    int link = -1;
    std::string what;
    is >> link >> what;
    if (link < 0 || link >= int(links_.size())) return "bad link index";
    LinkState& ls = links_[std::size_t(link)];
    const std::int64_t slot = 0;  // operator actions are not slot-stamped
    if (what == "eject") {
      CtrlAction a{ls.spec.eject_verb, link, 0, false, slot};
      if (!apply(ls, a)) return "refused";
      ls.mode = LinkMode::Ejected;
      return "ok";
    }
    if (what == "admit") {
      CtrlAction a{ls.spec.eject_verb, link, 0, true, slot};
      if (!apply(ls, a)) return "refused";
      ls.mode =
          ls.width_reduced ? LinkMode::WidthReduced : LinkMode::Healthy;
      return "ok";
    }
    if (what == "width") {
      int w = 0;
      if (!(is >> w)) return "usage: force <link> width <bits>";
      CtrlAction a{CtrlVerb::SetUlIqWidth, link, w, true, slot};
      if (!apply(ls, a)) return "refused";
      ls.width_reduced = w != ls.spec.nominal_iq_width;
      if (ls.mode != LinkMode::Ejected)
        ls.mode = ls.width_reduced ? LinkMode::WidthReduced
                                   : LinkMode::Healthy;
      return "ok";
    }
    return "usage: force <link> eject|admit|width <bits>";
  }
  return "unknown ctrl subcommand (status|links|auto|force)";
}


void AdaptationController::save_state(state::StateWriter& w) const {
  w.u32(std::uint32_t(links_.size()));
  for (const LinkState& ls : links_) {
    const FaultStats& f = ls.seen;
    w.u64(f.iid_loss);
    w.u64(f.burst_loss);
    w.u64(f.flap_loss);
    w.u64(f.delayed);
    w.u64(f.delay_ns_total);
    w.u64(f.duplicated);
    w.u64(f.reordered);
    w.u64(f.corrupted);
    w.u64(f.held_released);
    w.u64(f.passed);
    w.u64(ls.seen_rejects);
    w.f64(ls.loss_ewma);
    w.f64(ls.delay_ewma_ns);
    w.f64(ls.reject_ewma);
    w.i32(ls.breach_streak);
    w.i32(ls.healthy_streak);
    w.i64(ls.last_action_slot);
    w.u8(std::uint8_t(ls.mode));
    w.b(ls.width_reduced);
    w.u64(ls.actions);
  }
  w.u32(std::uint32_t(log_.size()));
  for (const CtrlAction& a : log_) {
    w.u8(std::uint8_t(a.verb));
    w.i32(a.link);
    w.i32(a.value);
    w.b(a.enable);
    w.i64(a.slot);
  }
  w.u64(actions_applied_);
  w.u64(decision_slots_);
  w.b(auto_enabled_);
}

void AdaptationController::load_state(state::StateReader& r) {
  if (r.count(138) != links_.size()) {
    r.fail(state::StateError::kMismatch);
    return;
  }
  for (LinkState& ls : links_) {
    FaultStats& f = ls.seen;
    f.iid_loss = r.u64();
    f.burst_loss = r.u64();
    f.flap_loss = r.u64();
    f.delayed = r.u64();
    f.delay_ns_total = r.u64();
    f.duplicated = r.u64();
    f.reordered = r.u64();
    f.corrupted = r.u64();
    f.held_released = r.u64();
    f.passed = r.u64();
    ls.seen_rejects = r.u64();
    ls.loss_ewma = r.f64();
    ls.delay_ewma_ns = r.f64();
    ls.reject_ewma = r.f64();
    ls.breach_streak = r.i32();
    ls.healthy_streak = r.i32();
    ls.last_action_slot = r.i64();
    std::uint8_t mode = r.u8();
    if (mode > std::uint8_t(LinkMode::Ejected)) {
      r.fail(state::StateError::kBadValue);
      return;
    }
    ls.mode = LinkMode(mode);
    ls.width_reduced = r.b();
    ls.actions = r.u64();
  }
  log_.clear();
  std::uint32_t n_log = r.count(18);
  if (n_log > kLogCap) {
    r.fail(state::StateError::kBadValue);
    return;
  }
  for (std::uint32_t i = 0; i < n_log && r.ok(); ++i) {
    CtrlAction a;
    std::uint8_t verb = r.u8();
    if (verb > std::uint8_t(CtrlVerb::SetDmimoGate)) {
      r.fail(state::StateError::kBadValue);
      return;
    }
    a.verb = CtrlVerb(verb);
    a.link = r.i32();
    a.value = r.i32();
    a.enable = r.b();
    a.slot = r.i64();
    log_.push_back(a);
  }
  actions_applied_ = r.u64();
  decision_slots_ = r.u64();
  auto_enabled_ = r.b();
}

void AdaptationController::retune(const CtrlConfig& cfg) {
  CtrlConfig next = cfg;
  next.name = cfg_.name;  // structural identity is not retunable
  next.scs = cfg_.scs;
  cfg_ = next;
}

}  // namespace rb::ctrl
