#include "obs/obs.h"

#include <algorithm>
#include <cassert>

namespace rb::obs {

const char* hist_kind_name(HistKind k) {
  switch (k) {
    case HistKind::MbProc: return "mb_proc";
    case HistKind::LinkDelay: return "link_delay";
    case HistKind::Ipg: return "ipg";
    case HistKind::FaultDelay: return "fault_delay";
  }
  return "?";
}

Collector& Collector::instance() {
  static Collector c;
  return c;
}

Collector::Collector() {
  // Fixed names must land at their FixedName enum values.
  static const char* kFixed[] = {
      "slot",          "symbol",        "packet.cplane", "packet.uplane",
      "packet.other",  "parse.ok",      "parse.reject",  "tx",
      "link",          "a1.forward",    "a1.drop",       "a2.replicate",
      "a3.cache",      "a4.merge",      "a4.copy",       "a4.rewrite",
      "charge",        "fault.loss",    "fault.burst",   "fault.flap",
      "fault.delay",   "fault.corrupt", "fault.dup",     "fault.reorder",
  };
  static_assert(sizeof(kFixed) / sizeof(kFixed[0]) == kNFixedNameCount);
  for (const char* n : kFixed) intern_name(n);
  [[maybe_unused]] const std::uint16_t eng = intern_track("engine");
  assert(eng == kTrackEngine);
}

void Collector::start(const ObsConfig& cfg) {
  reset();
  cfg_ = cfg;
  detail::g_enabled.store(true, std::memory_order_release);
}

void Collector::stop() {
  detail::g_enabled.store(false, std::memory_order_release);
}

void Collector::reset() {
  stop();
  std::lock_guard<std::mutex> lk(reg_mu_);
  // Flush stale events out of every buffer; the buffers themselves (and
  // the thread_local pointers into them) stay alive across runs.
  scratch_.clear();
  for (auto& b : buffers_) b->drain(scratch_);
  scratch_.clear();
  buffer_dropped_seen_ = 0;
  for (auto& b : buffers_) buffer_dropped_seen_ += b->dropped();
  events_.clear();
  budgets_.clear();
  hists_.clear();
  last_arrival_.clear();
  slots_ = misses_ = dropped_ = total_events_ = 0;
}

std::uint16_t Collector::intern_name(const std::string& n) {
  std::lock_guard<std::mutex> lk(reg_mu_);
  auto it = name_idx_.find(n);
  if (it != name_idx_.end()) return it->second;
  const auto id = std::uint16_t(names_.size());
  names_.push_back(n);
  name_idx_.emplace(n, id);
  return id;
}

std::uint16_t Collector::intern_track(const std::string& n) {
  std::lock_guard<std::mutex> lk(reg_mu_);
  auto it = track_idx_.find(n);
  if (it != track_idx_.end()) return it->second;
  const auto id = std::uint16_t(tracks_.size());
  tracks_.push_back(n);
  track_idx_.emplace(n, id);
  return id;
}

std::string Collector::name_str(std::uint16_t id) const {
  std::lock_guard<std::mutex> lk(reg_mu_);
  return id < names_.size() ? names_[id] : "?";
}

std::string Collector::track_str(std::uint16_t id) const {
  std::lock_guard<std::mutex> lk(reg_mu_);
  return id < tracks_.size() ? tracks_[id] : "?";
}

TraceBuffer& Collector::thread_buffer() {
  thread_local TraceBuffer* buf = nullptr;
  if (!buf) {
    std::lock_guard<std::mutex> lk(reg_mu_);
    buffers_.push_back(std::make_unique<TraceBuffer>());
    buf = buffers_.back().get();
  }
  return *buf;
}

void Collector::emit(const TraceEvent& e) { thread_buffer().push(e); }

LatencyHistogram& Collector::hist_slot(HistKind k, std::uint16_t track) {
  const std::uint32_t key =
      (std::uint32_t(k) << 16) | std::uint32_t(track);
  return hists_[key];
}

const LatencyHistogram* Collector::hist(HistKind k,
                                        std::uint16_t track) const {
  const std::uint32_t key =
      (std::uint32_t(k) << 16) | std::uint32_t(track);
  auto it = hists_.find(key);
  return it == hists_.end() ? nullptr : &it->second;
}

void Collector::commit_slot(std::int64_t slot, std::int64_t t0,
                            std::int64_t slot_duration_ns) {
  scratch_.clear();
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    std::uint64_t buffer_dropped = 0;
    for (auto& b : buffers_) {
      b->drain(scratch_);
      buffer_dropped += b->dropped();
    }
    dropped_ += buffer_dropped - buffer_dropped_seen_;
    buffer_dropped_seen_ = buffer_dropped;
  }
  // Deterministic total order: the same event multiset sorts to the same
  // sequence whether it came from one buffer or eight.
  std::sort(scratch_.begin(), scratch_.end(), event_less);

  SlotBudget b;
  b.slot = slot;
  b.t0_ns = t0;
  b.deadline_ns = cfg_.deadline_ns > 0 ? cfg_.deadline_ns : slot_duration_ns;
  for (const TraceEvent& e : scratch_) {
    switch (e.cat) {
      case Cat::Packet: {
        b.busy_ns += e.dur_ns;
        hist_slot(HistKind::MbProc, e.track).record(e.dur_ns);
        const std::int64_t done = e.ts_ns + e.dur_ns - t0;
        if (done > b.max_completion_ns) b.max_completion_ns = done;
        break;
      }
      case Cat::Action:
        switch (e.name) {
          case kNA1Forward:
          case kNA1Drop: b.a1_ns += e.dur_ns; break;
          case kNA2Replicate: b.a2_ns += e.dur_ns; break;
          case kNA3Cache: b.a3_ns += e.dur_ns; break;
          case kNA4Merge:
          case kNA4Copy:
          case kNA4Rewrite: b.a4_ns += e.dur_ns; break;
          case kNCharge: b.charge_ns += e.dur_ns; break;
          default: break;
        }
        break;
      case Cat::Combine: b.combine_ns += e.dur_ns; break;
      case Cat::Link: {
        b.link_ns += e.dur_ns;
        hist_slot(HistKind::LinkDelay, e.track).record(e.dur_ns);
        const std::int64_t arrival = e.ts_ns + e.dur_ns;
        auto [it, fresh] = last_arrival_.try_emplace(e.track, arrival);
        if (!fresh) {
          hist_slot(HistKind::Ipg, e.track).record(arrival - it->second);
          it->second = arrival;
        }
        break;
      }
      case Cat::Fault:
        if (e.name == kNFaultDelay)
          hist_slot(HistKind::FaultDelay, e.track)
              .record(std::int64_t(e.arg));
        break;
      default:
        break;
    }
  }
  b.deadline_miss = b.max_completion_ns > b.deadline_ns;
  if (b.deadline_miss) ++misses_;
  b.events = std::uint32_t(scratch_.size());
  total_events_ += scratch_.size();

  b.ev_begin = events_.size();
  if (cfg_.tracing) {
    const std::size_t room =
        cfg_.max_trace_events > events_.size()
            ? cfg_.max_trace_events - events_.size()
            : 0;
    const std::size_t take = std::min(room, scratch_.size());
    events_.insert(events_.end(), scratch_.begin(),
                   scratch_.begin() + std::ptrdiff_t(take));
    dropped_ += scratch_.size() - take;
  }
  b.ev_end = events_.size();

  budgets_.push_back(b);
  ++slots_;
}

void slot_spans(std::int64_t slot, std::int64_t t0,
                std::int64_t slot_duration_ns) {
  if (!enabled()) return;
  emit(Cat::Slot, kNSlot, kTrackEngine, t0,
       std::uint32_t(slot_duration_ns), std::uint64_t(slot));
  constexpr int kSymbols = 14;
  const std::int64_t sym = slot_duration_ns / kSymbols;
  for (int s = 0; s < kSymbols; ++s) {
    emit(Cat::Symbol, kNSymbol, kTrackEngine, t0 + s * sym,
         std::uint32_t(sym), std::uint64_t(s));
  }
}

}  // namespace rb::obs
