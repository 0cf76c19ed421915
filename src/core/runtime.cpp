#include "core/middlebox.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "iq/prb.h"
#include "obs/obs.h"

namespace rb {
namespace {
thread_local PrbScratch g_scratch;
thread_local MbScratch g_mb_scratch;
}  // namespace

// ----------------------------------------------------------------------
// MbContext: the action facade
// ----------------------------------------------------------------------

void MbContext::trace_action(std::uint16_t name, double cost_begin,
                             std::uint64_t arg) {
  if (!obs::enabled()) return;
  obs::emit(obs::Cat::Action, name, rt_->obs_track_,
            start_ns_ + std::int64_t(cost_begin),
            std::uint32_t(cost_ns_ - cost_begin), arg);
}

void MbContext::trace_span(std::uint16_t name, double cost_begin,
                           std::uint64_t arg) {
  if (!obs::enabled()) return;
  obs::emit(obs::Cat::Combine, name, rt_->obs_track_,
            start_ns_ + std::int64_t(cost_begin),
            std::uint32_t(cost_ns_ - cost_begin), arg);
}

void MbContext::forward(PacketPtr p, int out_port,
                        std::optional<MacAddr> dst,
                        std::optional<MacAddr> src) {
  if (!p) return;
  const double c0 = cost_ns_;
  const std::size_t len = p->len();
  if (dst || src) {
    rewrite_eth_addrs(p->data(), dst, src);
    cost_ns_ += rt_->cfg_.work.hdr_rewrite_ns;
  }
  cost_ns_ += rt_->cfg_.work.forward_ns;
  tx_queue_.emplace_back(std::move(p), out_port);
  rt_->telemetry_.inc(rt_->hot_.pkts_forwarded);
  trace_action(obs::kNA1Forward, c0, len);
}

void MbContext::drop(PacketPtr p) {
  if (!p) return;
  rt_->telemetry_.inc(rt_->hot_.pkts_dropped);
  trace_action(obs::kNA1Drop, cost_ns_, p->len());
  // PacketPtr destructor returns the buffer to the pool.
}

PacketPtr MbContext::replicate(const Packet& p) {
  const double c0 = cost_ns_;
  PacketPtr c = rt_->pool_.clone(p);
  if (!c) {
    rt_->telemetry_.inc(rt_->hot_.replicate_failures);
    return nullptr;
  }
  // The testbed's A2 cost (see WorkCosts::replicate_ref_ns), decided by
  // parsed frame facts only, so every run of a seed charges identically.
  const bool header_split =
      info_ != nullptr && !info_->cplane && info_->n_sections == 1 &&
      info_->payload_len > 0 &&
      std::size_t(info_->payload_off) + info_->payload_len == p.len();
  if (header_split)
    cost_ns_ += rt_->cfg_.work.replicate_ref_ns;
  else
    cost_ns_ += rt_->cfg_.work.clone_base_ns +
                rt_->cfg_.work.clone_per_kb_ns * double(p.len()) / 1024.0;
  rt_->telemetry_.inc(rt_->hot_.pkts_replicated);
  trace_action(obs::kNA2Replicate, c0, p.len());
  return c;
}

PacketCache& MbContext::cache() { return rt_->cache_; }

MbScratch& MbContext::scratch() { return g_mb_scratch; }

void MbContext::charge_cache_op() {
  const double c0 = cost_ns_;
  cost_ns_ += rt_->cfg_.work.cache_op_ns;
  rt_->telemetry_.inc(rt_->hot_.cache_ops);
  trace_action(obs::kNA3Cache, c0);
}

bool MbContext::rewrite_eaxc(Packet& p, const EaxcId& eaxc) {
  const double c0 = cost_ns_;
  cost_ns_ += rt_->cfg_.work.hdr_rewrite_ns;
  trace_action(obs::kNA4Rewrite, c0);
  return ::rb::rewrite_eaxc(p.data(), eaxc);
}

std::uint8_t MbContext::prb_exponent(const Packet& p, const USection& sec,
                                     int prb) {
  cost_ns_ += rt_->cfg_.work.per_prb_scan_ns;
  const std::size_t off =
      sec.payload_offset + std::size_t(prb) * sec.comp.prb_bytes();
  if (off >= p.len()) return 0;
  return bfp_wire_exponent(p.bytes(off));
}

std::size_t MbContext::merge_payloads(
    std::span<const std::span<const std::uint8_t>> srcs, int n_prb,
    const CompConfig& cfg, std::span<std::uint8_t> dst) {
  const double c0 = cost_ns_;
  cost_ns_ += double(n_prb) *
              (rt_->cfg_.work.per_prb_decompress_ns * double(srcs.size()) +
               rt_->cfg_.work.per_prb_compress_ns);
  rt_->telemetry_.inc(rt_->hot_.iq_merges);
  trace_action(obs::kNA4Merge, c0, std::uint64_t(n_prb));
  return merge_compressed(srcs, n_prb, cfg, dst, g_scratch);
}

std::size_t MbContext::merge_payloads(
    std::span<const std::span<const std::uint8_t>> srcs,
    std::span<const CompConfig> src_cfgs, int n_prb,
    const CompConfig& dst_cfg, std::span<std::uint8_t> dst) {
  const double c0 = cost_ns_;
  cost_ns_ += double(n_prb) *
              (rt_->cfg_.work.per_prb_decompress_ns * double(srcs.size()) +
               rt_->cfg_.work.per_prb_compress_ns);
  rt_->telemetry_.inc(rt_->hot_.iq_merges);
  trace_action(obs::kNA4Merge, c0, std::uint64_t(n_prb));
  return merge_compressed(srcs, src_cfgs, n_prb, dst_cfg, dst, g_scratch);
}

bool MbContext::copy_prbs(std::span<const std::uint8_t> src, int src_prb,
                          std::span<std::uint8_t> dst, int dst_prb, int n_prb,
                          const CompConfig& cfg) {
  const double c0 = cost_ns_;
  cost_ns_ += rt_->cfg_.work.per_prb_copy_ns * double(n_prb);
  trace_action(obs::kNA4Copy, c0, std::uint64_t(n_prb));
  return copy_prbs_aligned(src, src_prb, dst, dst_prb, n_prb, cfg);
}

bool MbContext::copy_prbs_misaligned(std::span<const std::uint8_t> src,
                                     int src_prb,
                                     std::span<std::uint8_t> dst, int dst_prb,
                                     int n_prb, int shift_sc,
                                     const CompConfig& cfg) {
  const double c0 = cost_ns_;
  cost_ns_ += double(n_prb) * (rt_->cfg_.work.per_prb_decompress_ns * 2 +
                               rt_->cfg_.work.per_prb_compress_ns);
  trace_action(obs::kNA4Copy, c0, std::uint64_t(n_prb));
  return copy_prbs_shifted(src, src_prb, dst, dst_prb, n_prb, shift_sc, cfg,
                           g_scratch);
}

void MbContext::charge(double ns) {
  const double c0 = cost_ns_;
  cost_ns_ += ns;
  trace_action(obs::kNCharge, c0);
}

PacketPtr MbContext::alloc_packet() {
  PacketPtr p = rt_->pool_.alloc();
  if (!p) rt_->telemetry_.inc(rt_->hot_.pool_exhausted);
  return p;
}

Telemetry& MbContext::telemetry() { return rt_->telemetry_; }
const FhContext& MbContext::fh() const { return rt_->cfg_.fh; }
const FhContext& MbContext::fh(int port) const {
  if (port >= 0 && port < int(rt_->port_fh_.size()))
    return rt_->port_fh_[std::size_t(port)];
  return rt_->cfg_.fh;
}

// ----------------------------------------------------------------------
// MiddleboxApp defaults
// ----------------------------------------------------------------------

void MiddleboxApp::on_other(int in_port, PacketPtr p, MbContext& ctx) {
  (void)in_port;
  ctx.drop(std::move(p));
}

// ----------------------------------------------------------------------
// MiddleboxRuntime
// ----------------------------------------------------------------------

MiddleboxRuntime::MiddleboxRuntime(Config cfg, MiddleboxApp& app)
    : cfg_(std::move(cfg)), app_(&app), pool_(kPoolCapacity) {
  worker_free_at_.assign(std::size_t(std::max(1, cfg_.n_workers)), 0);
  hot_ = HotCounters{
      .pkts_forwarded = telemetry_.intern("pkts_forwarded"),
      .pkts_dropped = telemetry_.intern("pkts_dropped"),
      .pkts_replicated = telemetry_.intern("pkts_replicated"),
      .replicate_failures = telemetry_.intern("replicate_failures"),
      .cache_ops = telemetry_.intern("cache_ops"),
      .iq_merges = telemetry_.intern("iq_merges"),
      .pool_exhausted = telemetry_.intern("pool_exhausted"),
      .cplane_rx = telemetry_.intern("cplane_rx"),
      .uplane_rx = telemetry_.intern("uplane_rx"),
      .non_fh_rx = telemetry_.intern("non_fh_rx"),
      .cache_evicted = telemetry_.intern("cache_evicted"),
      .cache_stale = telemetry_.intern("cache_stale_dropped"),
  };
  for (std::size_t i = 0; i < kParseErrorCount; ++i)
    hot_.parse_reject[i] = telemetry_.intern(
        std::string("parse_reject_") + parse_error_name(ParseError(i)));
  hot_.cache_entries = telemetry_.intern_gauge("cache_entries");
  hot_.cache_evictions = telemetry_.intern_gauge("cache_evictions");
  cache_.set_max_entries(cfg_.cache_max_entries);
  obs_track_ = obs::Collector::instance().intern_track("mb." + cfg_.name);
}

int MiddleboxRuntime::add_port(const std::string& name, Port& port,
                               std::optional<FhContext> fh) {
  (void)name;
  std::unique_ptr<Driver> d;
  if (cfg_.driver == DriverKind::Dpdk)
    d = std::make_unique<PollDriver>(port, cfg_.driver_costs);
  else
    d = std::make_unique<IrqDriver>(port, cfg_.driver_costs);
  drivers_.push_back(std::move(d));
  port_fh_.push_back(fh.value_or(cfg_.fh));
  return int(drivers_.size()) - 1;
}

std::size_t MiddleboxRuntime::pick_worker() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < worker_free_at_.size(); ++i)
    if (worker_free_at_[i] < worker_free_at_[best]) best = i;
  return best;
}

void MiddleboxRuntime::begin_slot(std::int64_t slot) {
  // Per-symbol state must not leak across slots; real middleboxes bound
  // their caches to the fronthaul timing window. Entries still cached
  // here never found their combine partners (loss upstream) - surface
  // them before dropping.
  if (cache_.size() > 0) telemetry_.inc(hot_.cache_stale, cache_.size());
  if (cache_.evictions() > cache_evictions_seen_) {
    telemetry_.inc(hot_.cache_evicted,
                   cache_.evictions() - cache_evictions_seen_);
    cache_evictions_seen_ = cache_.evictions();
  }
  // Cache pressure at the barrier, before the slot-boundary clear: entry
  // occupancy shows combine partners that never arrived, evictions the
  // cumulative cap pressure (rb_cache_entries / rb_cache_evictions).
  telemetry_.set_gauge(hot_.cache_entries, double(cache_.size()));
  telemetry_.set_gauge(hot_.cache_evictions, double(cache_.evictions()));
  cache_.clear();
  last_slot_max_latency_ns_ = slot_max_latency_ns_;
  slot_max_latency_ns_ = 0;
  // Workers idle at slot boundaries.
  for (auto& w : worker_free_at_) w = 0;
  MbContext ctx(this, -1, slot, current_slot_start_ns_);
  app_->on_slot(slot, ctx);
  for (auto& [pkt, out] : ctx.tx_queue_) {
    if (out >= 0 && out < num_ports()) transmit(out, std::move(pkt));
  }
}

void MiddleboxRuntime::transmit(int out, PacketPtr pkt) {
  if (obs::enabled())
    obs::emit(obs::Cat::Tx, obs::kNTx, obs_track_, pkt->rx_time_ns, 0,
              std::uint64_t(out));
  drivers_[std::size_t(out)]->tx(std::move(pkt));
}

bool MiddleboxRuntime::parse_rx_frame(int in_port, const Packet& p,
                                      FhFrame& out, ParseError& perr) {
  perr = ParseError::None;
  if (parse_frame_into(p.data(), port_fh_[std::size_t(in_port)], out, &perr))
    return true;
  if (perr != ParseError::None && perr < ParseError::kCount)
    telemetry_.inc(hot_.parse_reject[std::size_t(perr)]);
  if (getenv("RB_DEBUG_PARSE")) {
    auto d = p.data();
    fprintf(stderr, "[parsefail] len=%zu bytes:", d.size());
    for (std::size_t i = 0; i < 48 && i < d.size(); ++i)
      fprintf(stderr, " %02x", d[i]);
    fprintf(stderr, "\n");
  }
  return false;
}

void MiddleboxRuntime::classify_frame(const FhFrame& f, FrameInfo& info) {
  const EaxcId& eaxc = f.ecpri.eaxc;
  info.eaxc = eaxc;
  info.prach = eaxc.du_port != 0;
  info.cplane = f.is_cplane();
  info.start_prb = 0;
  info.num_prb = 0;
  info.payload_off = 0;
  info.payload_len = 0;
  info.frag_tag = 0;
  if (info.cplane) {
    const CPlaneMsg& c = f.cplane();
    info.at = c.at;
    info.comp = c.comp;
    info.uplink = c.direction == Direction::Uplink;
    info.type3 = c.section_type == SectionType::Type3;
    info.n_sections =
        std::uint8_t(std::min<std::size_t>(c.sections.size(), 255));
    if (!c.sections.empty()) {
      info.start_prb = c.sections[0].start_prb;
      info.num_prb = c.sections[0].num_prb;
      info.frag_tag = std::uint8_t(c.sections[0].start_prb & 0xff);
    }
    info.cache_key = PacketCache::key(c.at, eaxc, true, info.frag_tag);
  } else {
    const UPlaneMsg& u = f.uplane();
    info.at = u.at;
    info.uplink = u.direction == Direction::Uplink;
    info.type3 = false;
    info.n_sections =
        std::uint8_t(std::min<std::size_t>(u.sections.size(), 255));
    if (!u.sections.empty()) {
      const USection& s0 = u.sections[0];
      info.comp = s0.comp;
      info.start_prb = s0.start_prb;
      info.num_prb = std::uint16_t(s0.num_prb);
      info.payload_off = std::uint16_t(s0.payload_offset);
      info.payload_len = std::uint16_t(s0.payload_len);
      info.frag_tag = std::uint8_t(s0.start_prb & 0xff);
    } else {
      info.comp = CompConfig{};
    }
    info.cache_key = PacketCache::key(u.at, eaxc, false, info.frag_tag);
  }
}

void MiddleboxRuntime::dispatch_packet(int in_port, PacketPtr p,
                                       FhFrame* frame, const FrameInfo* info,
                                       ParseError perr, std::int64_t slot,
                                       std::int64_t slot_start_ns) {
  const std::size_t w = pick_worker();
  const std::int64_t arrive = p->rx_time_ns;
  const std::int64_t start = std::max(arrive, worker_free_at_[w]);

  MbContext ctx(this, in_port, slot, slot_start_ns);
  ctx.start_ns_ = start;
  const std::size_t plen = p->len();

  const bool is_fh = frame != nullptr;
  const bool is_cp = is_fh && frame->is_cplane();
  if (!is_fh && obs::enabled())
    obs::emit(obs::Cat::Parse, obs::kNParseReject, obs_track_, start, 0,
              std::uint64_t(perr));
  ProcessingLocus locus = ProcessingLocus::Userspace;
  if (is_fh) {
    locus = app_->locus(*frame);
    ctx.info_ = info;
    app_->on_frame(in_port, std::move(p), *frame, ctx);
    ctx.info_ = nullptr;
  } else {
    app_->on_other(in_port, std::move(p), ctx);
  }
  if (cost_sampler_) cost_sampler_(frame, ctx.cost_ns_);

  // Account the accumulated work: CPU meter + queueing latency.
  const std::int64_t cost = std::int64_t(ctx.cost_ns_);
  drivers_[std::size_t(in_port)]->charge_handler(cost, locus);
  const std::int64_t done = start + cost;
  if (obs::enabled())
    obs::emit(obs::Cat::Packet,
              is_fh ? (is_cp ? obs::kNPacketC : obs::kNPacketU)
                    : obs::kNPacketOther,
              obs_track_, start, std::uint32_t(cost), plen);
  worker_free_at_[w] = done;
  slot_max_latency_ns_ = std::max(slot_max_latency_ns_, done - slot_start_ns);

  for (auto& [pkt, out] : ctx.tx_queue_) {
    if (out < 0 || out >= num_ports()) continue;
    // The packet leaves when its worker finished processing it. TX is
    // staged into the burst queue and flushed after the chunk's dispatch
    // pass, in this same per-packet emission order.
    pkt->rx_time_ns = std::max(pkt->rx_time_ns, done);
    burst_.txq.emplace_back(std::move(pkt), out);
  }
}

bool MiddleboxRuntime::pump(std::int64_t slot, std::int64_t slot_start_ns) {
  // Drain every port into the reused burst descriptor, then process in
  // virtual-arrival order: the worker queueing model requires monotonic
  // start times to be meaningful.
  Burst& b = burst_;
  b.pkt.clear();
  b.in_port.clear();
  b.order.clear();
  for (std::size_t i = 0; i < drivers_.size(); ++i) {
    const std::size_t got = drivers_[i]->rx_drain(b.pkt);
    b.in_port.insert(b.in_port.end(), got, std::int32_t(i));
  }
  const std::size_t total = b.pkt.size();
  if (total == 0) return pump_idle(slot, slot_start_ns);
  current_slot_start_ns_ = slot_start_ns;
  burst_size_hist_.record(total);

  // Sorting (rx_time, drain-sequence) pairs reproduces stable_sort's
  // by-arrival order without its temporary buffer: the sequence number
  // breaks ties exactly the way stability would.
  for (std::size_t s = 0; s < total; ++s)
    b.order.emplace_back(b.pkt[s]->rx_time_ns, std::uint32_t(s));
  std::sort(b.order.begin(), b.order.end());

  for (std::size_t base = 0; base < total; base += Burst::kChunk) {
    const std::size_t n = std::min(Burst::kChunk, total - base);
    burst_occ_hist_.record(n);

    // Parse + classify: fill the SoA section table, prefetching the next
    // packet's header bytes ahead of the parse cursor.
    std::size_t n_ok = 0, n_cp = 0, n_up = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j + 1 < n) {
        const Packet& nx = *b.pkt[b.order[base + j + 1].second];
        __builtin_prefetch(nx.data().data());
        __builtin_prefetch(nx.data().data() + 64);
      }
      const std::size_t s = b.order[base + j].second;
      b.ok[j] =
          parse_rx_frame(b.in_port[s], *b.pkt[s], b.frame[j], b.perr[j]);
      if (b.ok[j]) {
        classify_frame(b.frame[j], b.info[j]);
        ++n_ok;
        ++(b.info[j].cplane ? n_cp : n_up);
      }
    }

    // Per-burst amortized telemetry/obs: the counter sums are commutative
    // and nothing folds Cat::Parse into obs budgets, so one bump and one
    // Parse event per chunk are observationally equivalent to per-packet
    // emission (rejects stay per-packet, carrying the typed reason).
    if (n_cp > 0) telemetry_.inc(hot_.cplane_rx, n_cp);
    if (n_up > 0) telemetry_.inc(hot_.uplane_rx, n_up);
    if (n_ok < n) telemetry_.inc(hot_.non_fh_rx, n - n_ok);
    if (n_ok > 0 && obs::enabled())
      obs::emit(obs::Cat::Parse, obs::kNParseOk, obs_track_,
                b.order[base].first, 0, n_ok);

    // Act: dispatch in virtual-arrival order under the unchanged
    // per-packet worker/cost model, then flush the staged TX. Index loop:
    // a handler emitting during the flush (chained inline fabric) may
    // append to the queue it is draining.
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t s = b.order[base + j].second;
      dispatch_packet(b.in_port[s], std::move(b.pkt[s]),
                      b.ok[j] ? &b.frame[j] : nullptr,
                      b.ok[j] ? &b.info[j] : nullptr, b.perr[j], slot,
                      slot_start_ns);
    }
    for (std::size_t t = 0; t < b.txq.size(); ++t)
      transmit(b.txq[t].second, std::move(b.txq[t].first));
    b.txq.clear();
  }
  return true;
}

bool MiddleboxRuntime::pump_idle(std::int64_t slot,
                                 std::int64_t slot_start_ns) {
  // All traffic of this phase has drained: give the app its deadline
  // callback. Anything it emits (e.g. a partial DAS combine) makes this
  // pump productive so downstream pumps run again.
  MbContext ctx(this, -1, slot, slot_start_ns);
  app_->on_pump_idle(slot, ctx);
  if (ctx.tx_queue_.empty()) return false;
  bool moved = false;
  for (auto& [pkt, out] : ctx.tx_queue_) {
    if (out < 0 || out >= num_ports()) continue;
    transmit(out, std::move(pkt));
    moved = true;
  }
  return moved;
}

double MiddleboxRuntime::cpu_utilization(std::int64_t now_ns) const {
  if (cfg_.driver == DriverKind::Dpdk) return 1.0;
  const std::int64_t wall = now_ns - cpu_window_start_ns_;
  if (wall <= 0) return 0.0;
  std::int64_t busy = 0;
  for (const auto& d : drivers_) busy += d->meter().busy_ns();
  double u = double(busy) / double(wall);
  return u > 1.0 ? 1.0 : u;
}

void MiddleboxRuntime::reset_cpu(std::int64_t now_ns) {
  cpu_window_start_ns_ = now_ns;
  for (auto& d : drivers_) d->meter().reset();
}

void MiddleboxRuntime::save_state(state::StateWriter& w) const {
  telemetry_.save_state(w);
  cache_.save_state(w);
  w.i64(slot_max_latency_ns_);
  w.i64(last_slot_max_latency_ns_);
  w.i64(current_slot_start_ns_);
  w.i64(cpu_window_start_ns_);
  w.u64(cache_evictions_seen_);
  for (const BurstHist* h : {&burst_size_hist_, &burst_occ_hist_}) {
    for (std::uint64_t bkt : h->bucket) w.u64(bkt);
    w.u64(h->count);
    w.u64(h->sum);
  }
  app_->save_state(w);
}

void MiddleboxRuntime::load_state(state::StateReader& r) {
  telemetry_.load_state(r);
  cache_.load_state(r, pool_, [this](Packet& p, int in_port, FhFrame& f) {
    if (in_port < 0 || in_port >= int(port_fh_.size())) return false;
    ParseError perr = ParseError::None;
    return parse_rx_frame(in_port, p, f, perr);
  });
  slot_max_latency_ns_ = r.i64();
  last_slot_max_latency_ns_ = r.i64();
  current_slot_start_ns_ = r.i64();
  cpu_window_start_ns_ = r.i64();
  cache_evictions_seen_ = r.u64();
  for (BurstHist* h : {&burst_size_hist_, &burst_occ_hist_}) {
    for (std::uint64_t& bkt : h->bucket) bkt = r.u64();
    h->count = r.u64();
    h->sum = r.u64();
  }
  app_->load_state(r);
}

}  // namespace rb
