// perfbench: runs one benchmark workload in this process and prints its
// metrics as one JSON line (the last line of stdout).
//
//   perfbench --workload <das_floor|rushare_2du|city16> --seed <n>
//             --seconds <s> --trace <0|1> [--setups <k>]
//
// A run: build the topology from seeded inputs, attach every UE and warm up
// (this is "setup", repeated --setups times, median reported); run a fixed
// check window whose goodput and telemetry fingerprint depend only on the
// seed; then time slots for --seconds of wall time. --seconds 0 stops
// after the check window (run.py uses that to compare a traced and an
// untraced run of the same seed).
//
// --trace 1 splits every slot into the engine's phases (SlotTracer) and
// prints the per-layer metrics instead of the end-to-end ones. It
// alternates traced and untraced chunks so the tracing overhead is paired
// within one process. The benchmark drives the simulator only through its
// public API and changes nothing in it.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "city/city.h"
#include "common/timing.h"
#include "iq/kernels/kernels.h"
#include "ran/vendor.h"
#include "sim/deployment.h"

namespace rb::perfbench {
namespace {

constexpr Hertz kBand78Center = GHz(3) + MHz(460);
constexpr int kWarmupSlots = 200;
constexpr int kCheckSlots = 400;
/// The engine's cap on pump passes per phase (SlotEngine::run_one_slot).
constexpr int kEnginePasses = 8;
/// A traced run fails when its segments explain less of the slot than
/// this: an engine change that reorders the slot phases must break the
/// split loudly instead of mis-attributing time.
constexpr double kMinCoverage = 0.9;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process. Every workload runs single-threaded, so
/// this is wall time minus the time the host ran something else on the
/// vCPU: on a shared VM, wall p99 per chunk ranged 1.1-10.8 ms over the
/// same chunks whose CPU-time p99 stayed at 1.05-1.16 ms. The end-to-end
/// times use this clock; the trace segments use steady_clock, which is
/// cheaper to read.
std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// splitmix64: the benchmark's only source of input randomness.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * double(next() >> 11) * 0x1.0p-53;
  }
};

/// Seeded inputs: each UE's bearing around its RU and its offered load.
/// The radius is fixed and every RU of a workload shares the UE's (x, y),
/// so the path loss to each RU, and with it the rate the UE can reach,
/// does not depend on the bearing. Offered loads vary by +-0.5%. The
/// benchmark compares runs of different seeds, so a seed changes the
/// inputs without moving the operating point.
struct UeInput {
  double bearing = 0;  // radians
  double dl_mbps = 0;
  double ul_mbps = 0;
};

UeInput draw_ue(Rng& rng, double dl, double ul) {
  UeInput u;
  u.bearing = rng.uniform(0.0, 2.0 * std::numbers::pi);
  u.dl_mbps = dl * rng.uniform(0.995, 1.005);
  u.ul_mbps = ul * rng.uniform(0.995, 1.005);
  return u;
}

/// A position `radius_m` from `ru` at the UE's bearing, on the RU's floor.
Position around(const Position& ru, double radius_m, const UeInput& u) {
  Position p = ru;
  p.x += radius_m * std::cos(u.bearing);
  p.y += radius_m * std::sin(u.bearing);
  return p;
}

CellConfig cell_cfg(Hertz bandwidth, Hertz center, std::uint16_t pci) {
  CellConfig c;
  c.bandwidth = bandwidth;
  c.center_freq = center;
  c.pci = pci;
  return c;
}

RuSite ru_site(const Position& pos, Hertz bandwidth, Hertz center) {
  RuSite s;
  s.pos = pos;
  s.n_antennas = 4;
  s.bandwidth = bandwidth;
  s.center_freq = center;
  return s;
}

// --------------------------------------------------------------------------
// Slot tracer
// --------------------------------------------------------------------------

/// Splits every slot of one Deployment's serial engine at the engine's own
/// call boundaries, using a pre-slot hook, an end-slot hook and two no-op
/// Pumpable probes, one registered before the middleboxes and one after:
///
///   pre hook | air begin, traffic, begin hooks, mb begin_slot
///   last probe begin_slot | DU begin_slot (C-plane + DL U-plane build)
///   first probe pump (pass 0) | mb DL pump passes
///   last probe pump, quiescent pass | RU process_dl, air resolve, RU emit_ul
///   first probe pump (pass 0) | mb UL pump passes
///   last probe pump, quiescent pass | DU process_rx | end hook
///
/// Probe pumps return false, so the engine's quiescence test is unchanged.
/// A pass is its phase's last when no middlebox drained or forwarded a
/// frame in it (the engine's "moved" test) or when it is the engine's last.
///
/// A City registers its runtimes before the benchmark can add a first
/// probe; there the pump phases start when the last DU or RU frame of the
/// slot reaches a middlebox port, seen through port taps.
class SlotTracer {
 public:
  enum Seg { kTraffic, kDuTx, kDlPump, kRuAir, kUlPump, kDuRx, kNumSeg };

  explicit SlotTracer(Deployment& d) : d_(d) {}
  SlotTracer(const SlotTracer&) = delete;
  SlotTracer& operator=(const SlotTracer&) = delete;

  /// Register the first probe. Call before the topology adds middleboxes.
  void add_first_probe() {
    d_.engine.add_middlebox(first_);
    has_first_ = true;
  }

  /// Register the last probe, the hooks and the cost samplers. Call once
  /// the topology is complete.
  void arm() {
    d_.engine.add_middlebox(last_);
    d_.engine.add_pre_slot_hook(
        [this](std::int64_t, std::int64_t) { on_pre(); });
    d_.engine.add_end_slot_hook([this](std::int64_t) { on_end(); });
    for (auto& rt : d_.runtimes) {
      // Counters the runtime interns at construction: re-interning them
      // adds nothing to its telemetry.
      Telemetry& t = rt->telemetry();
      activity_.push_back(
          {&t,
           {t.intern("cplane_rx"), t.intern("uplane_rx"),
            t.intern("non_fh_rx"), t.intern("pkts_forwarded")}});
      rt->set_cost_sampler([this](const FhFrame*, double ns) {
        if (enabled) modeled_ns += ns;
      });
      if (!has_first_)
        for (int p = 0; p < rt->num_ports(); ++p)
          rt->port(p).set_tap([this](const Packet&) { on_rx(); });
    }
  }

  bool enabled = false;
  // Totals over traced slots.
  std::array<std::int64_t, kNumSeg> seg_ns{};
  std::int64_t job_ns = 0;      // pre hook -> end hook
  std::int64_t job_max_ns = 0;
  std::int64_t last_job_ns = 0;  // of the last traced slot
  double modeled_ns = 0;
  std::uint64_t slots_ok = 0;
  std::uint64_t slots_bad = 0;  // phase sequence not recognised

 private:
  enum class St : std::uint8_t {
    Idle, Traffic, DuTx, DlPump, RuAir, UlPump, DuRx
  };

  struct Probe final : Pumpable {
    Probe(SlotTracer* t, bool first) : t_(t), first_(first) {}
    bool pump(std::int64_t, std::int64_t) override {
      t_->on_pump(first_);
      return false;
    }
    void begin_slot(std::int64_t) override {
      if (!first_) t_->on_begin_done();
    }
    SlotTracer* t_;
    bool first_;
  };

  struct Activity {
    Telemetry* t;
    std::array<Telemetry::CounterId, 4> ids;
  };

  std::uint64_t activity() const {
    std::uint64_t n = 0;
    for (const auto& a : activity_)
      for (auto id : a.ids) n += a.t->counter(id);
    return n;
  }

  void on_pre() {
    st_ = enabled ? St::Traffic : St::Idle;
    if (enabled) mark_[0] = now_ns();
  }

  void on_begin_done() {
    if (st_ == St::Idle) return;
    if (st_ != St::Traffic) return fail();
    mark_[1] = now_ns();
    snap_ = activity();
    last_rx_ = -1;
    st_ = St::DuTx;
  }

  void on_rx() {
    if (st_ == St::DuTx || st_ == St::RuAir) last_rx_ = now_ns();
  }

  void on_pump(bool first) {
    if (st_ == St::Idle) return;
    const std::int64_t t = now_ns();
    if (st_ == St::DuTx || st_ == St::RuAir) {
      const bool dl = st_ == St::DuTx;
      mark_[dl ? 2 : 4] = first || last_rx_ < 0 ? t : last_rx_;
      st_ = dl ? St::DlPump : St::UlPump;
      pass_ = 0;
    }
    if (first) return;
    if (st_ != St::DlPump && st_ != St::UlPump) return fail();
    const std::uint64_t a = activity();
    const bool moved = a != snap_;
    snap_ = a;
    if (moved && ++pass_ < kEnginePasses) return;
    if (st_ == St::DlPump) {
      mark_[3] = t;
      last_rx_ = -1;
      st_ = St::RuAir;
    } else {
      mark_[5] = t;
      st_ = St::DuRx;
    }
  }

  void on_end() {
    if (st_ == St::Idle) return;
    if (st_ != St::DuRx) return fail();
    mark_[6] = now_ns();
    for (std::size_t s = 0; s < kNumSeg; ++s)
      seg_ns[s] += mark_[s + 1] - mark_[s];
    last_job_ns = mark_[6] - mark_[0];
    job_ns += last_job_ns;
    job_max_ns = std::max(job_max_ns, last_job_ns);
    ++slots_ok;
    st_ = St::Idle;
  }

  void fail() {
    ++slots_bad;
    last_job_ns = 0;
    st_ = St::Idle;
  }

  Deployment& d_;
  Probe first_{this, true};
  Probe last_{this, false};
  bool has_first_ = false;
  St st_ = St::Idle;
  std::array<std::int64_t, 7> mark_{};
  std::int64_t last_rx_ = -1;
  std::uint64_t snap_ = 0;
  int pass_ = 0;
  std::vector<Activity> activity_;
};

// --------------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------------

/// One built topology: a single Deployment or a City of cell shards.
struct Rig {
  // Declared first so they outlive the topology that calls into them.
  std::vector<std::unique_ptr<SlotTracer>> tracers;
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<city::City> city;
  /// UEs whose goodput counts (a neutral-host UE is counted once, in the
  /// shard that carries its traffic).
  std::vector<std::pair<Deployment*, UeId>> ues;
  int cells = 1;

  std::vector<Deployment*> shards() const {
    std::vector<Deployment*> out;
    if (dep) out.push_back(dep.get());
    if (city)
      for (std::size_t i = 0; i < city->num_cells(); ++i)
        out.push_back(city->cell(i).dep.get());
    return out;
  }
  const TddPattern& tdd() const {
    return shards().front()->dus.front()->config().cell.tdd;
  }
  std::int64_t slot() const {
    return city ? city->current_slot() : dep->engine.current_slot();
  }
  void run_slot() {
    if (city)
      city->run_slots(1);
    else
      dep->engine.run_slots(1);
  }
  bool attach(int max_slots) {
    return city ? city->attach_all(max_slots) : dep->attach_all(max_slots);
  }
  void measure(int slots) {
    if (city)
      city->measure(slots);
    else
      dep->measure(slots);
  }
  bool all_attached() const {
    for (Deployment* d : shards())
      for (UeId ue = 0; ue < UeId(d->air.num_ues()); ++ue)
        if (!d->air.is_attached(ue)) return false;
    return true;
  }
  std::uint64_t dl_bits() const {
    std::uint64_t b = 0;
    for (const auto& [d, ue] : ues) b += d->air.dl_bits(ue);
    return b;
  }
  std::uint64_t ul_bits() const {
    std::uint64_t b = 0;
    for (const auto& [d, ue] : ues) b += d->air.ul_bits(ue);
    return b;
  }
  void set_tracing(bool on) {
    for (auto& t : tracers) t->enabled = on;
  }
};

/// Byte-exact state fingerprint of one Deployment: every runtime counter,
/// fault link, controller, DU stat and UE result (the per-cell block of
/// City::fingerprint()).
std::string deployment_fingerprint(const Deployment& d) {
  std::string s;
  char buf[256];
  for (const auto& rt : d.runtimes) {
    s += rt->config().name + "\n";
    for (const auto& [k, v] : rt->telemetry().counters())
      s += k + "=" + std::to_string(v) + "\n";
  }
  s += d.fault_dump() + d.ctrl_dump();
  for (const auto& du : d.dus) {
    const DuStats& st = du->stats();
    std::snprintf(buf, sizeof buf,
                  "du%d c=%" PRIu64 " u=%" PRIu64 " r=%" PRIu64 " late=%" PRIu64
                  " perr=%" PRIu64 " udf=%" PRIu64 " prach=%" PRIu64 "\n",
                  int(du->config().du_id), st.cplane_tx, st.uplane_tx,
                  st.uplane_rx, st.late_drops, st.parse_errors,
                  st.ul_decode_fail, st.prach_detections);
    s += buf;
  }
  for (UeId ue = 0; ue < UeId(d.air.num_ues()); ++ue) {
    std::snprintf(buf, sizeof buf,
                  "ue%d att=%d srv=%d dl=%" PRIu64 " dlerr=%" PRIu64
                  " unrad=%" PRIu64 " ul=%" PRIu64 " ulerr=%" PRIu64 "\n",
                  ue, int(d.air.is_attached(ue)), d.air.serving_cell(ue),
                  d.air.dl_bits(ue), d.air.dl_errors(ue),
                  d.air.dl_unradiated(ue), d.air.ul_bits(ue),
                  d.air.ul_errors(ue));
    s += buf;
  }
  return s;
}

std::string fingerprint_hex(const Rig& r) {
  const std::string s =
      r.city ? r.city->fingerprint() : deployment_fingerprint(*r.dep);
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

/// Trace a single-engine rig: the first probe must be registered before
/// the topology adds its middleboxes, and arm() once it is complete.
SlotTracer* add_engine_tracer(Rig& r, Deployment& d) {
  r.tracers.push_back(std::make_unique<SlotTracer>(d));
  r.tracers.back()->add_first_probe();
  return r.tracers.back().get();
}

/// das_floor: 1 DU at 100 MHz, DAS middlebox, 4 floor RUs (4T4R), one UE
/// near each RU at ~600/60 Mbps (paper Fig 10a).
std::unique_ptr<Rig> build_das_floor(std::uint64_t seed, bool trace) {
  Rng rng{seed};
  auto r = std::make_unique<Rig>();
  r->dep = std::make_unique<Deployment>();
  Deployment& d = *r->dep;
  SlotTracer* tr = trace ? add_engine_tracer(*r, d) : nullptr;
  auto du = d.add_du(cell_cfg(MHz(100), kBand78Center, 1), srsran_profile(), 0);
  std::vector<Deployment::RuHandle> rus;
  for (int f = 0; f < 4; ++f)
    rus.push_back(d.add_ru(
        ru_site(d.plan.ru_position(f, 1), MHz(100), kBand78Center),
        std::uint8_t(f), du.du->fh()));
  std::vector<Deployment::RuHandle*> ptrs;
  for (auto& ru : rus) ptrs.push_back(&ru);
  d.add_das(du, ptrs);
  for (int f = 0; f < 4; ++f) {
    const UeInput u = draw_ue(rng, 600, 60);
    r->ues.emplace_back(&d, d.add_ue(around(d.plan.ru_position(f, 1), 4.0, u),
                                     &du, u.dl_mbps, u.ul_mbps));
  }
  if (tr) tr->arm();
  return r;
}

/// rushare_2du: two 40 MHz DUs on aligned grids (RU PRBs 10 and 150) share
/// one 100 MHz RU through the RU-sharing middlebox, one UE each at ~500/50
/// Mbps (paper Fig 10b).
std::unique_ptr<Rig> build_rushare_2du(std::uint64_t seed, bool trace) {
  Rng rng{seed};
  auto r = std::make_unique<Rig>();
  r->dep = std::make_unique<Deployment>();
  r->cells = 2;
  Deployment& d = *r->dep;
  SlotTracer* tr = trace ? add_engine_tracer(*r, d) : nullptr;
  const RuSite site =
      ru_site(d.plan.ru_position(0, 1), MHz(100), kBand78Center);
  const Hertz ca =
      aligned_du_center_frequency(kBand78Center, 273, 106, 10, Scs::kHz30);
  const Hertz cb =
      aligned_du_center_frequency(kBand78Center, 273, 106, 150, Scs::kHz30);
  auto du_a = d.add_du(cell_cfg(MHz(40), ca, 1), srsran_profile(), 0);
  auto du_b = d.add_du(cell_cfg(MHz(40), cb, 2), srsran_profile(), 1);
  auto ru = d.add_ru(site, 0, du_a.du->fh());
  d.add_rushare({&du_a, &du_b}, ru);
  const UeInput a = draw_ue(rng, 500, 50);
  const UeInput b = draw_ue(rng, 500, 50);
  r->ues.emplace_back(&d, d.add_ue(around(site.pos, 5.0, a), &du_a,
                                   a.dl_mbps, a.ul_mbps, 1));
  r->ues.emplace_back(&d, d.add_ue(around(site.pos, 5.0, b), &du_b,
                                   b.dl_mbps, b.ul_mbps, 2));
  if (tr) tr->arm();
  return r;
}

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// city16: build_city with 16 cells (DU + RU + prbmon + 1 UE each) plus the
/// cell 0/1 neutral-host share, on the serial conductor: the same cell jobs
/// and barrier as a parallel one, run inline in cell order. Pool workers
/// make the slot time depend on which vCPU the host steals from: with 2-3
/// workers on a 4-vCPU shared host, p99 ranged 3.1-15.8 ms between runs.
/// The campus template fixes UE positions; the seed draws the offered load.
std::unique_ptr<Rig> build_city16(std::uint64_t seed, bool trace) {
  Rng rng{seed};
  const UeInput u = draw_ue(rng, 200, 20);
  city::CityConfig cfg;
  cfg.n_cells = 16;
  cfg.ues_per_cell = 1;
  cfg.dl_mbps = u.dl_mbps;
  cfg.ul_mbps = u.ul_mbps;
  cfg.prbmon = true;
  cfg.neutral_host = true;
  cfg.workers = 0;
  auto r = std::make_unique<Rig>();
  r->city = city::build_city(cfg);
  r->cells = cfg.n_cells;
  city::City& c = *r->city;
  for (std::size_t i = 0; i < c.num_cells(); ++i) {
    Deployment* d = c.cell(i).dep.get();
    for (UeId ue : c.cell(i).ues) {
      bool bridged = false;
      for (std::size_t s = 0; s < c.num_shares(); ++s)
        bridged = bridged || (c.share(s).host_cell == int(i) &&
                              c.share(s).real_ue == ue);
      if (!bridged) r->ues.emplace_back(d, ue);
    }
    if (trace) {
      r->tracers.push_back(std::make_unique<SlotTracer>(*d));
      r->tracers.back()->arm();
    }
  }
  return r;
}

struct WorkloadSpec {
  const char* name;
  std::unique_ptr<Rig> (*build)(std::uint64_t, bool);
  int attach_slots;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"das_floor", &build_das_floor, 600},
    {"rushare_2du", &build_rushare_2du, 800},
    {"city16", &build_city16, 800},
};

// --------------------------------------------------------------------------
// Counters
// --------------------------------------------------------------------------

/// Summed middlebox/pool/link counters of a rig at one instant.
struct Counters {
  std::uint64_t offered = 0;  // uplane_rx + cplane_rx
  std::uint64_t failed = 0;   // see kFailCounters / kFailPrefixes
  std::uint64_t pool_exhausted = 0;
  std::uint64_t merges = 0, replicas = 0, cache_ops = 0;
  std::uint64_t zero_copy = 0, cow = 0;
  std::uint64_t xlink_frames = 0;
};

/// Frame failures counted by frame_ok_share. cache_stale_dropped is left
/// out: rushare caches every C-plane only to peek at requesters, so nearly
/// all of those entries expire by design.
constexpr const char* kFailCounters[] = {
    "pool_exhausted",        "replicate_failures",    "cache_evicted",
    "das_late_copies",       "das_merge_failures",    "das_missing_copies",
    "rushare_mux_failures",  "rushare_demux_failures", "rushare_ul_orphans",
    "rushare_ul_slice_oob"};
constexpr const char* kFailPrefixes[] = {"parse_reject_",
                                         "rushare_quarantine_"};

Counters read_counters(const Rig& r) {
  Counters c;
  for (Deployment* d : r.shards()) {
    for (const auto& rt : d->runtimes) {
      for (const auto& [k, v] : rt->telemetry().counters()) {
        if (k == "uplane_rx" || k == "cplane_rx") c.offered += v;
        bool fail = false;
        for (const char* f : kFailCounters) fail = fail || k == f;
        for (const char* p : kFailPrefixes) fail = fail || k.rfind(p, 0) == 0;
        if (fail) c.failed += v;
        if (k == "pool_exhausted") c.pool_exhausted += v;
        if (k == "iq_merges") c.merges += v;
        if (k == "pkts_replicated") c.replicas += v;
        if (k == "cache_ops") c.cache_ops += v;
      }
      c.zero_copy += rt->pool().replicas_zero_copy();
      c.cow += rt->pool().cow_promotions();
    }
    for (const auto& du : d->dus)
      c.pool_exhausted += du->stats().pool_exhausted;
    for (const auto& ru : d->rus)
      c.pool_exhausted += ru->stats().pool_exhausted;
  }
  c.zero_copy += PacketPool::default_pool().replicas_zero_copy();
  c.cow += PacketPool::default_pool().cow_promotions();
  if (r.city)
    for (std::size_t i = 0; i < r.city->num_xlinks(); ++i) {
      const city::XLink& x = r.city->xlink(i);
      c.failed += x.dropped_ab + x.dropped_ba;
      c.xlink_frames += x.forwarded_ab + x.forwarded_ba;
    }
  return c;
}

double pool_arena_mib(const Rig& r) {
  std::size_t bytes = PacketPool::default_pool().arena_bytes();
  for (Deployment* d : r.shards())
    for (const auto& rt : d->runtimes) bytes += rt->pool().arena_bytes();
  return double(bytes) / (1024.0 * 1024.0);
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f))
    if (std::strncmp(line, "VmHWM:", 6) == 0)
      kib = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kib / 1024.0;
}

// --------------------------------------------------------------------------
// Statistics and output
// --------------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / double(v.size());
}

/// Cell-slots per second of CPU time over whole TDD periods.
double cell_slots_per_s(const std::vector<double>& slot_us, int cells) {
  const double us = mean(slot_us);
  return us > 0 ? double(cells) * 1e6 / us : 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    o += ch;
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --------------------------------------------------------------------------
// Run
// --------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setups = 5;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::strcmp(v, "1") == 0;
    else if (k == "--setups") a.setups = std::max(1, std::atoi(v));
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds >= 0;
}

/// One measured chunk of consecutive slots.
struct Chunk {
  bool traced = false;
  double p50_us = 0, p99_us = 0;  // of the chunk's slot CPU times
  std::uint64_t frames = 0;  // offered to middleboxes during the chunk
};

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads)
    if (args.workload == w.name) spec = &w;
  if (!spec) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::vector<std::string> violations;

  // Setup: build + attach + warm-up, repeated; the last rig is measured.
  std::unique_ptr<Rig> rig;
  std::vector<double> setup_s;
  bool attached = true;
  for (int i = 0; i < args.setups; ++i) {
    rig.reset();
    const std::int64_t t0 = cpu_ns();
    rig = spec->build(args.seed, args.trace);
    const bool ok = rig->attach(spec->attach_slots);
    for (int s = 0; s < kWarmupSlots; ++s) rig->run_slot();
    setup_s.push_back(double(cpu_ns() - t0) * 1e-9);
    attached = attached && ok;
  }
  if (!attached) violations.push_back("not every UE attached during setup");

  // Check window: goodput and fingerprint depend only on the seed.
  const Counters c0 = read_counters(*rig);
  rig->measure(kCheckSlots);
  const Counters c1 = read_counters(*rig);
  const std::uint64_t dl_bits = rig->dl_bits(), ul_bits = rig->ul_bits();
  const double window_ns =
      double(kCheckSlots) * double(slot_duration_ns(Scs::kHz30));
  const double dl_mbps = double(dl_bits) * 1000.0 / window_ns;
  const double ul_mbps = double(ul_bits) * 1000.0 / window_ns;
  const std::string fp = fingerprint_hex(*rig);
  if (!rig->all_attached())
    violations.push_back("a UE detached during the check window");
  if (!(dl_mbps > 0) || !(ul_mbps > 0))
    violations.push_back("zero DL or UL goodput in the check window");

  // Timed region.
  const bool timed = args.seconds > 0;
  const int n_chunks = args.trace ? 20 : 10;
  const std::int64_t chunk_ns =
      std::int64_t(args.seconds * 1e9 / double(n_chunks));
  std::vector<Chunk> chunks;
  std::vector<double> slot_us, traced_slot_us, dl_slot_us, ul_slot_us;
  std::vector<double> conductor_ns;
  std::int64_t city_job_ns = 0, city_job_max_ns = 0, city_jobs = 0;
  std::int64_t traced_wall_ns = 0, traced_slots = 0;
  const TddPattern& tdd = rig->tdd();
  const std::int64_t period = std::int64_t(tdd.slots.size());
  // Chunks start and end on TDD period boundaries.
  while (timed && rig->slot() % period != 0) rig->run_slot();
  for (int ci = 0; timed && ci < n_chunks; ++ci) {
    Chunk ch;
    ch.traced = args.trace && ci % 2 == 1;
    rig->set_tracing(ch.traced);
    const std::uint64_t f0 = read_counters(*rig).offered;
    const std::size_t first = slot_us.size();
    const std::int64_t start = now_ns();
    std::int64_t t = start, c = cpu_ns();
    while (t - start < chunk_ns || rig->slot() % period != 0) {
      const bool ul = tdd.type_at(rig->slot()) == SlotType::Uplink;
      const std::int64_t s0 = t, c0 = c;
      rig->run_slot();
      c = cpu_ns();
      t = now_ns();
      const std::int64_t wall = t - s0;
      const double cpu_us = double(c - c0) * 1e-3;
      if (!ch.traced) {
        slot_us.push_back(cpu_us);
        (ul ? ul_slot_us : dl_slot_us).push_back(cpu_us);
        continue;
      }
      traced_slot_us.push_back(cpu_us);
      traced_wall_ns += wall;
      ++traced_slots;
      if (rig->city) {
        std::int64_t sum = 0;
        for (std::size_t i = 0; i < rig->city->num_cells(); ++i) {
          const std::int64_t j = rig->city->cell(i).last_job_ns;
          sum += j;
          city_job_max_ns = std::max(city_job_max_ns, j);
          ++city_jobs;
        }
        city_job_ns += sum;
        conductor_ns.push_back(double(wall - sum));
      } else {
        conductor_ns.push_back(double(wall - rig->tracers[0]->last_job_ns));
      }
    }
    if (!ch.traced) {
      const std::vector<double> w(slot_us.begin() + std::ptrdiff_t(first),
                                  slot_us.end());
      ch.p50_us = quantile(w, 0.50);
      ch.p99_us = quantile(w, 0.99);
    }
    ch.frames = read_counters(*rig).offered - f0;
    chunks.push_back(ch);
  }
  rig->set_tracing(false);
  const Counters c2 = read_counters(*rig);
  if (!rig->all_attached())
    violations.push_back("a UE detached during the timed region");
  if (c2.pool_exhausted != 0)
    violations.push_back("a packet pool was exhausted");

  std::int64_t traced_frames = 0;
  std::vector<double> p50s, p99s;
  for (const Chunk& ch : chunks) {
    if (ch.traced) {
      traced_frames += std::int64_t(ch.frames);
    } else {
      p50s.push_back(ch.p50_us);
      p99s.push_back(ch.p99_us);
    }
  }
  const double rate = cell_slots_per_s(slot_us, rig->cells);

  // Means, not medians, over slots and chunks: the shared host switches
  // between a fast and a slow state (a neighbour's load on the cache or
  // core) for tens of seconds at a time, about 1.4x apart for rushare_2du
  // and city16. A mean blends a run that straddles both; a median flips.
  std::vector<Metric> m;
  if (timed && !args.trace) {
    m.push_back({"cell_slots_per_s", rate, "1/s"});
    m.push_back({"slot_us_p50", mean(p50s), "us"});
    m.push_back({"slot_us_p99", mean(p99s), "us"});
    m.push_back({"dl_mbps", dl_mbps, "Mbps"});
    m.push_back({"ul_mbps", ul_mbps, "Mbps"});
    m.push_back({"setup_s", median(setup_s), "s"});
    m.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
    const double offered = double(c2.offered - c0.offered);
    m.push_back({"frame_ok_share",
                 offered > 0 ? 1.0 - double(c2.failed - c0.failed) / offered
                             : 0.0,
                 "ratio"});
  } else if (timed) {
    std::array<double, SlotTracer::kNumSeg> seg{};
    double modeled = 0, job = 0, job_max = 0;
    std::uint64_t ok = 0, bad = 0;
    for (const auto& t : rig->tracers) {
      for (std::size_t s = 0; s < SlotTracer::kNumSeg; ++s)
        seg[s] += double(t->seg_ns[s]);
      modeled += t->modeled_ns;
      job += double(t->job_ns);
      job_max = std::max(job_max, double(t->job_max_ns));
      ok += t->slots_ok;
      bad += t->slots_bad;
    }
    double seg_total = 0;
    for (double v : seg) seg_total += v;
    const double n = double(std::max<std::int64_t>(1, traced_slots));
    const double per_slot_us = 1e-3 / n;
    const double pump = seg[SlotTracer::kDlPump] + seg[SlotTracer::kUlPump];
    // Host time the segments should explain: the slot wall for one
    // engine, the sum of the cell jobs for a City.
    const double host =
        rig->city ? double(city_job_ns) : double(traced_wall_ns);
    const double coverage = host > 0 ? seg_total / host : 0.0;
    const double frames = double(c1.offered - c0.offered) / kCheckSlots;
    const double rate_on = cell_slots_per_s(traced_slot_us, rig->cells);
    if (bad > 0 || ok == 0)
      violations.push_back("traced slots with an unrecognised phase order: " +
                           std::to_string(bad) + " of " +
                           std::to_string(ok + bad));
    if (coverage < kMinCoverage)
      violations.push_back("trace coverage below the bound");
    constexpr const char* kSegNames[SlotTracer::kNumSeg] = {
        "sim.traffic_us", "ran.du_tx_us",  "mb.dl_pump_us",
        "ran.ru_air_us",  "mb.ul_pump_us", "ran.du_rx_us"};
    for (std::size_t i = 0; i < SlotTracer::kNumSeg; ++i)
      m.push_back({kSegNames[i], seg[i] * per_slot_us, "us"});
    m.push_back({"mb.frames", frames, "frames/slot"});
    m.push_back({"mb.ns_per_frame",
                 traced_frames > 0 ? pump / double(traced_frames) : 0.0,
                 "ns/frame"});
    m.push_back({"mb.sut_share", host > 0 ? pump / host : 0.0, "ratio"});
    m.push_back({"mb.modeled_us", modeled * per_slot_us, "us"});
    m.push_back({"iq.merges", double(c1.merges - c0.merges), "count"});
    m.push_back({"mb.replicas", double(c1.replicas - c0.replicas), "count"});
    m.push_back({"mb.cache_ops", double(c1.cache_ops - c0.cache_ops), "count"});
    m.push_back({"net.zero_copy_share",
                 c1.replicas > c0.replicas
                     ? double(c1.zero_copy - c0.zero_copy) /
                           double(c1.replicas - c0.replicas)
                     : 0.0,
                 "ratio"});
    m.push_back({"net.cow_promotions", double(c1.cow - c0.cow), "count"});
    m.push_back({"net.pool_arena_mib", pool_arena_mib(*rig), "MiB"});
    if (rig->city) {
      m.push_back({"city.job_us_mean",
                   double(city_job_ns) * 1e-3 /
                       double(std::max<std::int64_t>(1, city_jobs)),
                   "us"});
      m.push_back({"city.job_us_max", double(city_job_max_ns) * 1e-3, "us"});
    } else {
      m.push_back({"city.job_us_mean", job * per_slot_us, "us"});
      m.push_back({"city.job_us_max", job_max * 1e-3, "us"});
    }
    m.push_back({"city.conductor_us", median(conductor_ns) * 1e-3, "us"});
    m.push_back({"city.xlink_frames",
                 double(c1.xlink_frames - c0.xlink_frames), "count"});
    m.push_back({"slot.dl_us_p50", quantile(dl_slot_us, 0.5), "us"});
    m.push_back({"slot.ul_us_p50", quantile(ul_slot_us, 0.5), "us"});
    m.push_back({"trace.overhead_pct",
                 rate > 0 ? 100.0 * (rate - rate_on) / rate : 0.0,
                 "%"});
    m.push_back({"trace.coverage", coverage, "ratio"});
  }

  // Human-readable table, then the result line for run.py.
  std::printf("# %s seed=%" PRIu64 " trace=%d: %zu setups, %d check slots, "
              "%zu chunks\n",
              spec->name, args.seed, int(args.trace), setup_s.size(),
              kCheckSlots, chunks.size());
  for (const Metric& x : m)
    std::printf("#   %-22s %14.4f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  for (const std::string& v : violations)
    std::fprintf(stderr, "perfbench: %s\n", v.c_str());

  const double offered = double(c2.offered - c0.offered);
  std::string out = "{\"correct\": ";
  out += violations.empty() ? "true" : "false";
  out += ", \"attempted\": " +
         std::to_string(std::uint64_t(std::max(1.0, offered)));
  out += ", \"failed\": " + std::to_string(c2.failed - c0.failed);
  out += ", \"dl_bits\": " + std::to_string(dl_bits);
  out += ", \"ul_bits\": " + std::to_string(ul_bits);
  out += ", \"fingerprint\": " + json_str(fp);
  out += ", \"host\": {\"nproc\": " + std::to_string(host_cpus());
  out += ", \"iq_kernel_tier\": " +
         json_str(kernel_tier_name(iq_kernel_tier()));
  out += ", \"build_type\": " + json_str(PB_BUILD_TYPE);
  out += ", \"compiler\": " + json_str(PB_COMPILER);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"links\": " + json_str("in-process simulated links (no NIC)");
  out += "}, \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i) out += ", ";
    out += json_str(m[i].name) + ": {\"value\": " + json_num(m[i].value) +
           ", \"unit\": " + json_str(m[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace rb::perfbench

int main(int argc, char** argv) {
  rb::perfbench::Args args;
  if (!rb::perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--setups <k>]\n");
    return 2;
  }
  return rb::perfbench::run(args);
}
