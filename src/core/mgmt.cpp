#include "core/mgmt.h"

#include <sstream>

#include "common/iq_stats.h"
#include "iq/kernels/kernels.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "state/serialize.h"

namespace rb {
namespace {

/// Registered core verbs, in help order. Anything not listed here is
/// forwarded to the application's on_mgmt.
struct VerbInfo {
  const char* name;
  const char* help;
};
constexpr VerbInfo kVerbs[] = {
    {"help", "list registered verbs"},
    {"stats", "dump all telemetry counters and gauges"},
    {"name", "middlebox instance name"},
    {"counter", "counter <key>: one telemetry counter"},
    {"gauge", "gauge <key>: one telemetry gauge"},
    {"cpuinfo", "IQ kernel dispatch tier + datapath arena/pool report"},
    {"prom", "Prometheus rendering of this middlebox's telemetry"},
    {"ctrl", "ctrl <cmd>: adaptation controller (status|links|auto|force)"},
    {"obs", "obs <cmd>: observability (trace|prom|csv|stats|start|stop)"},
    {"state", "state <save|load <hex>|info>: runtime checkpoint blob"},
    {"reconfig", "reconfig <cmd>: live reconfiguration (status|pending|log)"},
    {"city", "city <cmd>: conductor (list|budget|rings|cell <name> <verb>)"},
};

std::string hex_encode(const std::vector<std::uint8_t>& blob) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(blob.size() * 2);
  for (std::uint8_t b : blob) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool hex_decode(const std::string& s, std::vector<std::uint8_t>& out) {
  if (s.size() % 2 != 0) return false;
  out.clear();
  out.reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    const int hi = hex_nibble(s[i]), lo = hex_nibble(s[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out.push_back(std::uint8_t((hi << 4) | lo));
  }
  return true;
}

}  // namespace

std::string MgmtEndpoint::verb_list() {
  std::string out;
  for (const VerbInfo& v : kVerbs) {
    if (!out.empty()) out += " ";
    out += v.name;
  }
  return out;
}

std::string MgmtEndpoint::handle(const std::string& cmd) {
  std::istringstream is(cmd);
  std::string verb;
  is >> verb;
  if (verb == "help") {
    std::ostringstream os;
    os << "verbs:\n";
    for (const VerbInfo& v : kVerbs)
      os << "  " << v.name << " - " << v.help << "\n";
    os << "anything else is forwarded to the app ("
       << rt_->app().name() << ")\n";
    return os.str();
  }
  if (verb == "stats") {
    return rt_->telemetry().dump();
  }
  if (verb == "name") {
    return rt_->config().name;
  }
  if (verb == "counter") {
    std::string key;
    is >> key;
    return std::to_string(rt_->telemetry().counter(key));
  }
  if (verb == "gauge") {
    std::string key;
    is >> key;
    return std::to_string(rt_->telemetry().gauge(key));
  }
  if (verb == "cpuinfo") {
    // IQ kernel dispatch + datapath arena report. Forces tier selection
    // so a pre-traffic query still answers.
    std::ostringstream os;
    os << "iq_kernel=" << kernel_tier_name(iq_kernel_tier()) << "\n";
    os << "iq_kernel_available=";
    bool first = true;
    for (std::size_t t = 0; t < kKernelTierCount; ++t) {
      if (!iq_tier_available(KernelTier(t))) continue;
      os << (first ? "" : ",") << kernel_tier_name(KernelTier(t));
      first = false;
    }
    os << "\n";
    os << "arena_samples_hwm=" << iqstats::arena_samples_hwm().load() << "\n";
    os << "arena_batch_hwm=" << iqstats::arena_batch_hwm().load() << "\n";
    os << "arena_copies_hwm=" << iqstats::arena_copies_hwm().load() << "\n";
    os << "arena_srcs_hwm=" << iqstats::arena_srcs_hwm().load() << "\n";
    os << "pool_in_use=" << rt_->pool().in_use() << "\n";
    os << "pool_capacity=" << rt_->pool().capacity() << "\n";
    os << "pool_alloc_failures=" << rt_->pool().alloc_failures() << "\n";
    os << "pool_arena_bytes=" << rt_->pool().arena_bytes() << "\n";
    return os.str();
  }
  if (verb == "prom") {
    // Per-runtime Prometheus rendering: every counter and gauge of this
    // middlebox, labeled with its name. This is how cache pressure
    // (cache_evicted / cache_stale_dropped), failover hysteresis state
    // and controller actuation effects are scraped externally.
    const std::string mb = rt_->config().name;
    // City mode namespaces every series with the runtime's cell shard;
    // an empty label renders nothing, keeping single-cell output
    // byte-identical to pre-city builds.
    const std::string cl =
        rt_->config().cell.empty()
            ? std::string()
            : ",cell=\"" + rt_->config().cell + "\"";
    std::ostringstream os;
    os << "# TYPE rb_mb_counter counter\n";
    for (const auto& [k, v] : rt_->telemetry().counters())
      os << "rb_mb_counter{mb=\"" << mb << "\"" << cl << ",name=\"" << k
         << "\"} " << v << "\n";
    os << "# TYPE rb_mb_gauge gauge\n";
    for (const auto& [k, v] : rt_->telemetry().gauges())
      os << "rb_mb_gauge{mb=\"" << mb << "\"" << cl << ",name=\"" << k
         << "\"} " << v << "\n";
    // Burst-pipeline shape: packets drained per productive pump and
    // per-chunk descriptor occupancy, as native Prometheus histograms.
    const auto hist = [&](const char* name,
                          const MiddleboxRuntime::BurstHist& h) {
      os << "# TYPE " << name << " histogram\n";
      for (std::size_t i = 0; i < h.kLe.size(); ++i)
        os << name << "_bucket{mb=\"" << mb << "\"" << cl << ",le=\""
           << h.kLe[i] << "\"} " << h.bucket[i] << "\n";
      os << name << "_bucket{mb=\"" << mb << "\"" << cl << ",le=\"+Inf\"} "
         << h.count << "\n";
      os << name << "_sum{mb=\"" << mb << "\"" << cl << "} " << h.sum << "\n";
      os << name << "_count{mb=\"" << mb << "\"" << cl << "} " << h.count
         << "\n";
    };
    hist("rb_burst_size", rt_->burst_size_hist());
    hist("rb_burst_occupancy", rt_->burst_occupancy_hist());
    // Packet-pool arena size (scrape-only, outside the fingerprint).
    os << "# TYPE rb_pool_arena_bytes gauge\n";
    os << "rb_pool_arena_bytes{mb=\"" << mb << "\"" << cl << "} "
       << rt_->pool().arena_bytes() << "\n";
    return os.str();
  }
  if (verb == "ctrl") {
    if (!ctrl_) return "no controller attached";
    std::string rest;
    std::getline(is, rest);
    const std::size_t at = rest.find_first_not_of(' ');
    return ctrl_->ctrl_mgmt(at == std::string::npos ? "" : rest.substr(at));
  }
  if (verb == "city") {
    if (!city_) return "no city conductor attached";
    std::string rest;
    std::getline(is, rest);
    const std::size_t at = rest.find_first_not_of(' ');
    return city_->city_mgmt(at == std::string::npos ? "" : rest.substr(at));
  }
  if (verb == "reconfig") {
    if (!reconfig_) return "no reconfig manager attached";
    std::string rest;
    std::getline(is, rest);
    const std::size_t at = rest.find_first_not_of(' ');
    return reconfig_->reconfig_mgmt(at == std::string::npos ? ""
                                                            : rest.substr(at));
  }
  if (verb == "state") {
    // Checkpoint surface of this one runtime (telemetry, cache, app
    // state) as a single-section state blob, hex-encoded for transport
    // over the text endpoint. Whole-deployment checkpoints live in
    // src/sim (rb::checkpoint / rb::restore).
    std::string what;
    is >> what;
    if (what == "save" || what == "info") {
      state::StateWriter w;
      w.begin_section(state::kSecRuntime, 1);
      rt_->save_state(w);
      w.end_section();
      const std::vector<std::uint8_t> blob = w.finish();
      if (what == "info")
        return "bytes=" + std::to_string(blob.size()) + " sections=1";
      return hex_encode(blob);
    }
    if (what == "load") {
      std::string hex;
      is >> hex;
      std::vector<std::uint8_t> blob;
      if (!hex_decode(hex, blob)) return "error: not a hex blob";
      state::StateReader r(blob);
      state::SectionInfo info;
      if (!r.next_section(&info) || info.id != state::kSecRuntime)
        return std::string("error: ") +
               state::error_name(r.ok() ? state::StateError::kMismatch
                                        : r.error());
      if (info.version != 1)
        return std::string("error: ") +
               state::error_name(state::StateError::kBadVersion);
      rt_->load_state(r);
      r.skip_section();
      if (!r.ok()) return std::string("error: ") + state::error_name(r.error());
      return "ok";
    }
    return "usage: state save|load <hex>|info";
  }
  if (verb == "obs") {
    // Observability exporters: process-wide collector, queryable through
    // any middlebox's management endpoint.
    std::string what;
    is >> what;
    auto& col = obs::Collector::instance();
    if (what == "trace") return obs::chrome_trace_json(col);
    if (what == "prom") return obs::prometheus_text(col);
    if (what == "csv") return obs::budget_csv(col);
    if (what == "stats" || what.empty()) return obs::summary(col);
    if (what == "start") {
      col.start();
      return "ok";
    }
    if (what == "stop") {
      col.stop();
      return "ok";
    }
    return "unknown obs subcommand (trace|prom|csv|stats|start|stop)";
  }
  // Everything else goes to the application; if the app does not claim
  // the verb either, tell the operator what is available.
  const std::string resp = rt_->app().on_mgmt(cmd);
  if (resp == "unknown command")
    return "unknown verb '" + verb + "'; registered: " + verb_list() +
           " (plus " + rt_->app().name() + " app verbs; see help)";
  return resp;
}

}  // namespace rb
