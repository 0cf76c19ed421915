// Figure 12: chaining the RU-sharing and DAS middleboxes to host two
// mobile network operators (40 MHz each) over the same four shared
// 100 MHz RUs with seamless floor coverage (~350 Mbps per MNO UE). The
// chain itself is bench::Fig12Chain (bench_util.h).
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "iq/kernels/kernels.h"

int main() {
  using namespace rb::bench;
  header("Figure 12 - RU sharing + DAS chain: two MNOs, seamless coverage",
         "SIGCOMM'25 RANBooster section 6.3.2, Figure 12");
  Fig12Chain rig;
  const bool attached = rig.d.attach_all(900);
  row("both MNO UEs attached through the chain: %s",
      attached ? "yes" : "NO");
  // Walk both UEs across the floor, measuring at each point.
  const auto route = rig.d.plan.walk_route(0, 8, 2);
  double mean_a = 0, mean_b = 0;
  row("%8s %8s | %12s %12s", "x (m)", "y (m)", "MNO-A Mbps", "MNO-B Mbps");
  for (const auto& pos : route) {
    rig.d.air.set_ue_position(rig.ue_a, pos);
    rb::Position pb = pos;
    pb.y = rig.d.plan.depth_m - pos.y;
    rig.d.air.set_ue_position(rig.ue_b, pb);
    rig.d.engine.run_slots(80);
    rig.d.measure(160);
    const double a = rig.d.dl_mbps(rig.ue_a);
    const double b = rig.d.dl_mbps(rig.ue_b);
    row("%8.1f %8.1f | %12.1f %12.1f", pos.x, pos.y, a, b);
    mean_a += a / double(route.size());
    mean_b += b / double(route.size());
  }
  row("mean across floor: MNO-A %.1f Mbps, MNO-B %.1f Mbps "
      "(paper: ~350 Mbps each)", mean_a, mean_b);
  row("chain stats: rushare muxed=%llu, das merges=%llu, pcie-style hops "
      "traversed by every frame",
      (unsigned long long)rig.rushare_rt->telemetry().counter(
          "rushare_dl_muxed"),
      (unsigned long long)rig.das_rt->telemetry().counter("das_merges"));

  // Per-kernel-tier chain throughput: the same loaded chain pumped under
  // each available IQ kernel tier (the A4 codec + combine dominate the
  // slot budget, so the dispatch tier shows up directly in wall time).
  const rb::KernelTier active = rb::iq_kernel_tier();
  row("iq kernel dispatch: active=%s", rb::kernel_tier_name(active));
  std::vector<std::pair<const char*, double>> tier_sps;
  for (std::size_t t = 0; t < rb::kKernelTierCount; ++t) {
    const auto tier = rb::KernelTier(t);
    if (!rb::iq_tier_available(tier)) continue;
    rb::iq_force_tier(tier);
    rig.d.engine.run_slots(20);  // warm the tier's code paths
    const auto t0 = std::chrono::steady_clock::now();
    rig.d.engine.run_slots(160);
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    row("  tier %-6s : %8.1f slots/s wall", rb::kernel_tier_name(tier),
        160.0 / dt);
    tier_sps.emplace_back(rb::kernel_tier_name(tier), 160.0 / dt);
  }
  rb::iq_force_tier(active);

  // CI artifact: chain slots/s per kernel tier plus coverage means. The
  // perf-smoke job diffs this against a committed pre-change baseline
  // (docs/EXPERIMENTS.md records the measured reference numbers).
  if (std::FILE* f = std::fopen("BENCH_fig12_chain.json", "w")) {
    std::fprintf(f, "{\n  \"slots_per_s\": {");
    bool first = true;
    for (const auto& [name, sps] : tier_sps) {
      std::fprintf(f, "%s\"%s\": %.1f", first ? "" : ", ", name, sps);
      first = false;
    }
    std::fprintf(f, "},\n");
    std::fprintf(f, "  \"active_tier\": \"%s\",\n",
                 rb::kernel_tier_name(active));
    std::fprintf(f, "  \"attached\": %s,\n", attached ? "true" : "false");
    std::fprintf(f,
                 "  \"mean_mbps\": {\"mno_a\": %.1f, \"mno_b\": %.1f}\n",
                 mean_a, mean_b);
    std::fprintf(f, "}\n");
    std::fclose(f);
    row("wrote BENCH_fig12_chain.json");
  }
  return 0;
}
