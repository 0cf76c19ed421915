// Figure 15b: per-packet processing latency of the DPDK DAS middlebox by
// traffic type (DL C-plane, DL U-plane, UL U-plane) for 2/3/4 RUs.
//
// Two views are reported:
//  * the calibrated cost model the deadline logic runs on (comparable to
//    the paper's FlexRAN-grade testbed: DL < 300 ns; UL bimodal with
//    merges at 4-6 us growing with the RU count), and
//  * real wall-clock timings of this library's BFP merge on the kernel
//    tier the host dispatches to (named in the output), for honesty about
//    the implementation's own speed.
#include <algorithm>
#include <chrono>

#include "bench_util.h"

#include "iq/kernels/kernels.h"
#include "iq/prb.h"

namespace rb::bench {
namespace {

struct Dist {
  std::vector<double> v;
  void add(double x) { v.push_back(x); }
  double pct(double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t i =
        std::min(v.size() - 1, std::size_t(p * double(v.size())));
    return v[i];
  }
};

void run(int n_rus, Dist* dl_c, Dist* dl_u, Dist* ul_u) {
  Deployment d;
  auto du = d.add_du(cell_cfg(MHz(100), kBand78Center, 1), srsran_profile(), 0);
  std::vector<Deployment::RuHandle> rus;
  std::vector<Deployment::RuHandle*> ptrs;
  for (int i = 0; i < n_rus; ++i)
    rus.push_back(d.add_ru(
        ru_site(d.plan.near_ru(0, 1, i * 3.0), 4, MHz(100), kBand78Center),
        std::uint8_t(i), du.du->fh()));
  for (auto& r : rus) ptrs.push_back(&r);
  auto& rt = d.add_das(du, ptrs, DriverKind::Dpdk, 2);
  rt.set_cost_sampler([&](const FhFrame* f, double cost_ns) {
    if (!f) return;
    if (f->is_cplane()) {
      if (f->direction() == Direction::Downlink) dl_c->add(cost_ns);
    } else if (f->direction() == Direction::Downlink) {
      dl_u->add(cost_ns);
    } else {
      ul_u->add(cost_ns);
    }
  });
  d.add_ue(d.plan.near_ru(0, 1, 4.0), &du, 1200, 100);
  d.attach_all(600);
  d.measure(200);
}

/// Real wall-clock timing of the dispatched merge kernel at 273 PRBs.
double real_merge_us(int n_rus) {
  const CompConfig cfg{CompMethod::BlockFloatingPoint, 9};
  const int n_prb = 273;
  std::vector<IqSample> samples(std::size_t(n_prb) * kScPerPrb);
  std::uint32_t rng = 7;
  for (auto& s : samples) {
    rng = rng * 1664525u + 1013904223u;
    s.i = std::int16_t(rng >> 18);
    rng = rng * 1664525u + 1013904223u;
    s.q = std::int16_t(rng >> 18);
  }
  std::vector<std::uint8_t> comp(cfg.prb_bytes() * std::size_t(n_prb));
  compress_prbs(IqConstSpan(samples.data(), samples.size()), cfg, comp);
  const std::vector<std::span<const std::uint8_t>> srcs(
      std::size_t(n_rus), std::span<const std::uint8_t>{comp});
  const std::vector<CompConfig> cfgs(std::size_t(n_rus), cfg);
  std::vector<std::uint8_t> dst(comp.size());
  PrbScratch scratch;
  const int iters = 50;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i)
    merge_compressed(srcs, cfgs, n_prb, cfg, dst, scratch);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / iters;
}

}  // namespace
}  // namespace rb::bench

int main() {
  using namespace rb::bench;
  header("Figure 15b - per-packet DAS processing latency by traffic type",
         "SIGCOMM'25 RANBooster section 6.4.1, Figure 15b");
  row("%-6s %-14s %10s %10s %10s", "RUs", "traffic type", "p50 (us)",
      "p75 (us)", "p99 (us)");
  for (int n : {2, 3, 4}) {
    Dist dl_c, dl_u, ul_u;
    run(n, &dl_c, &dl_u, &ul_u);
    // DL handlers replicate to all N RUs in one invocation; the paper
    // plots per-packet cost, so DL is reported per forwarded replica.
    const double dn = double(n);
    row("%-6d %-14s %10.3f %10.3f %10.3f", n, "DL C-plane",
        dl_c.pct(0.50) / 1e3 / dn, dl_c.pct(0.75) / 1e3 / dn,
        dl_c.pct(0.99) / 1e3 / dn);
    row("%-6d %-14s %10.3f %10.3f %10.3f", n, "DL U-plane",
        dl_u.pct(0.50) / 1e3 / dn, dl_u.pct(0.75) / 1e3 / dn,
        dl_u.pct(0.99) / 1e3 / dn);
    row("%-6d %-14s %10.3f %10.3f %10.3f", n, "UL U-plane",
        ul_u.pct(0.50) / 1e3, ul_u.pct(0.75) / 1e3, ul_u.pct(0.99) / 1e3);
  }
  row("paper shape: DL < 0.3 us; UL bimodal - ~75%% cheap cache ops, the "
      "rest 4-6 us merges growing with the RU count");
  row("");
  row("real BFP merge on this machine, %s kernel tier (273 PRBs, W=9):",
      rb::kernel_tier_name(rb::iq_kernel_tier()));
  for (int n : {2, 3, 4, 5})
    row("  %d RUs: %8.1f us per merge", n, real_merge_us(n));
  row("(the cost model above is calibrated to the testbed's AVX-512 "
      "FlexRAN-grade kernels, not to this host)");
  return 0;
}
