// Closed-loop adaptation payoff (ISSUE 6): UL throughput of a 3-floor DAS
// cell whose floor-0 fronthaul degrades in phases - healthy, lossy, then
// delay-collapsed past the DU latency budget - with a static configuration
// vs the src/ctrl adaptation controller in the loop. In the collapsed
// phase every combine waits for the poisoned link's copy and lands late,
// so the static cell's uplink dies cell-wide; the controller ejects the
// member and keeps the other floors flowing. Gate: adaptive >= 1.3x static
// UL in the degraded phases. Controller decision latency is traced through
// the obs layer (ctrl.decide spans) and reported from the ctrlstats
// watermarks. Results land in BENCH_ctrl_adapt.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/ctrl_stats.h"
#include "net/fault.h"
#include "obs/export.h"
#include "obs/obs.h"

namespace rb {
namespace {

constexpr int kFloors = 3;
constexpr int kSettleSlots = 200;
constexpr int kMeasureSlots = 300;

struct PhasePlan {
  const char* label;
  FaultPlan ul;  // applied to floor 0's uplink at the phase boundary
};

std::vector<PhasePlan> phases() {
  PhasePlan healthy{"healthy", {}};

  PhasePlan lossy{"lossy", {}};
  lossy.ul.loss = 0.03;        // past loss_reduce (1.5%): width rung
  lossy.ul.jitter_ns = 12'000; // under the 25us ejection threshold
  lossy.ul.seed = 0xc1;

  PhasePlan collapsed{"collapsed", {}};
  collapsed.ul.delay_ns = 40'000;  // every packet past the 30us DU budget
  collapsed.ul.jitter_ns = 25'000;
  collapsed.ul.seed = 0xc2;

  PhasePlan healed{"healed", {}};
  return {healthy, lossy, collapsed, healed};
}

struct Result {
  std::vector<double> ul_mbps;  // per phase, summed over UEs
  std::uint64_t actions = 0;
  std::string final_dump;
};

Result run(bool adaptive) {
  Deployment d;
  CellConfig c = bench::cell_cfg(MHz(100), kBand78Center, 1);
  auto du = d.add_du(c, srsran_profile(), 0);
  std::vector<Deployment::RuHandle> rus;
  std::vector<Deployment::RuHandle*> ptrs;
  for (int f = 0; f < kFloors; ++f)
    rus.push_back(d.add_ru(
        bench::ru_site(d.plan.ru_position(f, 1), 4, MHz(100), c.center_freq),
        std::uint8_t(f), du.du->fh()));
  for (auto& r : rus) ptrs.push_back(&r);
  auto& rt = d.add_das(du, ptrs, DriverKind::Dpdk, 2);
  std::vector<UeId> ues;
  for (int f = 0; f < kFloors; ++f)
    ues.push_back(d.add_ue(d.plan.near_ru(f, 1, 4.0), &du, 150.0, 15.0));
  if (!d.attach_all(600)) {
    std::fprintf(stderr, "attach failed\n");
    std::exit(2);
  }

  auto& link = d.add_fault(*rus[0].port, FaultPlan{}, FaultPlan{}, "floor0");
  ctrl::AdaptationController* c0 = nullptr;
  if (adaptive) {
    c0 = &d.add_controller();
    d.ctrl_watch(*c0, link, rt, rus[0]);
  }

  Result res;
  for (const PhasePlan& ph : phases()) {
    link.set_plan_ab(ph.ul);
    d.engine.run_slots(kSettleSlots);  // EWMA convergence + hold + dwell
    d.measure(kMeasureSlots);
    double ul = 0;
    for (UeId ue : ues) ul += d.ul_mbps(ue);
    res.ul_mbps.push_back(ul);
    bench::row("  %-10s %-9s ul=%7.2f Mbps%s%s", adaptive ? "adaptive" : "static",
               ph.label, ul,
               c0 && c0->mode(0) == ctrl::AdaptationController::LinkMode::Ejected
                   ? "  [floor0 ejected]"
                   : "",
               c0 && c0->mode(0) ==
                       ctrl::AdaptationController::LinkMode::WidthReduced
                   ? "  [floor0 width-reduced]"
                   : "");
  }
  if (c0) {
    res.actions = c0->actions_applied();
    res.final_dump = c0->dump();
  }
  return res;
}

}  // namespace
}  // namespace rb

int main() {
  using namespace rb;

  bench::header("Closed-loop fronthaul adaptation: static vs controller",
                "ISSUE 6 bench_ctrl_adapt (src/ctrl)");
  bench::row("%d-floor DAS cell; floor 0 uplink degrades in phases "
             "(%d settle + %d measured slots each)",
             kFloors, kSettleSlots, kMeasureSlots);
  bench::row("");

  const Result st = run(/*adaptive=*/false);
  bench::row("");

  // Trace the adaptive run: ctrl.decide spans feed the per-track latency
  // histogram, so decision latency is queryable from the obs exporters.
  obs::Collector::instance().start();
  const Result ad = run(/*adaptive=*/true);
  obs::Collector::instance().stop();
  const std::string prom = obs::prometheus_text(obs::Collector::instance());
  const bool traced = prom.find("ctrl") != std::string::npos;

  const auto decisions = ctrlstats::decisions_total().load();
  const double mean_ns =
      decisions ? double(ctrlstats::decision_ns_sum().load()) / double(decisions)
                : 0.0;
  const auto hwm_ns = ctrlstats::decision_ns_hwm().load();

  bench::row("");
  bench::row("%-10s %10s %10s %10s %10s", "run", "healthy", "lossy",
             "collapsed", "healed");
  const auto line = [](const char* label, const Result& r) {
    bench::row("%-10s %10.2f %10.2f %10.2f %10.2f", label, r.ul_mbps[0],
               r.ul_mbps[1], r.ul_mbps[2], r.ul_mbps[3]);
  };
  line("static", st);
  line("adaptive", ad);

  // Gate on the degraded phases combined: the collapsed phase is where
  // ejection pays; the lossy phase must at least not regress.
  const double st_deg = st.ul_mbps[1] + st.ul_mbps[2];
  const double ad_deg = ad.ul_mbps[1] + ad.ul_mbps[2];
  const double ratio = st_deg > 0 ? ad_deg / st_deg : 99.0;
  const bool gate = ad_deg >= 1.3 * st_deg && ad.ul_mbps[2] > 1.0;
  bench::row("");
  bench::row("degraded-phase UL: adaptive %.2f vs static %.2f Mbps "
             "(%.2fx, need >= 1.30x): %s",
             ad_deg, st_deg, ratio, gate ? "PASS" : "FAIL");
  bench::row("controller: %llu actions, %llu decisions, mean %.0f ns, "
             "hwm %llu ns, obs-traced: %s",
             static_cast<unsigned long long>(ad.actions),
             static_cast<unsigned long long>(decisions), mean_ns,
             static_cast<unsigned long long>(hwm_ns), traced ? "yes" : "NO");

  std::FILE* f = std::fopen("BENCH_ctrl_adapt.json", "w");
  if (f) {
    std::fprintf(f, "{\n  \"floors\": %d,\n  \"measure_slots\": %d,\n",
                 kFloors, kMeasureSlots);
    const char* names[] = {"healthy", "lossy", "collapsed", "healed"};
    for (int a = 0; a < 2; ++a) {
      const Result& r = a ? ad : st;
      std::fprintf(f, "  \"%s\": {", a ? "adaptive" : "static");
      for (int i = 0; i < 4; ++i)
        std::fprintf(f, "\"%s_ul_mbps\": %.2f%s", names[i], r.ul_mbps[i],
                     i < 3 ? ", " : "");
      std::fprintf(f, "},\n");
    }
    std::fprintf(f,
                 "  \"degraded_ratio\": %.3f,\n  \"actions\": %llu,\n"
                 "  \"decisions\": %llu,\n  \"decision_mean_ns\": %.0f,\n"
                 "  \"decision_hwm_ns\": %llu,\n  \"obs_traced\": %s,\n"
                 "  \"gate_1p3x\": %s\n}\n",
                 ratio, static_cast<unsigned long long>(ad.actions),
                 static_cast<unsigned long long>(decisions), mean_ns,
                 static_cast<unsigned long long>(hwm_ns),
                 traced ? "true" : "false", gate ? "true" : "false");
    std::fclose(f);
    bench::row("wrote BENCH_ctrl_adapt.json");
  }
  return gate ? 0 : 1;
}
