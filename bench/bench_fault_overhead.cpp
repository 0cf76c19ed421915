// Fault-injection layer overhead: slots/sec of a DAS cell with (a) no
// FaultyLink attached, (b) an attached but all-zero (idle) plan - the
// hook is consulted on every send but draws nothing - and (c) an active
// mixed-fault plan. The idle case is the price every production-shaped
// run pays for keeping the layer compiled in; it must stay under 2%.
// Results land in BENCH_fault_overhead.json.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/fault.h"

namespace rb {
namespace {

constexpr int kFloors = 3;
constexpr int kWarmupSlots = 160;
constexpr int kMeasureSlots = 600;

enum class FaultMode { Detached, IdlePlan, ActivePlan };

struct Result {
  std::string label;
  double wall_ms = 0;
  double slots_per_s = 0;
  std::uint64_t perturbed = 0;
};

Result run_mode(const std::string& label, FaultMode mode) {
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
  d.add_das(du, ptrs, DriverKind::Dpdk, 2);
  for (int f = 0; f < kFloors; ++f)
    d.add_ue(d.plan.near_ru(f, 1, 4.0), &du, 150.0, 15.0);

  if (mode != FaultMode::Detached) {
    FaultPlan ul;  // uplink (RU -> middlebox) direction
    FaultPlan dl;
    if (mode == FaultMode::ActivePlan) {
      ul.loss = 0.01;
      ul.jitter_ns = 20000;
      dl.duplicate = 0.02;
      dl.corrupt = 0.01;
    }
    for (auto& r : rus) {
      ul.seed = 0xfa017u + std::uint64_t(r.index);
      d.add_fault(*r.port, ul, dl);
    }
  }

  d.engine.run_slots(kWarmupSlots);
  const auto t0 = std::chrono::steady_clock::now();
  d.engine.run_slots(kMeasureSlots);
  const auto t1 = std::chrono::steady_clock::now();

  Result r;
  r.label = label;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.slots_per_s = double(kMeasureSlots) * 1000.0 / r.wall_ms;
  for (const auto& f : d.faults) {
    const auto sum = [](const FaultStats& s) {
      return s.dropped() + s.delayed + s.duplicated + s.reordered +
             s.corrupted;
    };
    r.perturbed += sum(f->stats_ab()) + sum(f->stats_ba());
  }
  return r;
}

}  // namespace
}  // namespace rb

int main() {
  using namespace rb;

  bench::header("Fault-injection layer overhead",
                "robustness hardening (this repo's src/net fault layer)");
  bench::row("%d-floor DAS cell, %d measured slots", kFloors, kMeasureSlots);
  bench::row("");
  bench::row("%-10s %12s %12s %10s %12s", "mode", "wall ms", "slots/s",
             "overhead", "perturbed");

  // Median-of-three per mode: the comparison is against scheduler noise.
  const auto best = [](FaultMode mode, const std::string& label) {
    Result r = run_mode(label, mode);
    for (int i = 0; i < 2; ++i) {
      Result again = run_mode(label, mode);
      if (again.wall_ms < r.wall_ms) r = again;
    }
    return r;
  };
  const Result detached = best(FaultMode::Detached, "detached");
  const Result idle = best(FaultMode::IdlePlan, "idle");
  const Result active = best(FaultMode::ActivePlan, "active");

  const auto overhead = [&](const Result& r) {
    return (r.wall_ms - detached.wall_ms) / detached.wall_ms;
  };
  for (const Result* r : {&detached, &idle, &active})
    bench::row("%-10s %12.1f %12.1f %9.2f%% %12llu", r->label.c_str(),
               r->wall_ms, r->slots_per_s, overhead(*r) * 100.0,
               static_cast<unsigned long long>(r->perturbed));
  const bool idle_ok = overhead(idle) < 0.02;
  bench::row("");
  bench::row("idle overhead under 2%%: %s", idle_ok ? "yes" : "NO");

  std::FILE* f = std::fopen("BENCH_fault_overhead.json", "w");
  if (f) {
    std::fprintf(f, "{\n  \"floors\": %d,\n  \"measure_slots\": %d,\n",
                 kFloors, kMeasureSlots);
    std::fprintf(f, "  \"idle_overhead_ok\": %s,\n",
                 idle_ok ? "true" : "false");
    std::fprintf(f, "  \"runs\": [\n");
    const Result* rs[] = {&detached, &idle, &active};
    for (std::size_t i = 0; i < 3; ++i) {
      std::fprintf(f,
                   "    {\"mode\": \"%s\", \"wall_ms\": %.2f, "
                   "\"slots_per_s\": %.1f, \"overhead\": %.4f, "
                   "\"perturbed\": %llu}%s\n",
                   rs[i]->label.c_str(), rs[i]->wall_ms, rs[i]->slots_per_s,
                   overhead(*rs[i]),
                   static_cast<unsigned long long>(rs[i]->perturbed),
                   i + 1 < 3 ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    bench::row("wrote BENCH_fault_overhead.json");
  }
  return idle_ok ? 0 : 1;
}
