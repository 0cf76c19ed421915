// Test rigs shared by several suites. Each builds onto a caller-supplied
// Deployment, so a city conductor can stamp it into several cell shards
// and a suite can compare a serial conductor against a parallel one.
//
//  * DasChaosRig (chaos, checkpoint and controller suites): a 100 MHz DU,
//    three 4T4R floor RUs behind a DAS middlebox and one loaded UE per
//    floor, plus a seeded two-link fault cocktail.
//  * add_das5_cell / add_direct_cell (exec and obs suites): the DAS e2e
//    cell over five floor RUs, and an independent direct-wired cell.
//  * available_tiers / TierGuard (kernel and BFP suites): sweep the IQ
//    kernel tiers this CPU runs and restore the dispatched one afterwards.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "city/city.h"
#include "iq/kernels/kernels.h"
#include "sim/deployment.h"

namespace rb {

inline CellConfig cell100() {
  CellConfig c;
  c.bandwidth = MHz(100);
  c.max_layers = 4;
  c.pci = 1;
  return c;
}

struct DasChaosRig {
  std::unique_ptr<Deployment> owned;  // standalone rigs only
  Deployment& d;
  Deployment::DuHandle du;
  std::vector<Deployment::RuHandle> rus;
  MiddleboxRuntime* rt = nullptr;
  std::vector<UeId> ues;

  /// Standalone rig owning its deployment.
  DasChaosRig() : owned(std::make_unique<Deployment>()), d(*owned) {
    build();
  }
  /// Rig built into `dep`, e.g. a city cell shard.
  explicit DasChaosRig(Deployment& dep) : d(dep) { build(); }

  /// Mixed fault cocktail, all streams derived from one seed. Floor 0:
  /// light i.i.d. loss + jitter up, fixed extra latency down. Floor 1:
  /// bursty loss + reordering up, duplication + bit corruption down.
  /// Returns the two links; each link's A->B direction is the uplink.
  std::array<FaultyLink*, 2> add_chaos(std::uint64_t seed) {
    FaultPlan ul0;
    ul0.loss = 0.01;
    ul0.jitter_ns = 20'000;
    ul0.seed = seed ^ 0xa1;
    FaultPlan dl0;
    dl0.delay_ns = 10'000;
    dl0.seed = seed ^ 0xa2;
    FaultyLink& l0 = d.add_fault(*rus[0].port, ul0, dl0);

    FaultPlan ul1;
    ul1.ge_enter_bad = 0.004;
    ul1.ge_exit_bad = 0.25;
    ul1.ge_loss_bad = 0.5;
    ul1.reorder = 0.01;
    ul1.seed = seed ^ 0xb1;
    FaultPlan dl1;
    dl1.duplicate = 0.02;
    dl1.corrupt = 0.01;
    dl1.seed = seed ^ 0xb2;
    FaultyLink& l1 = d.add_fault(*rus[1].port, ul1, dl1);
    return {&l0, &l1};
  }

  /// Supervise the two chaos links with controller `c`.
  void watch(ctrl::AdaptationController& c,
             const std::array<FaultyLink*, 2>& links) {
    for (std::size_t i = 0; i < links.size(); ++i)
      d.ctrl_watch(c, *links[i], *rt, rus[i]);
  }

  double total_dl() const {
    double dl = 0;
    for (UeId ue : ues) dl += d.dl_mbps(ue);
    return dl;
  }
  double total_ul() const {
    double ul = 0;
    for (UeId ue : ues) ul += d.ul_mbps(ue);
    return ul;
  }

 private:
  void build() {
    du = d.add_du(cell100(), srsran_profile(), 0);
    std::vector<Deployment::RuHandle*> ptrs;
    for (int f = 0; f < 3; ++f) {
      RuSite site;
      site.pos = d.plan.ru_position(f, 1);
      site.n_antennas = 4;
      site.bandwidth = MHz(100);
      site.center_freq = du.du->config().cell.center_freq;
      rus.push_back(d.add_ru(site, std::uint8_t(f), du.du->fh()));
    }
    for (auto& r : rus) ptrs.push_back(&r);
    rt = &d.add_das(du, ptrs, DriverKind::Dpdk, 2);
    for (int f = 0; f < 3; ++f)
      ues.push_back(d.add_ue(d.plan.near_ru(f, 1, 5.0), &du, 150.0, 15.0));
  }
};

/// One 100 MHz cell over five DAS floor RUs with a loaded UE per floor;
/// optionally a delayed + lossy link ("obslink") to RU 0.
inline void add_das5_cell(Deployment& d, bool with_fault = false) {
  auto du = d.add_du(cell100(), srsran_profile(), 0);
  std::vector<Deployment::RuHandle> rus;
  std::vector<Deployment::RuHandle*> ptrs;
  for (int f = 0; f < 5; ++f) {
    RuSite site;
    site.pos = d.plan.ru_position(f, 1);
    site.n_antennas = 4;
    site.bandwidth = MHz(100);
    site.center_freq = du.du->config().cell.center_freq;
    rus.push_back(d.add_ru(site, std::uint8_t(f), du.du->fh()));
  }
  for (auto& r : rus) ptrs.push_back(&r);
  d.add_das(du, ptrs, DriverKind::Dpdk, 2);
  if (with_fault) {
    FaultPlan plan;
    plan.delay_ns = 4000;
    plan.jitter_ns = 2000;
    plan.loss = 0.02;
    plan.seed = 7;
    d.add_fault(*rus[0].port, plan, plan, "obslink");
  }
  for (int f = 0; f < 5; ++f)
    d.add_ue(d.plan.near_ru(f, 1, 4.0), &du, 200.0, 20.0);
}

/// An independent 100 MHz cell (PCI 2, 120 MHz above the DAS cell) wired
/// straight to one RU on floor 3, with one loaded UE.
inline void add_direct_cell(Deployment& d) {
  CellConfig c = cell100();
  c.pci = 2;
  c.center_freq += MHz(120);
  auto du = d.add_du(c, srsran_profile(), 1);
  RuSite site;
  site.pos = d.plan.ru_position(0, 3);
  site.n_antennas = 4;
  site.bandwidth = MHz(100);
  site.center_freq = du.du->config().cell.center_freq;
  auto ru = d.add_ru(site, 5, du.du->fh());
  d.connect_direct(du, ru);
  d.add_ue(d.plan.near_ru(0, 3, 4.0), &du, 200.0, 20.0, 2);
}

/// `n` DAS chaos rigs, one per cell shard of a city conductor with
/// `workers` threads (0 = the serial reference conductor).
struct DasChaosCity {
  city::City city;
  std::vector<std::unique_ptr<DasChaosRig>> cells;

  DasChaosCity(int n, int workers) : city(workers) {
    for (int i = 0; i < n; ++i)
      cells.push_back(std::make_unique<DasChaosRig>(
          *city.add_cell("c" + std::to_string(i)).dep));
  }
};

/// The IQ kernel tiers this CPU can run, scalar first.
inline std::vector<KernelTier> available_tiers() {
  std::vector<KernelTier> v;
  for (std::size_t t = 0; t < kKernelTierCount; ++t)
    if (iq_ops_for(KernelTier(t)) != nullptr) v.push_back(KernelTier(t));
  return v;
}

/// Restores the dispatch tier active at construction (tests force tiers).
struct TierGuard {
  KernelTier saved = iq_kernel_tier();
  ~TierGuard() { iq_force_tier(saved); }
};

}  // namespace rb
