// Shared rig builders and table output helpers for the experiment benches.
//
// Each bench binary regenerates one table/figure of the paper; rigs mirror
// the testbed configurations of section 6.1.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/cost.h"
#include "sim/deployment.h"
#include "sim/power.h"

namespace rb::bench {

inline CellConfig cell_cfg(Hertz bandwidth, Hertz center, std::uint16_t pci,
                           int layers = 4) {
  CellConfig c;
  c.bandwidth = bandwidth;
  c.center_freq = center;
  c.pci = pci;
  c.max_layers = layers;
  return c;
}

inline RuSite ru_site(const Position& pos, int antennas, Hertz bandwidth,
                      Hertz center) {
  RuSite s;
  s.pos = pos;
  s.n_antennas = antennas;
  s.bandwidth = bandwidth;
  s.center_freq = center;
  return s;
}

/// Default band-78 center used across the benches (the testbed's band).
inline constexpr Hertz kBand78Center = GHz(3) + MHz(460);

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline void row(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
inline void row(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
}

/// The Figure 12 chain (paper section 6.3.2): two 40 MHz MNO DUs share
/// four 100 MHz RUs through RU sharing and DAS, one UE per MNO.
///
///   DU_A --.
///           rushare --- das --- switch --- RU1..RU4
///   DU_B --'
struct Fig12Chain {
  Deployment d;
  Deployment::DuHandle du_a, du_b;
  std::vector<Deployment::RuHandle> rus;
  MiddleboxRuntime* rushare_rt = nullptr;
  MiddleboxRuntime* das_rt = nullptr;
  UeId ue_a = -1, ue_b = -1;

  Fig12Chain() {
    // Two 40 MHz MNO cells aligned inside the shared 100 MHz grid.
    const Hertz ca =
        aligned_du_center_frequency(kBand78Center, 273, 106, 10, Scs::kHz30);
    const Hertz cb =
        aligned_du_center_frequency(kBand78Center, 273, 106, 150, Scs::kHz30);
    du_a = d.add_du(cell_cfg(MHz(40), ca, 1), srsran_profile(), 0);
    du_b = d.add_du(cell_cfg(MHz(40), cb, 2), srsran_profile(), 1);
    for (int i = 0; i < 4; ++i)
      rus.push_back(d.add_ru(
          ru_site(d.plan.ru_position(0, i), 4, MHz(100), kBand78Center),
          std::uint8_t(i), du_a.du->fh()));

    // --- RU sharing stage: DU-facing ---
    RuShareConfig scfg;
    scfg.ru_mac = MacAddr::mb(1);  // the DAS stage impersonates the RU
    scfg.ru_n_prb = 273;
    scfg.ru_center_freq = kBand78Center;
    for (auto* duh : {&du_a, &du_b}) {
      ShareDu sd;
      sd.mac = duh->du->config().du_mac;
      sd.du_id = duh->du->config().du_id;
      sd.n_prb = duh->du->config().cell.n_prb();
      sd.center_freq = duh->du->config().cell.center_freq;
      sd.prb_offset = Deployment::prb_offset_in_ru(
          duh->du->config().cell, d.air.ru(rus[0].id));
      scfg.dus.push_back(sd);
    }
    d.apps.push_back(std::make_unique<RuShareMiddlebox>(scfg));
    MiddleboxRuntime::Config rc;
    rc.name = "rushare";
    rc.fh = du_a.du->fh();
    rc.fh.carrier_prbs = 273;
    d.runtimes.push_back(
        std::make_unique<MiddleboxRuntime>(rc, *d.apps.back()));
    rushare_rt = d.runtimes.back().get();
    Port& sh_south = d.new_port("rushare.south");
    rushare_rt->add_port("south", sh_south);
    Port& sh_na = d.new_port("rushare.north0");
    rushare_rt->add_port("north0", sh_na, du_a.du->fh());
    Port& sh_nb = d.new_port("rushare.north1");
    rushare_rt->add_port("north1", sh_nb, du_b.du->fh());
    Port::connect(*du_a.port, sh_na, 1'000);
    Port::connect(*du_b.port, sh_nb, 1'000);

    // --- DAS stage: distributes the shared-RU stream over four RUs ---
    DasConfig dcfg;
    dcfg.du_mac = du_a.du->config().du_mac;  // UL heads back to the chain
    for (auto& r : rus) dcfg.ru_macs.push_back(r.mac);
    d.apps.push_back(std::make_unique<DasMiddlebox>(dcfg));
    MiddleboxRuntime::Config dc;
    dc.name = "das";
    dc.fh = du_a.du->fh();
    dc.fh.carrier_prbs = 273;
    d.runtimes.push_back(
        std::make_unique<MiddleboxRuntime>(dc, *d.apps.back()));
    das_rt = d.runtimes.back().get();
    Port& das_north = d.new_port("das.north");
    Port& das_south = d.new_port("das.south");
    das_rt->add_port("north", das_north);
    das_rt->add_port("south", das_south);
    // Inter-stage hop (the SR-IOV embedded-switch crossing, Figure 8).
    Port::connect(sh_south, das_north, ChainBuilder::kHopLatencyNs);

    EmbeddedSwitch& sw = d.new_switch("fabric");
    Port& sw_mb = sw.add_port("das");
    Port::connect(das_south, sw_mb, 500);
    sw.add_static_entry(dcfg.du_mac, sw_mb);
    sw.add_static_entry(du_b.du->config().du_mac, sw_mb);
    for (auto& r : rus) {
      Port& sw_ru = sw.add_port("ru");
      Port::connect(*r.port, sw_ru, 500);
      sw.add_static_entry(r.mac, sw_ru);
    }
    d.engine.add_middlebox(*rushare_rt);
    d.engine.add_middlebox(*das_rt);

    // Air topology: both cells radiate from all four RUs at their slices.
    for (auto* duh : {&du_a, &du_b}) {
      const int off = Deployment::prb_offset_in_ru(duh->du->config().cell,
                                                   d.air.ru(rus[0].id));
      for (auto& r : rus) d.air.assign_ru(duh->cell, r.id, off);
    }

    ue_a = d.add_ue(d.plan.near_ru(0, 0, 2.0), &du_a, 500, 50, 1);
    ue_b = d.add_ue(d.plan.near_ru(0, 3, 2.0), &du_b, 500, 50, 2);
  }
};

/// Move a UE and let reselection settle before measuring (handover takes
/// a few SSB/PRACH occasions).
inline void settle_at(Deployment& d, UeId ue, const Position& pos,
                      int settle_slots = 80) {
  d.air.set_ue_position(ue, pos);
  d.engine.run_slots(settle_slots);
}

}  // namespace rb::bench
