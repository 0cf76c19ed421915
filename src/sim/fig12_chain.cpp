#include "sim/fig12_chain.h"

#include <memory>

namespace rb {

Fig12Chain::Fig12Chain() {
  // Two 40 MHz MNO cells aligned inside the shared 100 MHz grid.
  const Hertz ca =
      aligned_du_center_frequency(kBand78Center, 273, 106, 10, Scs::kHz30);
  const Hertz cb =
      aligned_du_center_frequency(kBand78Center, 273, 106, 150, Scs::kHz30);
  du_a = d.add_du(
      CellConfig{.pci = 1, .center_freq = ca, .bandwidth = MHz(40)},
      srsran_profile(), 0);
  du_b = d.add_du(
      CellConfig{.pci = 2, .center_freq = cb, .bandwidth = MHz(40)},
      srsran_profile(), 1);
  for (int i = 0; i < 4; ++i) {
    RuSite site;  // 4 antennas, 100 MHz at kBand78Center
    site.pos = d.plan.ru_position(0, i);
    rus.push_back(d.add_ru(site, std::uint8_t(i), du_a.du->fh()));
  }

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
    sd.prb_offset = Deployment::prb_offset_in_ru(duh->du->config().cell,
                                                 d.air.ru(rus[0].id));
    scfg.dus.push_back(sd);
  }
  d.apps.push_back(std::make_unique<RuShareMiddlebox>(scfg));
  MiddleboxRuntime::Config rc;
  rc.name = "rushare";
  rc.fh = du_a.du->fh();
  rc.fh.carrier_prbs = 273;
  d.runtimes.push_back(std::make_unique<MiddleboxRuntime>(rc, *d.apps.back()));
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
  dcfg.north_mac = scfg.ru_mac;  // UL reaches rushare from its one RU
  for (auto& r : rus) dcfg.ru_macs.push_back(r.mac);
  d.apps.push_back(std::make_unique<DasMiddlebox>(dcfg));
  MiddleboxRuntime::Config dc;
  dc.name = "das";
  dc.fh = du_a.du->fh();
  dc.fh.carrier_prbs = 273;
  d.runtimes.push_back(std::make_unique<MiddleboxRuntime>(dc, *d.apps.back()));
  das_rt = d.runtimes.back().get();
  Port& das_north = d.new_port("das.north");
  Port& das_south = d.new_port("das.south");
  das_rt->add_port("north", das_north);
  das_rt->add_port("south", das_south);
  Port::connect(sh_south, das_north, kHopLatencyNs);

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

std::vector<Fig12Chain::WalkPoint> Fig12Chain::walk() {
  constexpr int kSettleSlots = 80;
  constexpr int kMeasureSlots = 160;
  std::vector<WalkPoint> points;
  for (const Position& pos : d.plan.walk_route(0, 8, 2)) {
    Position mirrored = pos;
    mirrored.y = d.plan.depth_m - pos.y;
    d.air.set_ue_position(ue_a, pos);
    d.air.set_ue_position(ue_b, mirrored);
    d.engine.run_slots(kSettleSlots);
    d.measure(kMeasureSlots);
    points.push_back({pos, d.dl_mbps(ue_a), d.dl_mbps(ue_b)});
  }
  return points;
}

}  // namespace rb
