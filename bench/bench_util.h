// Shared rig builders and table output helpers for the experiment benches.
//
// Each bench binary regenerates one table/figure of the paper; rigs mirror
// the testbed configurations of section 6.1.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <string>

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

/// Move a UE and let reselection settle before measuring (handover takes
/// a few SSB/PRACH occasions).
inline void settle_at(Deployment& d, UeId ue, const Position& pos,
                      int settle_slots = 80) {
  d.air.set_ue_position(ue, pos);
  d.engine.run_slots(settle_slots);
}

}  // namespace rb::bench
