// The Figure 12 chain (paper section 6.3.2): two 40 MHz MNO DUs share
// four 100 MHz RUs through RU sharing and DAS, one UE per MNO.
//
//   DU_A --.
//           rushare --- das --- switch --- RU1..RU4
//   DU_B --'
//
// The one definition of this topology: the Fig 12 bench, the
// observability-overhead bench and the Fig 12 reproduction test all
// build it from here.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/deployment.h"

namespace rb {

struct Fig12Chain {
  /// Inter-stage hop: two PCIe crossings (VF out, VF in) through the
  /// SR-IOV embedded switch (paper Figure 8).
  static constexpr std::int64_t kHopLatencyNs = 1'200;

  Deployment d;
  Deployment::DuHandle du_a, du_b;
  std::vector<Deployment::RuHandle> rus;
  MiddleboxRuntime* rushare_rt = nullptr;
  MiddleboxRuntime* das_rt = nullptr;
  UeId ue_a = -1, ue_b = -1;

  Fig12Chain();

  /// DL goodput of both MNO UEs at one point of the floor walk.
  struct WalkPoint {
    Position pos;
    double mbps_a = 0;
    double mbps_b = 0;
  };

  /// The figure's floor walk: 16 points on floor 0. At each point MNO-A's
  /// UE stands on the point and MNO-B's UE at its mirror across the
  /// floor's depth; both settle for 80 slots, then DL goodput is measured
  /// over 160 slots.
  std::vector<WalkPoint> walk();
};

}  // namespace rb
