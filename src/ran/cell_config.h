// Cell, SSB and PRACH configuration.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "ran/tdd.h"

namespace rb {

/// SSB occasions are standardized here as symbols 2..5 of the first slot of
/// every period. The SSB carries PCI and reference power; UEs need it to
/// attach and to monitor link quality (paper section 4.2).
struct SsbConfig {
  int period_slots = 20;  // 10 ms at 30 kHz SCS
  int first_symbol = 2;
  int n_symbols = 4;
  int start_prb = 0;  // within the cell grid; set by CellConfig::finalize()
  int n_prb = 20;
};

// Energy detection thresholds are mantissa-width dependent; see
// energy_exponent_threshold() in iq/bfp.h.

/// PRACH: the random-access window UEs transmit attach requests in.
/// freq_offset is the C-plane section type 3 freqOffset value in the DU
/// grid, in units of SCS/2, measured down from the DU center frequency
/// (Appendix A.1.2: f_re0 = center - freq_offset * SCS/2).
struct PrachConfig {
  int period_slots = 20;
  int slot_offset = 19;  // PRACH occasion within the period (an UL slot)
  int n_prb = 12;
  std::int32_t freq_offset = 0;  // set by CellConfig::finalize()
};

/// 3.46 GHz, in band 78 (the testbed's band): the default carrier center
/// of cells, RUs and shared-RU grids.
inline constexpr Hertz kBand78Center = GHz(3) + MHz(460);

struct CellConfig {
  int cell_id = 0;
  std::uint16_t pci = 1;
  Hertz center_freq = kBand78Center;
  Hertz bandwidth = MHz(100);
  Scs scs = Scs::kHz30;
  int max_layers = 4;
  TddPattern tdd = default_tdd();
  SsbConfig ssb{};
  PrachConfig prach{};

  int n_prb() const { return prbs_for_bandwidth(bandwidth, scs); }

  /// Lowest sub-carrier frequency of PRB 0 (Appendix A.1.1 eq. 1-2).
  Hertz prb0_freq() const {
    return center_freq - 12 * scs_hz(scs) * n_prb() / 2;
  }

  /// Absolute frequency of the first RE of a PRB index in this grid.
  Hertz prb_freq(int prb) const { return prb0_freq() + prb * 12 * scs_hz(scs); }

  /// Derive SSB placement (centered) and PRACH placement (near the low
  /// edge) from the grid. Call after setting bandwidth/center_freq.
  CellConfig& finalize() {
    ssb.start_prb = n_prb() / 2 - ssb.n_prb / 2;
    // PRACH occupies PRBs [2, 2+n_prb) of the DU grid; express that as a
    // freqOffset from the center in SCS/2 units (positive = below center).
    const Hertz prach_f0 = prb_freq(2);
    prach.freq_offset =
        std::int32_t(2 * (center_freq - prach_f0) / scs_hz(scs));
    return *this;
  }

  /// Absolute frequency of the first PRACH RE.
  Hertz prach_f0() const {
    return center_freq - prach.freq_offset * scs_hz(scs) / 2;
  }
};

/// Appendix A.1.1: pick a DU center frequency such that the DU's PRB grid
/// aligns with the RU's, anchored at RU-grid PRB `prb_offset`.
///   DU_center = PRB_0_freq(RU) + 12*SCS*(prb_offset + DU_num_prb/2)
inline Hertz aligned_du_center_frequency(Hertz ru_center, int ru_num_prb,
                                         int du_num_prb, int prb_offset,
                                         Scs scs) {
  const Hertz prb0 = ru_center - 12 * scs_hz(scs) * ru_num_prb / 2;
  return prb0 + 12 * scs_hz(scs) * (prb_offset + du_num_prb / 2);
}

/// Appendix A.1.2 (eq. 11): translate a PRACH freqOffset from the DU grid
/// to the RU grid.
inline std::int32_t translate_freq_offset(std::int32_t freq_offset_du,
                                          Hertz du_center, Hertz ru_center,
                                          Scs scs) {
  return freq_offset_du +
         std::int32_t(2 * (ru_center - du_center) / scs_hz(scs));
}

}  // namespace rb
