// PRB-granularity payload kernels built on the BFP codec.
//
// These are the A4 (payload modification) primitives the reference
// middleboxes use:
//  * merge_compressed  - DAS uplink: element-wise sum of N compressed
//    payloads (decompress each at its own width -> accumulate ->
//    recompress).
//  * copy_prbs_aligned - RU sharing with aligned grids: move whole
//    compressed PRBs between payloads without touching mantissas.
//  * copy_prbs_shifted - RU sharing with misaligned grids: the samples must
//    be decompressed, shifted by a half-PRB sub-carrier offset and
//    recompressed (the expensive path the paper's Figure 6 motivates
//    avoiding via the Appendix A.1.1 alignment formula).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/iq_stats.h"
#include "iq/bfp.h"

namespace rb {

/// Scratch space reused across calls to avoid per-packet allocation on the
/// datapath. One instance per middlebox worker; growth is steady-state
/// free (capacity sticks at the largest grid seen) and reported via the
/// arena high-water mark.
struct PrbScratch {
  std::vector<IqSample> a;
  std::vector<IqSample> b;

  void ensure(std::size_t n) {
    if (a.size() < n) a.resize(n);
    if (b.size() < n) b.resize(n);
    iqstats::raise_hwm(iqstats::arena_samples_hwm(), a.size());
  }
};

/// Element-wise sum of `srcs` compressed payloads covering `n_prb` PRBs
/// each. Each source is decoded at its own CompConfig (per-packet
/// udCompHdr) and the sum is recompressed at `dst_cfg` into `dst`.
/// `src_cfgs.size()` must equal `srcs.size()`. Returns bytes written or 0
/// on error.
std::size_t merge_compressed(std::span<const std::span<const std::uint8_t>> srcs,
                             std::span<const CompConfig> src_cfgs, int n_prb,
                             const CompConfig& dst_cfg,
                             std::span<std::uint8_t> dst, PrbScratch& scratch);

/// Copy `n_prb` compressed PRBs from src (starting at src_prb within the
/// src payload) into dst (starting at dst_prb within the dst payload).
/// Grids are aligned so compressed PRBs are moved verbatim - no codec work.
/// Returns false if either payload is too small.
bool copy_prbs_aligned(std::span<const std::uint8_t> src, int src_prb,
                       std::span<std::uint8_t> dst, int dst_prb, int n_prb,
                       const CompConfig& cfg);

/// Copy with a half-PRB (6 sub-carrier) misalignment between src and dst
/// grids: decompress, shift, recompress. `shift_sc` in [1, 11].
/// Returns false on error.
bool copy_prbs_shifted(std::span<const std::uint8_t> src, int src_prb,
                       std::span<std::uint8_t> dst, int dst_prb, int n_prb,
                       int shift_sc, const CompConfig& cfg,
                       PrbScratch& scratch);

/// Zero-fill `n_prb` PRBs of a compressed payload (exponent 0, zero
/// mantissas) - used to blank unowned spectrum in RU sharing.
bool zero_prbs(std::span<std::uint8_t> dst, int dst_prb, int n_prb,
               const CompConfig& cfg);

}  // namespace rb
