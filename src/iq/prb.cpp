#include "iq/prb.h"

#include <cstring>

#include "iq/kernels/kernels.h"

namespace rb {

std::size_t merge_compressed(std::span<const std::span<const std::uint8_t>> srcs,
                             std::span<const CompConfig> src_cfgs, int n_prb,
                             const CompConfig& dst_cfg,
                             std::span<std::uint8_t> dst, PrbScratch& scratch) {
  if (srcs.empty() || n_prb <= 0 || src_cfgs.size() != srcs.size()) return 0;
  const std::size_t n_samples = std::size_t(n_prb) * kScPerPrb;
  scratch.ensure(n_samples);
  IqSpan acc(scratch.a.data(), n_samples);
  IqSpan tmp(scratch.b.data(), n_samples);

  if (!decompress_prbs(srcs[0], n_prb, src_cfgs[0], acc)) return 0;
  for (std::size_t s = 1; s < srcs.size(); ++s) {
    if (!decompress_prbs(srcs[s], n_prb, src_cfgs[s], tmp)) return 0;
    iq_ops().accumulate_sat(acc.data(), tmp.data(), n_samples);
  }
  auto written = compress_prbs(IqConstSpan(acc.data(), n_samples), dst_cfg, dst);
  return written.value_or(0);
}

bool copy_prbs_aligned(std::span<const std::uint8_t> src, int src_prb,
                       std::span<std::uint8_t> dst, int dst_prb, int n_prb,
                       const CompConfig& cfg) {
  const std::size_t prb_sz = cfg.prb_bytes();
  const std::size_t src_off = std::size_t(src_prb) * prb_sz;
  const std::size_t dst_off = std::size_t(dst_prb) * prb_sz;
  const std::size_t len = std::size_t(n_prb) * prb_sz;
  if (src_prb < 0 || dst_prb < 0 || n_prb < 0) return false;
  if (src_off + len > src.size() || dst_off + len > dst.size()) return false;
  std::memcpy(dst.data() + dst_off, src.data() + src_off, len);
  return true;
}

bool copy_prbs_shifted(std::span<const std::uint8_t> src, int src_prb,
                       std::span<std::uint8_t> dst, int dst_prb, int n_prb,
                       int shift_sc, const CompConfig& cfg,
                       PrbScratch& scratch) {
  if (shift_sc < 1 || shift_sc >= kScPerPrb || n_prb <= 0) return false;
  const std::size_t prb_sz = cfg.prb_bytes();
  const std::size_t src_off = std::size_t(src_prb) * prb_sz;
  if (src_off + std::size_t(n_prb) * prb_sz > src.size()) return false;

  // Decompress the source PRBs, then write them back shifted by shift_sc
  // sub-carriers into the destination grid. The shifted run straddles
  // n_prb + 1 destination PRBs; the destination payload must already hold
  // valid compressed PRBs (we merge into them sample-wise).
  const std::size_t n_samples = std::size_t(n_prb) * kScPerPrb;
  scratch.ensure(n_samples + kScPerPrb);
  IqSpan in(scratch.a.data(), n_samples);
  if (!decompress_prbs(src.subspan(src_off), n_prb, cfg, in)) return false;

  const int dst_prbs = n_prb + 1;
  const std::size_t dst_off = std::size_t(dst_prb) * prb_sz;
  if (dst_off + std::size_t(dst_prbs) * prb_sz > dst.size()) return false;

  IqSpan grid(scratch.b.data(), std::size_t(dst_prbs) * kScPerPrb);
  if (!decompress_prbs(dst.subspan(dst_off), dst_prbs, cfg, grid))
    return false;
  for (std::size_t k = 0; k < n_samples; ++k)
    grid[std::size_t(shift_sc) + k] = in[k];
  auto written =
      compress_prbs(IqConstSpan(grid.data(), grid.size()), cfg,
                    dst.subspan(dst_off, std::size_t(dst_prbs) * prb_sz));
  return written.has_value();
}

bool zero_prbs(std::span<std::uint8_t> dst, int dst_prb, int n_prb,
               const CompConfig& cfg) {
  const std::size_t prb_sz = cfg.prb_bytes();
  const std::size_t off = std::size_t(dst_prb) * prb_sz;
  const std::size_t len = std::size_t(n_prb) * prb_sz;
  if (dst_prb < 0 || n_prb < 0 || off + len > dst.size()) return false;
  std::memset(dst.data() + off, 0, len);
  return true;
}

}  // namespace rb
