// Unit + property tests for the Block Floating Point codec and the PRB
// payload kernels (the A4 primitives). The round-trip, merge and shifted
// copy tests run once per kernel tier this CPU supports, so the scalar
// reference codec is exercised by value, not only by equivalence.
#include <gtest/gtest.h>

#include <random>

#include "iq/kernels/kernels.h"
#include "iq/prb.h"
#include "rigs.h"

namespace rb {
namespace {

std::vector<IqSample> random_samples(int n_prb, std::uint32_t seed,
                                     std::int16_t amp = 20000) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(-amp, amp);
  std::vector<IqSample> v(std::size_t(n_prb) * kScPerPrb);
  for (auto& s : v) {
    s.i = std::int16_t(dist(rng));
    s.q = std::int16_t(dist(rng));
  }
  return v;
}

TEST(BfpExponent, ZeroForSmallSamples) {
  PrbSamples prb{};
  for (auto& s : prb) s = {100, -100};
  EXPECT_EQ(bfp_exponent(IqConstSpan(prb.data(), prb.size()), 9), 0);
}

TEST(BfpExponent, GrowsWithAmplitude) {
  PrbSamples prb{};
  std::uint8_t last = 0;
  for (std::int16_t amp : {200, 800, 3200, 12800, 32000}) {
    for (auto& s : prb) s = {amp, std::int16_t(-amp)};
    const std::uint8_t e = bfp_exponent(IqConstSpan(prb.data(), prb.size()), 9);
    EXPECT_GE(e, last);
    last = e;
  }
  EXPECT_GE(last, 6);
}

TEST(BfpExponent, FullScaleFitsWidth) {
  PrbSamples prb{};
  for (auto& s : prb) s = {32767, -32768};
  for (int w = 2; w <= 16; ++w) {
    const std::uint8_t e = bfp_exponent(IqConstSpan(prb.data(), prb.size()), w);
    // Shifting by e must land within a signed w-bit mantissa.
    EXPECT_LE(32767 >> e, (1 << (w - 1)) - 1) << "width " << w;
  }
}

TEST(BfpCompress, ZeroPrbIsAllZeroBytes) {
  PrbSamples prb{};
  std::vector<std::uint8_t> out(64);
  auto r = bfp_compress_prb(IqConstSpan(prb.data(), prb.size()), 9, out);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->exponent, 0);
  for (std::size_t i = 0; i < r->bytes; ++i) EXPECT_EQ(out[i], 0);
}

TEST(BfpCompress, RejectsTinyBuffer) {
  PrbSamples prb{};
  std::vector<std::uint8_t> out(4);
  EXPECT_FALSE(bfp_compress_prb(IqConstSpan(prb.data(), prb.size()), 9, out));
}

TEST(BfpCompress, RejectsInvalidWidth) {
  PrbSamples prb{};
  std::vector<std::uint8_t> out(64);
  EXPECT_FALSE(bfp_compress_prb(IqConstSpan(prb.data(), prb.size()), 1, out));
  EXPECT_FALSE(bfp_compress_prb(IqConstSpan(prb.data(), prb.size()), 17, out));
}

TEST(BfpDecompress, RejectsTruncatedInput) {
  std::vector<std::uint8_t> in(10, 0);
  PrbSamples out{};
  EXPECT_FALSE(bfp_decompress_prb(in, 9, IqSpan(out.data(), out.size())));
}

/// Property: compress/decompress round trip loses at most the truncated
/// low bits: |x - round_trip(x)| < 2^exponent.
class BfpRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BfpRoundTrip, ErrorBoundedByExponent) {
  const int width = GetParam();
  const CompConfig cfg{CompMethod::BlockFloatingPoint, width};
  auto samples = random_samples(16, std::uint32_t(width) * 31u);
  TierGuard guard;
  for (KernelTier t : available_tiers()) {
    ASSERT_TRUE(iq_force_tier(t));
    SCOPED_TRACE(kernel_tier_name(t));
    std::vector<std::uint8_t> comp(cfg.prb_bytes() * 16);
    auto wrote = compress_prbs(IqConstSpan(samples.data(), samples.size()),
                               cfg, comp);
    ASSERT_TRUE(wrote.has_value());
    EXPECT_EQ(*wrote, comp.size());
    std::vector<IqSample> out(samples.size());
    auto read = decompress_prbs(comp, 16, cfg, IqSpan(out.data(), out.size()));
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(*read, comp.size());
    for (int p = 0; p < 16; ++p) {
      const std::uint8_t e = bfp_wire_exponent(
          std::span<const std::uint8_t>(comp).subspan(std::size_t(p) *
                                                      cfg.prb_bytes()));
      const int tol = 1 << e;
      for (int k = 0; k < kScPerPrb; ++k) {
        const auto& a = samples[std::size_t(p * kScPerPrb + k)];
        const auto& b = out[std::size_t(p * kScPerPrb + k)];
        EXPECT_LT(std::abs(a.i - b.i), tol) << "w=" << width << " prb=" << p;
        EXPECT_LT(std::abs(a.q - b.q), tol);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BfpRoundTrip, ::testing::Values(2, 4, 7, 9, 12, 14, 16));

TEST(BfpRoundTrip, Width16IsLossless) {
  const CompConfig cfg{CompMethod::BlockFloatingPoint, 16};
  auto samples = random_samples(8, 5);
  TierGuard guard;
  for (KernelTier t : available_tiers()) {
    ASSERT_TRUE(iq_force_tier(t));
    SCOPED_TRACE(kernel_tier_name(t));
    std::vector<std::uint8_t> comp(cfg.prb_bytes() * 8);
    compress_prbs(IqConstSpan(samples.data(), samples.size()), cfg, comp);
    std::vector<IqSample> out(samples.size());
    decompress_prbs(comp, 8, cfg, IqSpan(out.data(), out.size()));
    EXPECT_EQ(samples, out);
  }
}

TEST(CompNone, RoundTripsExactly) {
  const CompConfig cfg{CompMethod::None, 16};
  auto samples = random_samples(4, 6);
  std::vector<std::uint8_t> comp(cfg.prb_bytes() * 4);
  auto wrote = compress_prbs(IqConstSpan(samples.data(), samples.size()),
                             cfg, comp);
  ASSERT_TRUE(wrote.has_value());
  std::vector<IqSample> out(samples.size());
  ASSERT_TRUE(decompress_prbs(comp, 4, cfg, IqSpan(out.data(), out.size())));
  EXPECT_EQ(samples, out);
}

TEST(CompConfig, UdCompHdrRoundTrips) {
  for (int w : {2, 9, 14}) {
    CompConfig c{CompMethod::BlockFloatingPoint, w};
    EXPECT_EQ(CompConfig::from_ud_comp_hdr(c.ud_comp_hdr()), c);
  }
  // Width 16 encodes as 0 in the 4-bit field.
  CompConfig c16{CompMethod::BlockFloatingPoint, 16};
  EXPECT_EQ(CompConfig::from_ud_comp_hdr(c16.ud_comp_hdr()).iq_width, 16);
}

TEST(Accumulate, SaturatesAtInt16) {
  PrbSamples a{}, b{};
  for (auto& s : a) s = {30000, -30000};
  for (auto& s : b) s = {10000, -10000};
  accumulate(IqSpan(a.data(), a.size()), IqConstSpan(b.data(), b.size()));
  for (const auto& s : a) {
    EXPECT_EQ(s.i, 32767);
    EXPECT_EQ(s.q, -32768);
  }
}

TEST(MergeCompressed, SumsTwoStreams) {
  const CompConfig cfg{CompMethod::BlockFloatingPoint, 16};  // lossless
  auto a = random_samples(4, 7, 8000);
  auto b = random_samples(4, 8, 8000);
  TierGuard guard;
  for (KernelTier t : available_tiers()) {
    ASSERT_TRUE(iq_force_tier(t));
    SCOPED_TRACE(kernel_tier_name(t));
    std::vector<std::uint8_t> ca(cfg.prb_bytes() * 4), cb(cfg.prb_bytes() * 4);
    compress_prbs(IqConstSpan(a.data(), a.size()), cfg, ca);
    compress_prbs(IqConstSpan(b.data(), b.size()), cfg, cb);
    const std::span<const std::uint8_t> srcs[] = {ca, cb};
    const CompConfig cfgs[] = {cfg, cfg};
    std::vector<std::uint8_t> dst(ca.size());
    PrbScratch scratch;
    const std::size_t wrote =
        merge_compressed(srcs, cfgs, 4, cfg, dst, scratch);
    ASSERT_EQ(wrote, dst.size());
    std::vector<IqSample> out(a.size());
    ASSERT_TRUE(decompress_prbs(dst, 4, cfg, IqSpan(out.data(), out.size())));
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(out[k].i, sat16(a[k].i + b[k].i));
      EXPECT_EQ(out[k].q, sat16(a[k].q + b[k].q));
    }
  }
}

TEST(MergeCompressed, PreservesEnergyScaleAtW9) {
  // The DAS merge at the real wire width: summed power ~ sum of powers.
  const CompConfig cfg{CompMethod::BlockFloatingPoint, 9};
  auto a = random_samples(8, 9, 4000);
  auto b = random_samples(8, 10, 4000);
  // Reference: the element-wise sum of the original samples (the finite
  // sample cross-term means Pa+Pb is not the right reference).
  std::vector<IqSample> ref = a;
  accumulate(IqSpan(ref.data(), ref.size()),
             IqConstSpan(b.data(), b.size()));
  const double p_ref = mean_power(IqConstSpan(ref.data(), ref.size()));
  TierGuard guard;
  for (KernelTier t : available_tiers()) {
    ASSERT_TRUE(iq_force_tier(t));
    SCOPED_TRACE(kernel_tier_name(t));
    std::vector<std::uint8_t> ca(cfg.prb_bytes() * 8), cb(cfg.prb_bytes() * 8);
    compress_prbs(IqConstSpan(a.data(), a.size()), cfg, ca);
    compress_prbs(IqConstSpan(b.data(), b.size()), cfg, cb);
    const std::span<const std::uint8_t> srcs[] = {ca, cb};
    const CompConfig cfgs[] = {cfg, cfg};
    std::vector<std::uint8_t> dst(ca.size());
    PrbScratch scratch;
    ASSERT_GT(merge_compressed(srcs, cfgs, 8, cfg, dst, scratch), 0u);
    std::vector<IqSample> out(a.size());
    ASSERT_TRUE(decompress_prbs(dst, 8, cfg, IqSpan(out.data(), out.size())));
    const double p_out = mean_power(IqConstSpan(out.data(), out.size()));
    EXPECT_NEAR(p_out, p_ref, p_ref * 0.02);  // quantization noise only
  }
}

TEST(CopyPrbsAligned, MovesBytesVerbatim) {
  const CompConfig cfg{CompMethod::BlockFloatingPoint, 9};
  auto a = random_samples(6, 11);
  std::vector<std::uint8_t> src(cfg.prb_bytes() * 6);
  compress_prbs(IqConstSpan(a.data(), a.size()), cfg, src);
  std::vector<std::uint8_t> dst(cfg.prb_bytes() * 12, 0);
  ASSERT_TRUE(copy_prbs_aligned(src, 1, dst, 5, 4, cfg));
  EXPECT_TRUE(std::equal(src.begin() + std::ptrdiff_t(cfg.prb_bytes()),
                         src.begin() + std::ptrdiff_t(cfg.prb_bytes() * 5),
                         dst.begin() + std::ptrdiff_t(cfg.prb_bytes() * 5)));
}

TEST(CopyPrbsAligned, RejectsOutOfRange) {
  const CompConfig cfg{CompMethod::BlockFloatingPoint, 9};
  std::vector<std::uint8_t> src(cfg.prb_bytes() * 2), dst(cfg.prb_bytes() * 2);
  EXPECT_FALSE(copy_prbs_aligned(src, 1, dst, 0, 2, cfg));
  EXPECT_FALSE(copy_prbs_aligned(src, 0, dst, 1, 2, cfg));
  EXPECT_FALSE(copy_prbs_aligned(src, -1, dst, 0, 1, cfg));
}

TEST(CopyPrbsShifted, ShiftsSamplesBySubcarriers) {
  const CompConfig cfg{CompMethod::BlockFloatingPoint, 16};
  auto a = random_samples(3, 12, 8000);
  const int shift = 5;
  TierGuard guard;
  for (KernelTier t : available_tiers()) {
    ASSERT_TRUE(iq_force_tier(t));
    SCOPED_TRACE(kernel_tier_name(t));
    std::vector<std::uint8_t> src(cfg.prb_bytes() * 3);
    compress_prbs(IqConstSpan(a.data(), a.size()), cfg, src);
    std::vector<std::uint8_t> dst(cfg.prb_bytes() * 8, 0);
    PrbScratch scratch;
    ASSERT_TRUE(copy_prbs_shifted(src, 0, dst, 2, 3, shift, cfg, scratch));
    std::vector<IqSample> out(4 * kScPerPrb);
    ASSERT_TRUE(decompress_prbs(
        std::span<const std::uint8_t>(dst).subspan(cfg.prb_bytes() * 2), 4,
        cfg, IqSpan(out.data(), out.size())));
    for (std::size_t k = 0; k < a.size(); ++k)
      EXPECT_EQ(out[k + shift], a[k]) << "k=" << k;
    for (int k = 0; k < shift; ++k) EXPECT_EQ(out[std::size_t(k)], IqSample{});
  }
}

TEST(CopyPrbsShifted, RejectsInvalidShift) {
  const CompConfig cfg{CompMethod::BlockFloatingPoint, 9};
  std::vector<std::uint8_t> src(cfg.prb_bytes() * 2), dst(cfg.prb_bytes() * 4);
  PrbScratch scratch;
  EXPECT_FALSE(copy_prbs_shifted(src, 0, dst, 0, 2, 0, cfg, scratch));
  EXPECT_FALSE(copy_prbs_shifted(src, 0, dst, 0, 2, 12, cfg, scratch));
}

TEST(ZeroPrbs, BlanksRange) {
  const CompConfig cfg{CompMethod::BlockFloatingPoint, 9};
  std::vector<std::uint8_t> dst(cfg.prb_bytes() * 4, 0xff);
  ASSERT_TRUE(zero_prbs(dst, 1, 2, cfg));
  EXPECT_EQ(dst[0], 0xff);
  for (std::size_t i = cfg.prb_bytes(); i < cfg.prb_bytes() * 3; ++i)
    EXPECT_EQ(dst[i], 0);
  EXPECT_EQ(dst[cfg.prb_bytes() * 3], 0xff);
}

}  // namespace
}  // namespace rb
