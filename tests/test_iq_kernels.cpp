// SIMD kernel layer tests: scalar-vs-tier bit-exactness, dispatch
// controls, the negative-mantissa UB regression, corrupt-input fuzz, and
// the zero-allocation guarantees of the combine hot path (scratch arenas,
// SmallVec tx queue, PacketPool magazines).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/iq_stats.h"
#include "common/small_vec.h"
#include "core/cache.h"
#include "core/middlebox.h"
#include "iq/kernels/bitpack.h"
#include "iq/kernels/kernels.h"
#include "iq/prb.h"
#include "net/packet.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "rigs.h"

// ----------------------------------------------------------------------
// Counting allocator: every global new/delete in this binary bumps the
// counter, so a test can assert a code region performs zero allocations.
// ----------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* counted_alloc(std::size_t n, std::align_val_t a) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align =
      std::size_t(a) < sizeof(void*) ? sizeof(void*) : std::size_t(a);
  void* p = nullptr;
  if (posix_memalign(&p, align, n ? n : 1) != 0) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace rb {
namespace {

std::uint64_t allocs() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

std::vector<IqSample> random_samples(std::size_t n, std::uint32_t seed,
                                     std::int16_t amp = 32000) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(-amp, amp);
  std::vector<IqSample> v(n);
  for (auto& s : v) {
    s.i = std::int16_t(dist(rng));
    s.q = std::int16_t(dist(rng));
  }
  return v;
}

// ----------------------------------------------------------------------
// Dispatch controls
// ----------------------------------------------------------------------

TEST(KernelDispatch, ScalarAlwaysAvailable) {
  ASSERT_NE(iq_ops_for(KernelTier::Scalar), nullptr);
  EXPECT_EQ(iq_ops_for(KernelTier::Scalar)->tier, KernelTier::Scalar);
}

TEST(KernelDispatch, ForceTierSwitchesActiveOps) {
  TierGuard guard;
  for (KernelTier t : available_tiers()) {
    ASSERT_TRUE(iq_force_tier(t)) << kernel_tier_name(t);
    EXPECT_EQ(iq_kernel_tier(), t);
    EXPECT_EQ(iq_ops().tier, t);
    EXPECT_EQ(iqstats::kernel_tier().load(), int(t));
  }
  // Forcing a tier with no kernel table fails and leaves the active one
  // alone, whatever this CPU supports.
  const KernelTier before = iq_kernel_tier();
  EXPECT_EQ(iq_ops_for(KernelTier(kKernelTierCount)), nullptr);
  EXPECT_FALSE(iq_force_tier(KernelTier(kKernelTierCount)));
  EXPECT_EQ(iq_kernel_tier(), before);
  EXPECT_EQ(iq_ops().tier, before);
}

// ----------------------------------------------------------------------
// Scalar-vs-SIMD equivalence: every tier must be bit-exact
// ----------------------------------------------------------------------

TEST(KernelEquivalence, MaxMagnitude) {
  const IqKernelOps* ref = iq_ops_for(KernelTier::Scalar);
  for (std::size_t n : {1u, 5u, 12u, 24u, 61u, 100u, 3276u}) {
    auto v = random_samples(n, std::uint32_t(n) * 7u + 1);
    // Plant the edge values, including |INT16_MIN| = 32768.
    v[0].i = 32767;
    v[n / 2].q = -32768;
    for (KernelTier t : available_tiers()) {
      const IqKernelOps* ops = iq_ops_for(t);
      EXPECT_EQ(ops->max_magnitude(v.data(), n),
                ref->max_magnitude(v.data(), n))
          << kernel_tier_name(t) << " n=" << n;
    }
  }
}

TEST(KernelEquivalence, PackUnpackAllWidthsAndShifts) {
  const IqKernelOps* ref = iq_ops_for(KernelTier::Scalar);
  for (int width = 2; width <= 16; ++width) {
    for (unsigned shift : {0u, 1u, 7u, 15u}) {
      for (std::size_t n : {5u, 12u, 17u, 24u, 96u}) {
        auto v = random_samples(n, std::uint32_t(width * 131 + int(shift)));
        v[0] = {32767, -32768};
        const std::size_t bytes = iqk::packed_bytes(2 * n, width);
        std::vector<std::uint8_t> packed_ref(bytes, 0), packed(bytes, 0);
        ref->pack_mantissas(v.data(), n, width, shift, packed_ref.data());
        std::vector<IqSample> unpacked_ref(n), unpacked(n);
        ref->unpack_mantissas(packed_ref.data(), n, width, shift,
                              unpacked_ref.data());
        for (KernelTier t : available_tiers()) {
          const IqKernelOps* ops = iq_ops_for(t);
          std::fill(packed.begin(), packed.end(), std::uint8_t(0));
          ops->pack_mantissas(v.data(), n, width, shift, packed.data());
          EXPECT_EQ(packed, packed_ref)
              << kernel_tier_name(t) << " w=" << width << " s=" << shift
              << " n=" << n;
          ops->unpack_mantissas(packed_ref.data(), n, width, shift,
                                unpacked.data());
          EXPECT_EQ(unpacked, unpacked_ref)
              << kernel_tier_name(t) << " w=" << width << " s=" << shift
              << " n=" << n;
        }
      }
    }
  }
}

TEST(KernelEquivalence, AccumulateSaturates) {
  const IqKernelOps* ref = iq_ops_for(KernelTier::Scalar);
  for (std::size_t n : {1u, 8u, 12u, 100u, 1201u}) {
    auto a = random_samples(n, 17, 32767);
    auto b = random_samples(n, 23, 32767);
    a[0] = {32767, -32768};
    b[0] = {32767, -32768};  // saturates both directions
    auto want = a;
    ref->accumulate_sat(want.data(), b.data(), n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(want[k].i, sat16(std::int32_t(a[k].i) + b[k].i));
      EXPECT_EQ(want[k].q, sat16(std::int32_t(a[k].q) + b[k].q));
    }
    for (KernelTier t : available_tiers()) {
      auto got = a;
      iq_ops_for(t)->accumulate_sat(got.data(), b.data(), n);
      EXPECT_EQ(got, want) << kernel_tier_name(t) << " n=" << n;
    }
  }
}

TEST(KernelEquivalence, NoneCodec) {
  const IqKernelOps* ref = iq_ops_for(KernelTier::Scalar);
  for (std::size_t n : {1u, 7u, 12u, 128u}) {
    auto v = random_samples(n, 29);
    v[0] = {-32768, 32767};
    std::vector<std::uint8_t> wire_ref(4 * n), wire(4 * n);
    ref->pack_none(v.data(), n, wire_ref.data());
    for (KernelTier t : available_tiers()) {
      const IqKernelOps* ops = iq_ops_for(t);
      ops->pack_none(v.data(), n, wire.data());
      EXPECT_EQ(wire, wire_ref) << kernel_tier_name(t);
      std::vector<IqSample> back(n);
      ops->unpack_none(wire_ref.data(), n, back.data());
      EXPECT_EQ(back, v) << kernel_tier_name(t);
    }
  }
}

/// Every tier's noise synthesis must match the naive specification:
/// step the LCG twice per sub-carrier and take int32(rng >> 16) % (2a+1)
/// - a per component. The RNG end state is checkpointed RU state, so it
/// is part of the contract too.
TEST(KernelEquivalence, SynthNoisePrbMatchesNaiveLcg) {
  for (std::int32_t a : {1, 2, 7, 100, 4000, 32767, 32768, 100000}) {
    const std::uint32_t rng0 = 0xDEADBEEFu ^ std::uint32_t(a);
    std::array<IqSample, kScPerPrb> want{};
    std::uint32_t r = rng0;
    const auto draw = [&r]() {
      r = r * 1664525u + 1013904223u;
      return r >> 16;
    };
    const std::int64_t d = 2 * std::int64_t(a) + 1;
    for (int k = 0; k < kScPerPrb; ++k) {
      const std::int32_t i = std::int32_t(std::int64_t(draw()) % d) - a;
      const std::int32_t q = std::int32_t(std::int64_t(draw()) % d) - a;
      want[k] = {sat16(i), sat16(q)};
    }
    for (KernelTier t : available_tiers()) {
      std::uint32_t rng = rng0;
      std::array<IqSample, kScPerPrb> got{};
      iq_ops_for(t)->synth_noise_prb(&rng, a, got.data());
      EXPECT_EQ(got, want) << kernel_tier_name(t) << " a=" << a;
      EXPECT_EQ(rng, r) << kernel_tier_name(t) << " a=" << a;
    }
  }
}

/// Full-codec equivalence: each tier produces byte-identical compressed
/// output and sample-identical decompressed output for widths 2..16.
TEST(KernelEquivalence, CodecBitExactAcrossTiers) {
  TierGuard guard;
  auto samples = random_samples(16 * kScPerPrb, 101);
  samples[3] = {-32768, -32768};
  for (int width = 2; width <= 16; ++width) {
    const CompConfig cfg{CompMethod::BlockFloatingPoint, width};
    ASSERT_TRUE(iq_force_tier(KernelTier::Scalar));
    std::vector<std::uint8_t> comp_ref(cfg.prb_bytes() * 16);
    auto wrote = compress_prbs(IqConstSpan(samples.data(), samples.size()),
                               cfg, comp_ref);
    ASSERT_TRUE(wrote.has_value());
    std::vector<IqSample> out_ref(samples.size());
    ASSERT_TRUE(decompress_prbs(comp_ref, 16, cfg,
                                IqSpan(out_ref.data(), out_ref.size())));
    for (KernelTier t : available_tiers()) {
      ASSERT_TRUE(iq_force_tier(t));
      std::vector<std::uint8_t> comp(cfg.prb_bytes() * 16);
      ASSERT_TRUE(compress_prbs(IqConstSpan(samples.data(), samples.size()),
                                cfg, comp));
      EXPECT_EQ(comp, comp_ref) << kernel_tier_name(t) << " w=" << width;
      std::vector<IqSample> out(samples.size());
      ASSERT_TRUE(
          decompress_prbs(comp_ref, 16, cfg, IqSpan(out.data(), out.size())));
      EXPECT_EQ(out, out_ref) << kernel_tier_name(t) << " w=" << width;
    }
  }
}

// ----------------------------------------------------------------------
// Regression: negative mantissa shifted by the exponent (was UB)
// ----------------------------------------------------------------------

TEST(BfpRegression, MaxNegativeMantissaDecompresses) {
  // Hand-build a compressed PRB whose mantissas are the most negative
  // width-bit value; the old `int32 << e` shift of a negative value was
  // UB. Every tier must decode to sat16(-2^(w-1) * 2^e).
  TierGuard guard;
  for (int width : {2, 8, 9, 12, 14, 16}) {
    const std::int32_t mant = -(1 << (width - 1));
    for (std::uint8_t e : {std::uint8_t(0), std::uint8_t(7),
                           std::uint8_t(15)}) {
      const std::size_t need =
          1 + (std::size_t(2 * kScPerPrb) * unsigned(width) + 7) / 8;
      std::vector<std::uint8_t> wire(need, 0);
      wire[0] = e;
      BitWriter bw(std::span<std::uint8_t>(wire).subspan(1));
      for (int k = 0; k < 2 * kScPerPrb; ++k) bw.put(mant, width);
      ASSERT_TRUE(bw.ok());
      const std::int16_t want =
          sat16(std::int32_t(std::uint32_t(mant) << e));
      for (KernelTier t : available_tiers()) {
        ASSERT_TRUE(iq_force_tier(t));
        PrbSamples out{};
        ASSERT_TRUE(
            bfp_decompress_prb(wire, width, IqSpan(out.data(), out.size())))
            << kernel_tier_name(t);
        for (const auto& s : out) {
          ASSERT_EQ(s.i, want) << kernel_tier_name(t) << " w=" << width
                               << " e=" << int(e);
          ASSERT_EQ(s.q, want);
        }
      }
    }
  }
}

TEST(BfpRegression, FullScaleNegativeRoundTrips) {
  // -32768 everywhere: exponent search must pick an e that fits and the
  // round trip must reproduce the value exactly at width 16.
  TierGuard guard;
  std::vector<IqSample> samples(4 * kScPerPrb, IqSample{-32768, -32768});
  const CompConfig cfg{CompMethod::BlockFloatingPoint, 16};
  for (KernelTier t : available_tiers()) {
    ASSERT_TRUE(iq_force_tier(t));
    std::vector<std::uint8_t> comp(cfg.prb_bytes() * 4);
    ASSERT_TRUE(
        compress_prbs(IqConstSpan(samples.data(), samples.size()), cfg, comp));
    std::vector<IqSample> out(samples.size());
    ASSERT_TRUE(
        decompress_prbs(comp, 4, cfg, IqSpan(out.data(), out.size())));
    // e=1 (32768 > 32767), mantissa -16384, decode -32768: exact.
    EXPECT_EQ(out, samples) << kernel_tier_name(t);
  }
}

// ----------------------------------------------------------------------
// Corrupt-input fuzz: arbitrary bytes must never read/write out of
// bounds (ASan-checked in CI) and truncation must reject cleanly.
// ----------------------------------------------------------------------

TEST(Fuzz, CorruptAndTruncatedInputs) {
  TierGuard guard;
  for (KernelTier t : available_tiers()) {
    ASSERT_TRUE(iq_force_tier(t));
    SCOPED_TRACE(kernel_tier_name(t));
    std::mt19937 rng(4242);
    std::uniform_int_distribution<int> wdist(2, 16);
    std::uniform_int_distribution<int> pdist(1, 8);
    std::uniform_int_distribution<int> bdist(0, 255);
    for (int iter = 0; iter < 500; ++iter) {
      const int width = wdist(rng);
      const int n_prb = pdist(rng);
      const CompConfig cfg{iter % 5 == 0 ? CompMethod::None
                                         : CompMethod::BlockFloatingPoint,
                           width};
      const std::size_t need = cfg.prb_bytes() * std::size_t(n_prb);
      // Exact-size heap buffer: one byte past the end trips ASan.
      std::vector<std::uint8_t> wire(need);
      for (auto& b : wire) b = std::uint8_t(bdist(rng));
      std::vector<IqSample> out(std::size_t(n_prb) * kScPerPrb);
      auto full = decompress_prbs(std::span<const std::uint8_t>(wire), n_prb,
                                  cfg, IqSpan(out.data(), out.size()));
      ASSERT_TRUE(full.has_value());
      EXPECT_EQ(*full, need);
      // Any truncation must reject without touching out-of-range bytes.
      const std::size_t cut = std::size_t(rng()) % need;
      EXPECT_FALSE(decompress_prbs(
          std::span<const std::uint8_t>(wire.data(), cut), n_prb, cfg,
          IqSpan(out.data(), out.size())));
      // Undersized sample buffer is rejected up front.
      EXPECT_FALSE(decompress_prbs(std::span<const std::uint8_t>(wire),
                                   n_prb, cfg,
                                   IqSpan(out.data(), out.size() - 1)));
    }
  }
}

// ----------------------------------------------------------------------
// Zero-allocation guarantees
// ----------------------------------------------------------------------

TEST(ZeroAlloc, MergeCompressedSteadyState) {
  // The decompress -> combine -> recompress path must not allocate once
  // the per-worker scratch is warm, on any tier.
  TierGuard guard;
  const CompConfig cfg{CompMethod::BlockFloatingPoint, 9};
  const int n_prb = 64;
  auto a = random_samples(std::size_t(n_prb) * kScPerPrb, 301, 8000);
  auto b = random_samples(std::size_t(n_prb) * kScPerPrb, 302, 8000);
  std::vector<std::uint8_t> ca(cfg.prb_bytes() * std::size_t(n_prb));
  std::vector<std::uint8_t> cb(ca.size()), dst(ca.size());
  ASSERT_TRUE(compress_prbs(IqConstSpan(a.data(), a.size()), cfg, ca));
  ASSERT_TRUE(compress_prbs(IqConstSpan(b.data(), b.size()), cfg, cb));
  const std::span<const std::uint8_t> srcs[] = {ca, cb};
  const CompConfig cfgs[] = {cfg, cfg};
  for (KernelTier t : available_tiers()) {
    ASSERT_TRUE(iq_force_tier(t));
    PrbScratch scratch;
    ASSERT_GT(merge_compressed(srcs, cfgs, n_prb, cfg, dst, scratch), 0u);
    const std::uint64_t before = allocs();
    for (int k = 0; k < 100; ++k)
      ASSERT_GT(merge_compressed(srcs, cfgs, n_prb, cfg, dst, scratch), 0u);
    EXPECT_EQ(allocs(), before) << kernel_tier_name(t);
  }
  EXPECT_GE(iqstats::arena_samples_hwm().load(),
            std::uint64_t(n_prb) * kScPerPrb);
}

TEST(ZeroAlloc, CombineScratchSteadyState) {
  // The DAS-combine shape: take cached copies into the worker arena,
  // collect per-section source spans and widths, merge, release the
  // buffers. After warm-up the take/dedup/merge/release window performs
  // no allocations on any tier (cache puts still allocate map nodes -
  // that is the A3 put path, not the combine).
  TierGuard guard;
  const CompConfig cfg{CompMethod::BlockFloatingPoint, 9};
  const int n_prb = 32;
  const std::size_t payload = cfg.prb_bytes() * std::size_t(n_prb);
  auto samples = random_samples(std::size_t(n_prb) * kScPerPrb, 303, 8000);
  for (KernelTier t : available_tiers()) {
    ASSERT_TRUE(iq_force_tier(t));
    PacketPool pool(16);
    PacketCache cache;
    MbScratch sc;
    PrbScratch prb_scratch;
    std::vector<std::uint8_t> dst(payload);
    constexpr int kCopies = 4;
    for (int iter = 0; iter < 20; ++iter) {
      // Fill phase (allocations allowed): cache kCopies compressed copies.
      for (int c = 0; c < kCopies; ++c) {
        PacketPtr p = pool.alloc();
        ASSERT_TRUE(p);
        auto wrote = compress_prbs(
            IqConstSpan(samples.data(), samples.size()), cfg, p->raw());
        ASSERT_TRUE(wrote.has_value());
        p->set_len(*wrote);
        cache.put(7, CachedPacket{std::move(p), FhFrame{}, 0});
      }
      const std::uint64_t before = allocs();
      cache.take_into(7, sc.batch);
      ASSERT_EQ(sc.batch.size(), std::size_t(kCopies));
      sc.srcs.clear();
      sc.src_comps.clear();
      for (auto& e : sc.batch) {
        sc.srcs.push_back(e.pkt->data());
        sc.src_comps.push_back(cfg);
      }
      const std::size_t wrote = merge_compressed(sc.srcs, sc.src_comps, n_prb,
                                                 cfg, dst, prb_scratch);
      ASSERT_EQ(wrote, payload);
      for (auto& e : sc.batch) e.pkt.reset();  // back to the pool (magazine)
      if (iter >= 2) {
        EXPECT_EQ(allocs(), before)
            << kernel_tier_name(t) << " iteration " << iter;
      }
    }
    EXPECT_EQ(pool.in_use(), 0u);
  }
}

/// Forwards everything to the runtime's south port. The test leaves that
/// port unwired, so packets die at TX and return to the pool magazine.
class ForwardSouthApp final : public MiddleboxApp {
 public:
  std::string name() const override { return "fwd"; }
  void on_frame(int, PacketPtr p, FhFrame&, MbContext& ctx) override {
    ctx.forward(std::move(p), 1);
  }
};

TEST(ZeroAlloc, BurstPumpSteadyState) {
  // The burst descriptor (arrival arrays, order pairs, section table, TX
  // staging) is runtime-owned scratch: once warm, a full pump — drain,
  // sort, parse, classify, dispatch, TX — performs zero allocations.
  ForwardSouthApp app;
  MiddleboxRuntime::Config cfg;
  cfg.name = "zeroalloc";
  MiddleboxRuntime rt(cfg, app);
  Port in{"in"}, out{"out"}, src{"src"};
  rt.add_port("north", in);
  rt.add_port("south", out);  // unwired: forwards drop at TX
  Port::connect(src, in, 0);

  // One C-plane frame template, re-sent every cycle.
  std::vector<std::uint8_t> tmpl(256);
  CPlaneMsg msg;
  msg.sections.push_back({});
  const std::size_t flen =
      build_cplane_frame(tmpl, EthHeader{}, EaxcId{}, 0, msg, FhContext{});
  ASSERT_GT(flen, 0u);
  tmpl.resize(flen);

  constexpr int kBurst = 32;
  for (int iter = 0; iter < 8; ++iter) {
    // Fill phase (allocations allowed: fabric queue blocks, pool cold
    // start). Reversed arrival times exercise the virtual-arrival sort.
    for (int k = 0; k < kBurst; ++k) {
      PacketPtr p = rt.pool().alloc();
      ASSERT_TRUE(p);
      std::copy(tmpl.begin(), tmpl.end(), p->raw().begin());
      p->set_len(tmpl.size());
      p->rx_time_ns = kBurst - k;
      ASSERT_TRUE(src.send(std::move(p)));
    }
    if (iter < 3) {  // warm the descriptor, parse-table and magazine
      ASSERT_TRUE(rt.pump(0, 0));
      continue;
    }
    const std::uint64_t before = allocs();
    ASSERT_TRUE(rt.pump(0, 0));
    EXPECT_EQ(allocs(), before) << "iteration " << iter;
  }
  EXPECT_EQ(rt.telemetry().counter("cplane_rx"), 8u * kBurst);
  EXPECT_EQ(rt.pool().in_use(), 0u);
}

/// DAS-style DL fan-out: replicates every frame to three south ports and
/// forwards the original.
class FanoutSouthApp final : public MiddleboxApp {
 public:
  std::string name() const override { return "fanout"; }
  void on_frame(int, PacketPtr p, FhFrame&, MbContext& ctx) override {
    for (int port = 1; port <= 3; ++port) {
      auto r = ctx.replicate(*p);
      if (r) ctx.forward(std::move(r), port);
    }
    ctx.forward(std::move(p), 1);
  }
};

TEST(ZeroAlloc, ReplicatedDasPumpSteadyState) {
  // A warm pump whose app fans each jumbo U-plane frame out to three
  // egresses must stay allocation-free: replicas are pool packets drawn
  // from the thread's magazine, not heap copies.
  FanoutSouthApp app;
  MiddleboxRuntime::Config cfg;
  cfg.name = "zeroalloc_rep";
  MiddleboxRuntime rt(cfg, app);
  Port in{"in"}, s1{"s1"}, s2{"s2"}, s3{"s3"}, src{"src"};
  rt.add_port("north", in);
  rt.add_port("south1", s1);  // unwired: forwards die at TX
  rt.add_port("south2", s2);
  rt.add_port("south3", s3);
  Port::connect(src, in, 0);

  // Jumbo single-section U-plane frame.
  FhContext fh;
  std::vector<std::uint8_t> payload(
      fh.comp.prb_bytes() * std::size_t(fh.carrier_prbs), 0x5a);
  UPlaneMsg u;
  u.direction = Direction::Downlink;
  USectionData sec;
  sec.num_prb = fh.carrier_prbs;
  sec.payload = payload;
  std::vector<std::uint8_t> tmpl(9216);
  tmpl.resize(build_uplane_frame(tmpl, EthHeader{}, EaxcId{}, 0, u,
                                 std::span(&sec, 1), fh));
  ASSERT_GT(tmpl.size(), 1000u);

  constexpr int kBurst = 16;
  for (int iter = 0; iter < 8; ++iter) {
    for (int k = 0; k < kBurst; ++k) {
      PacketPtr p = rt.pool().alloc();
      ASSERT_TRUE(p);
      std::copy(tmpl.begin(), tmpl.end(), p->raw().begin());
      p->set_len(tmpl.size());
      p->rx_time_ns = k;
      ASSERT_TRUE(src.send(std::move(p)));
    }
    if (iter < 3) {  // warm descriptor, magazines, TX staging
      ASSERT_TRUE(rt.pump(0, 0));
      continue;
    }
    const std::uint64_t before = allocs();
    ASSERT_TRUE(rt.pump(0, 0));
    EXPECT_EQ(allocs(), before) << "iteration " << iter;
  }
  EXPECT_EQ(rt.telemetry().counter("pkts_replicated"), 8u * kBurst * 3u);
  EXPECT_EQ(rt.pool().in_use(), 0u);
}

TEST(ZeroAlloc, PacketPoolMagazineSteadyState) {
  PacketPool pool(64);
  // Warm this thread's magazine.
  { auto p = pool.alloc(); }
  const std::uint64_t before = allocs();
  for (int k = 0; k < 1000; ++k) {
    auto p = pool.alloc();
    ASSERT_TRUE(p);
    p->set_len(64);
  }
  EXPECT_EQ(allocs(), before);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(SmallVecTest, InlineStorageThenSpill) {
  SmallVec<std::pair<PacketPtr, int>, 4> v;
  EXPECT_TRUE(v.empty());
  const std::uint64_t before = allocs();
  for (int k = 0; k < 4; ++k) v.emplace_back(nullptr, k);
  EXPECT_EQ(allocs(), before);  // inline: no heap
  EXPECT_FALSE(v.spilled());
  for (int k = 4; k < 23; ++k) v.emplace_back(nullptr, k);
  EXPECT_TRUE(v.spilled());
  ASSERT_EQ(v.size(), 23u);
  for (int k = 0; k < 23; ++k) EXPECT_EQ(v[std::size_t(k)].second, k);
  // Move keeps contents; clear keeps capacity.
  SmallVec<std::pair<PacketPtr, int>, 4> w(std::move(v));
  ASSERT_EQ(w.size(), 23u);
  EXPECT_EQ(w[22].second, 22);
  EXPECT_TRUE(v.empty());
  const std::size_t cap = w.capacity();
  w.clear();
  EXPECT_EQ(w.capacity(), cap);
}

TEST(PacketPoolTest, ExhaustionAndRecovery) {
  PacketPool tiny(4);
  std::vector<PacketPtr> held;
  for (int k = 0; k < 4; ++k) {
    auto p = tiny.alloc();
    ASSERT_TRUE(p);
    held.push_back(std::move(p));
  }
  EXPECT_EQ(tiny.in_use(), 4u);
  EXPECT_FALSE(tiny.alloc());
  EXPECT_EQ(tiny.alloc_failures(), 1u);
  held.clear();
  EXPECT_EQ(tiny.in_use(), 0u);
  EXPECT_TRUE(tiny.alloc());
}

TEST(PacketPoolTest, MagazinesAcrossThreads) {
  PacketPool pool(1024);
  std::atomic<int> failures{0};
  auto worker = [&pool, &failures](std::uint32_t seed) {
    std::mt19937 rng(seed);
    std::vector<PacketPtr> held;
    for (int k = 0; k < 2000; ++k) {
      if (held.size() < 8 && (rng() & 1)) {
        auto p = pool.alloc();
        if (!p) {
          failures.fetch_add(1);
          continue;
        }
        p->set_len(rng() % kPacketCapacity);
        held.push_back(std::move(p));
      } else if (!held.empty()) {
        held.pop_back();
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < 4; ++t) threads.emplace_back(worker, t + 1);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.in_use(), 0u);
  // Buffers may be parked in retired threads' magazines, but well over
  // half the pool must remain reachable from this thread.
  std::vector<PacketPtr> drain;
  for (int k = 0; k < 512; ++k) {
    auto p = pool.alloc();
    ASSERT_TRUE(p) << "k=" << k;
    drain.push_back(std::move(p));
  }
  EXPECT_EQ(pool.in_use(), 512u);
  drain.clear();
  EXPECT_EQ(pool.in_use(), 0u);
}

// ----------------------------------------------------------------------
// Telemetry surface
// ----------------------------------------------------------------------

TEST(KernelStats, PrometheusExportsTierAndArenas) {
  (void)iq_ops();  // ensure a tier is selected
  const std::string text = obs::prometheus_text(obs::Collector::instance());
  EXPECT_NE(text.find("rb_iq_kernel_tier{name=\""), std::string::npos);
  EXPECT_NE(text.find("rb_iq_arena_hwm{arena=\"samples\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rb_iq_arena_hwm{arena=\"batch\"}"), std::string::npos);
}

}  // namespace
}  // namespace rb
