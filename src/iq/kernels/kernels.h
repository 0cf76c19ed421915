// Runtime-dispatched SIMD kernels for the IQ hot path.
//
// The BFP codec and the U-plane combine dominate per-packet cost on the
// fronthaul datapath (the paper's Fig. 12/15 microbenchmarks). This layer
// provides two tiers: the scalar reference implementation and an AVX2
// variant, selected once at startup via CPUID in the spirit of DPDK's
// vectorized rx/tx paths.
//
// Contract: every tier is bit-exact against the scalar reference for every
// input. This is what keeps serial-vs-parallel determinism and obs trace
// equality intact no matter which tier the host selects: a kernel is an
// implementation detail, never an observable behaviour change.
//
// Selection: AVX2 when the CPU supports it, otherwise scalar.
#pragma once

#include <cstddef>
#include <cstdint>

#include "iq/iq.h"

namespace rb {

static_assert(sizeof(IqSample) == 4 && alignof(IqSample) == 2,
              "kernels reinterpret IqSample[] as a packed int16 stream");

/// Dispatch tiers; the higher one is preferred when the CPU supports it.
enum class KernelTier : std::uint8_t { Scalar = 0, Avx2 = 1 };
inline constexpr std::size_t kKernelTierCount = 2;

const char* kernel_tier_name(KernelTier t);

/// One tier's kernel table. All functions share the scalar reference
/// semantics exactly (see scalar.cpp, the executable specification).
struct IqKernelOps {
  KernelTier tier = KernelTier::Scalar;

  /// Largest |i| / |q| over n samples (|INT16_MIN| = 32768).
  std::uint32_t (*max_magnitude)(const IqSample* s, std::size_t n);

  /// BFP mantissa packing: for each sample emit the low `width` bits of
  /// (i >> shift) then (q >> shift) (arithmetic shift, two's complement
  /// truncation), MSB-first, into `out`. `out` must hold
  /// (2*n*width + 7) / 8 bytes and be zeroed (a final partial byte is
  /// OR-composed exactly like BitWriter's). Width 2..16.
  void (*pack_mantissas)(const IqSample* s, std::size_t n, int width,
                         unsigned shift, std::uint8_t* out);

  /// Inverse: read 2*n sign-extended `width`-bit mantissas, shift each
  /// left by `shift` and saturate to int16. `in` must hold
  /// (2*n*width + 7) / 8 readable bytes.
  void (*unpack_mantissas)(const std::uint8_t* in, std::size_t n, int width,
                           unsigned shift, IqSample* out);

  /// Element-wise saturating sum: dst[k] += src[k] (the DAS/dMIMO uplink
  /// combine kernel). Identical to rb::accumulate on equal-length spans.
  void (*accumulate_sat)(IqSample* dst, const IqSample* src, std::size_t n);

  /// CompMethod::None wire codec: big-endian u16 i then q per sample
  /// (4 bytes/sample). Buffers must hold n samples / 4*n bytes.
  void (*pack_none)(const IqSample* s, std::size_t n, std::uint8_t* out);
  void (*unpack_none)(const std::uint8_t* in, std::size_t n, IqSample* out);

  /// Test-model noise synthesis: one PRB (kScPerPrb samples) of uniform
  /// noise in [-a, a] drawn from the shared 32-bit LCG; advances *rng by
  /// 2*kScPerPrb steps. Draw-for-draw identical to the reference in
  /// kernels/noise.h (the RNG sequence is checkpointed RU state).
  void (*synth_noise_prb)(std::uint32_t* rng, std::int32_t a, IqSample* out);
};

/// The active kernel table. First call selects the best tier this CPU
/// supports and records it in rb::iqstats for telemetry.
const IqKernelOps& iq_ops();

/// Tier of the active table.
KernelTier iq_kernel_tier();

/// Kernel table of a specific tier, or nullptr when it is not compiled in
/// or not supported by this CPU. Used by the equivalence tests and the
/// per-tier benchmarks.
const IqKernelOps* iq_ops_for(KernelTier t);

/// Force the active tier (tests/benchmarks only; call from one thread
/// while no datapath is running). Returns false when unavailable.
bool iq_force_tier(KernelTier t);

}  // namespace rb
