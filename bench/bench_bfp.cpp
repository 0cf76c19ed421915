// Microbenchmark: BFP codec throughput (the per-PRB kernels every A4
// payload action is built on), across mantissa widths and PRB counts.
//
// Besides the google-benchmark micro suite (which runs on the default
// dispatched tier), a per-tier gate compares every available SIMD tier
// against scalar at the wire width (9) and writes BENCH_iq_kernels.json;
// the process exits non-zero when the best SIMD tier is under the
// required speedup - CI runs this as the perf-smoke check.
//
//   bench_bfp [--json=PATH] [--gate-only] [google-benchmark flags]
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "iq/kernels/kernels.h"
#include "iq/prb.h"

namespace rb {
namespace {

std::vector<IqSample> make_samples(int n_prb, std::uint32_t seed) {
  std::vector<IqSample> v(std::size_t(n_prb) * kScPerPrb);
  std::uint32_t rng = seed;
  for (auto& s : v) {
    rng = rng * 1664525u + 1013904223u;
    s.i = std::int16_t(rng >> 18);
    rng = rng * 1664525u + 1013904223u;
    s.q = std::int16_t(rng >> 18);
  }
  return v;
}

void BM_BfpCompress(benchmark::State& state) {
  const int n_prb = int(state.range(0));
  const int width = int(state.range(1));
  const CompConfig cfg{CompMethod::BlockFloatingPoint, width};
  auto samples = make_samples(n_prb, 1);
  std::vector<std::uint8_t> out(cfg.prb_bytes() * std::size_t(n_prb));
  for (auto _ : state) {
    auto r = compress_prbs(IqConstSpan(samples.data(), samples.size()), cfg,
                           out);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n_prb);
}
BENCHMARK(BM_BfpCompress)
    ->Args({106, 9})
    ->Args({273, 9})
    ->Args({273, 14});

void BM_BfpDecompress(benchmark::State& state) {
  const int n_prb = int(state.range(0));
  const int width = int(state.range(1));
  const CompConfig cfg{CompMethod::BlockFloatingPoint, width};
  auto samples = make_samples(n_prb, 2);
  std::vector<std::uint8_t> comp(cfg.prb_bytes() * std::size_t(n_prb));
  compress_prbs(IqConstSpan(samples.data(), samples.size()), cfg, comp);
  std::vector<IqSample> out(samples.size());
  for (auto _ : state) {
    auto r = decompress_prbs(comp, n_prb, cfg,
                             IqSpan(out.data(), out.size()));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n_prb);
}
BENCHMARK(BM_BfpDecompress)
    ->Args({106, 9})
    ->Args({273, 9})
    ->Args({273, 14});

void BM_ExponentScan(benchmark::State& state) {
  // Algorithm 1's primitive: exponent read without decompression.
  const int n_prb = 273;
  const CompConfig cfg{CompMethod::BlockFloatingPoint, 9};
  auto samples = make_samples(n_prb, 3);
  std::vector<std::uint8_t> comp(cfg.prb_bytes() * std::size_t(n_prb));
  compress_prbs(IqConstSpan(samples.data(), samples.size()), cfg, comp);
  for (auto _ : state) {
    int hot = 0;
    for (int k = 0; k < n_prb; ++k)
      hot += bfp_wire_exponent(
                 std::span(comp).subspan(std::size_t(k) * cfg.prb_bytes())) > 2;
    benchmark::DoNotOptimize(hot);
  }
  state.SetItemsProcessed(state.iterations() * n_prb);
}
BENCHMARK(BM_ExponentScan);

void BM_MergePayloads(benchmark::State& state) {
  // The DAS uplink combine at 273 PRBs for N RUs.
  const int n_rus = int(state.range(0));
  const int n_prb = 273;
  const CompConfig cfg{CompMethod::BlockFloatingPoint, 9};
  auto samples = make_samples(n_prb, 4);
  std::vector<std::uint8_t> comp(cfg.prb_bytes() * std::size_t(n_prb));
  compress_prbs(IqConstSpan(samples.data(), samples.size()), cfg, comp);
  const std::vector<std::span<const std::uint8_t>> srcs(
      std::size_t(n_rus), std::span<const std::uint8_t>{comp});
  const std::vector<CompConfig> cfgs(std::size_t(n_rus), cfg);
  std::vector<std::uint8_t> dst(comp.size());
  PrbScratch scratch;
  for (auto _ : state) {
    auto r = merge_compressed(srcs, cfgs, n_prb, cfg, dst, scratch);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * n_prb);
}
BENCHMARK(BM_MergePayloads)->Arg(2)->Arg(4)->Arg(5);

// ----------------------------------------------------------------------
// Per-tier gate
// ----------------------------------------------------------------------

/// Best-of-three wall seconds per call, auto-calibrated to >= 20 ms runs.
template <typename F>
double seconds_per_call(F&& f) {
  using clock = std::chrono::steady_clock;
  long iters = 1;
  for (;;) {
    auto t0 = clock::now();
    for (long k = 0; k < iters; ++k) f();
    double best = std::chrono::duration<double>(clock::now() - t0).count();
    if (best < 0.02) {
      iters *= 4;
      continue;
    }
    for (int rep = 0; rep < 2; ++rep) {
      auto t1 = clock::now();
      for (long k = 0; k < iters; ++k) f();
      const double dt =
          std::chrono::duration<double>(clock::now() - t1).count();
      if (dt < best) best = dt;
    }
    return best / double(iters);
  }
}

struct TierRow {
  KernelTier tier;
  int width;
  double comp_prb_per_s;
  double decomp_prb_per_s;
};

constexpr int kGatePrbs = 273;   // 100 MHz carrier
constexpr int kGateWidth = 9;    // the wire width
constexpr double kGateSpeedup = 1.5;

TierRow measure_tier(KernelTier tier, int width) {
  const CompConfig cfg{CompMethod::BlockFloatingPoint, width};
  auto samples = make_samples(kGatePrbs, 11);
  std::vector<std::uint8_t> comp(cfg.prb_bytes() * std::size_t(kGatePrbs));
  std::vector<IqSample> out(samples.size());
  const double comp_s = seconds_per_call([&] {
    auto r =
        compress_prbs(IqConstSpan(samples.data(), samples.size()), cfg, comp);
    benchmark::DoNotOptimize(r);
  });
  const double decomp_s = seconds_per_call([&] {
    auto r =
        decompress_prbs(comp, kGatePrbs, cfg, IqSpan(out.data(), out.size()));
    benchmark::DoNotOptimize(r);
  });
  return TierRow{tier, width, double(kGatePrbs) / comp_s,
                 double(kGatePrbs) / decomp_s};
}

int run_kernel_gate(const std::string& json_path) {
  const KernelTier initial = iq_kernel_tier();
  std::vector<TierRow> rows;
  std::vector<KernelTier> tiers;
  for (std::size_t t = 0; t < kKernelTierCount; ++t)
    if (iq_ops_for(KernelTier(t)) != nullptr) tiers.push_back(KernelTier(t));

  std::printf("\nper-kernel-tier codec throughput (%d PRBs)\n", kGatePrbs);
  std::printf("%-8s %6s | %16s %16s\n", "tier", "width", "compress PRB/s",
              "decompress PRB/s");
  for (KernelTier t : tiers) {
    iq_force_tier(t);
    for (int width : {kGateWidth, 14}) {
      rows.push_back(measure_tier(t, width));
      const TierRow& r = rows.back();
      std::printf("%-8s %6d | %16.0f %16.0f\n", kernel_tier_name(t), width,
                  r.comp_prb_per_s, r.decomp_prb_per_s);
    }
  }
  iq_force_tier(initial);

  // Gate: best SIMD tier vs scalar at the wire width, both directions.
  double scal_c = 0, scal_d = 0, simd_c = 0, simd_d = 0;
  for (const TierRow& r : rows) {
    if (r.width != kGateWidth) continue;
    if (r.tier == KernelTier::Scalar) {
      scal_c = r.comp_prb_per_s;
      scal_d = r.decomp_prb_per_s;
    } else {
      if (r.comp_prb_per_s > simd_c) simd_c = r.comp_prb_per_s;
      if (r.decomp_prb_per_s > simd_d) simd_d = r.decomp_prb_per_s;
    }
  }
  const bool have_simd = simd_c > 0;
  const double su_c = have_simd && scal_c > 0 ? simd_c / scal_c : 0;
  const double su_d = have_simd && scal_d > 0 ? simd_d / scal_d : 0;
  const bool pass =
      !have_simd || (su_c >= kGateSpeedup && su_d >= kGateSpeedup);

  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"n_prb\": %d,\n  \"default_tier\": \"%s\",\n",
                 kGatePrbs, kernel_tier_name(initial));
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const TierRow& r = rows[k];
      std::fprintf(f,
                   "    {\"tier\": \"%s\", \"width\": %d, "
                   "\"compress_prb_per_s\": %.0f, "
                   "\"decompress_prb_per_s\": %.0f}%s\n",
                   kernel_tier_name(r.tier), r.width, r.comp_prb_per_s,
                   r.decomp_prb_per_s, k + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"gate\": {\"width\": %d, \"required_speedup\": "
                 "%.2f, \"skipped\": %s, \"compress_speedup\": %.3f, "
                 "\"decompress_speedup\": %.3f, \"pass\": %s}\n}\n",
                 kGateWidth, kGateSpeedup, have_simd ? "false" : "true",
                 su_c, su_d, pass ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }

  if (!have_simd) {
    std::printf("gate: no SIMD tier on this host - skipped\n");
    return 0;
  }
  std::printf(
      "gate (width %d): compress %.2fx, decompress %.2fx vs scalar "
      "(need >= %.2fx): %s\n",
      kGateWidth, su_c, su_d, kGateSpeedup, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace rb

int main(int argc, char** argv) {
  std::string json_path = "BENCH_iq_kernels.json";
  bool gate_only = false;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int k = 1; k < argc; ++k) {
    if (std::strncmp(argv[k], "--json=", 7) == 0) {
      json_path = argv[k] + 7;
    } else if (std::strcmp(argv[k], "--gate-only") == 0) {
      gate_only = true;
    } else {
      args.push_back(argv[k]);
    }
  }
  int bargc = int(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (!gate_only) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return rb::run_kernel_gate(json_path);
}
