// Perf-smoke for the zero-copy replication datapath (ISSUE 10).
//
// GATED: fan a jumbo U-plane frame (273 PRBs, ~7.5 KB) out to N egress
// copies, each with its Ethernet MACs rewritten, the way das/dmimo
// broadcast one DU frame to every RU. Two implementations:
//
//   deep clone  - PacketPool::clone(): full-frame memcpy per egress, the
//                 pre-arena idiom.
//   zero-copy   - PacketPool::replicate(): copy only the private head
//                 (everything before the first section payload) and attach
//                 to the source's arena slot by refcount, DPDK
//                 indirect-mbuf style.
//
// Replicas/s for zero-copy at fan-out 8 must be >= 3x deep clone. Writes
// BENCH_replicate.json into the working directory.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "core/middlebox.h"
#include "iq/prb.h"

namespace rb {
namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Jumbo single-section U-plane frame plus the split offset replication
/// eligibility derives (the first section's payload start).
struct JumboFrame {
  FhContext ctx{};
  std::vector<std::uint8_t> frame;
  std::size_t split = 0;

  JumboFrame() {
    ctx.carrier_prbs = 273;
    EthHeader eth;
    eth.dst = MacAddr::ru(0);
    eth.src = MacAddr::du(0);
    eth.vlan_id = 6;

    std::vector<IqSample> samples(273 * kScPerPrb);
    std::uint32_t rng = 7;
    for (auto& s : samples) {
      rng = rng * 1664525u + 1013904223u;
      s.i = std::int16_t(rng >> 18);
      s.q = std::int16_t(rng >> 20);
    }
    std::vector<std::uint8_t> payload(ctx.comp.prb_bytes() * 273);
    compress_prbs(IqConstSpan(samples.data(), samples.size()), ctx.comp,
                  payload);
    UPlaneMsg u;
    u.direction = Direction::Downlink;
    USectionData sec;
    sec.num_prb = 273;
    sec.payload = payload;
    frame.resize(9216);
    frame.resize(
        build_uplane_frame(frame, eth, EaxcId{}, 0, u, std::span(&sec, 1),
                           ctx));
    FhFrame parsed;
    if (parse_frame_into(frame, ctx, parsed) && parsed.is_uplane() &&
        !parsed.uplane().sections.empty())
      split = parsed.uplane().sections[0].payload_offset;
  }
};

/// Rounds of replicas kept in flight before release. Models the egress
/// queues the copies sit in on the way out: the buffer a new copy lands in
/// was last touched many rounds (megabytes of traffic) ago, so the deep
/// clone pays for its memcpy against cold destinations the way a real
/// multi-RU broadcast does, instead of recycling a couple of L2-hot slots.
constexpr std::size_t kInflightRounds = 64;

/// One fan-out round: produce `fanout` egress copies of `src`, rewrite
/// each copy's MACs (the per-egress byte mutation das/dmimo do), and read
/// one payload byte so the copy is observable.
template <typename MakeCopy>
std::uint64_t fan_round(std::size_t fanout, std::size_t split,
                        std::vector<PacketPtr>& out, MakeCopy make) {
  std::uint64_t sink = 0;
  for (std::size_t n = 0; n < fanout; ++n) {
    PacketPtr r = make();
    if (!r) return sink;
    auto head = r->mutable_prefix(14);
    head[5] = std::uint8_t(n);  // per-egress MAC rewrite
    sink += r->bytes(split)[0];
    out.push_back(std::move(r));
  }
  return sink;
}

/// Replicas/s at a given fan-out for one copy strategy.
template <typename MakeCopy>
double replicas_per_s(std::size_t fanout, std::size_t split,
                      std::size_t iters, MakeCopy make) {
  std::vector<std::vector<PacketPtr>> ring(kInflightRounds);
  for (auto& slot : ring) slot.reserve(fanout);
  std::uint64_t sink = 0;
  std::size_t round = 0;
  const auto step = [&] {
    auto& slot = ring[round++ % kInflightRounds];
    slot.clear();  // release the round that aged out of the window
    sink += fan_round(fanout, split, slot, make);
  };
  // Warm the pool magazines and fill the in-flight window.
  for (std::size_t w = 0; w < kInflightRounds + 16; ++w) step();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) step();
  const double dt = secs_since(t0);
  if (sink == std::uint64_t(-1)) return 0.0;  // keep the reads observable
  return dt > 0 ? double(iters * fanout) / dt : 0.0;
}

}  // namespace
}  // namespace rb

int main() {
  using namespace rb;
  const JumboFrame f;
  if (f.split == 0 || f.split >= f.frame.size()) {
    printf("FAIL: could not derive a payload split from the jumbo frame\n");
    return 1;
  }
  printf("jumbo frame %zu bytes, private head (split) %zu bytes\n",
         f.frame.size(), f.split);

  // Sized for fan-out 16 x the in-flight window plus headroom; the ~19 MB
  // arena also keeps clone destinations out of mid-level caches.
  PacketPool pool(2048);
  PacketPtr src = pool.alloc();
  std::copy(f.frame.begin(), f.frame.end(), src->raw().begin());
  src->set_len(f.frame.size());

  constexpr std::size_t kFanouts[] = {1, 2, 4, 8, 16};
  constexpr std::size_t kTargetReplicas = 160'000;
  constexpr int kReps = 3;  // best-of, to ride out scheduler noise
  constexpr double kGate = 3.0;

  double clone_pps[std::size(kFanouts)] = {};
  double zc_pps[std::size(kFanouts)] = {};
  double speedup[std::size(kFanouts)] = {};
  printf("%8s %18s %18s %10s\n", "fanout", "clone repl/s", "zerocopy repl/s",
         "speedup");
  for (std::size_t i = 0; i < std::size(kFanouts); ++i) {
    const std::size_t fo = kFanouts[i];
    const std::size_t iters = kTargetReplicas / fo;
    for (int r = 0; r < kReps; ++r) {
      clone_pps[i] =
          std::max(clone_pps[i], replicas_per_s(fo, f.split, iters, [&] {
                     return pool.clone(*src);
                   }));
      zc_pps[i] =
          std::max(zc_pps[i], replicas_per_s(fo, f.split, iters, [&] {
                     return pool.replicate(*src, f.split);
                   }));
    }
    speedup[i] = clone_pps[i] > 0 ? zc_pps[i] / clone_pps[i] : 0;
    printf("%8zu %18.0f %18.0f %9.2fx\n", fo, clone_pps[i], zc_pps[i],
           speedup[i]);
  }
  const double gate_speedup = speedup[3];  // fan-out 8
  printf("speedup at fan-out 8: %.2fx (gate: >= %.0fx)\n", gate_speedup,
         kGate);
  printf("pool: %llu zero-copy replicas, %llu CoW promotions, %llu "
         "fallbacks\n",
         (unsigned long long)pool.replicas_zero_copy(),
         (unsigned long long)pool.cow_promotions(),
         (unsigned long long)pool.cow_fallbacks());

  FILE* js = fopen("BENCH_replicate.json", "w");
  if (js) {
    const auto row = [&](const char* key, const double* v, const char* fmt) {
      fprintf(js, "  \"%s\": {", key);
      for (std::size_t i = 0; i < std::size(kFanouts); ++i) {
        fprintf(js, "%s\"%zu\": ", i ? ", " : "", kFanouts[i]);
        fprintf(js, fmt, v[i]);
      }
      fprintf(js, "},\n");
    };
    fprintf(js, "{\n");
    fprintf(js, "  \"frame_bytes\": %zu,\n", f.frame.size());
    fprintf(js, "  \"split_bytes\": %zu,\n", f.split);
    row("clone_replicas_per_s", clone_pps, "%.0f");
    row("zero_copy_replicas_per_s", zc_pps, "%.0f");
    row("speedup", speedup, "%.3f");
    fprintf(js, "  \"speedup_fanout8\": %.3f,\n", gate_speedup);
    fprintf(js, "  \"gate_min_speedup\": %.1f\n", kGate);
    fprintf(js, "}\n");
    fclose(js);
    printf("wrote BENCH_replicate.json\n");
  }
  if (gate_speedup < kGate) {
    printf("FAIL: zero-copy %.2fx below %.0fx gate at fan-out 8\n",
           gate_speedup, kGate);
    return 1;
  }
  printf("PASS\n");
  return 0;
}
