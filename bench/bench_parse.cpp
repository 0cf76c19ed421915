// Perf-smoke for the burst-mode packet pipeline. Two sweeps:
//
// 1. GATED: batched header parse over a cache-cold packet arena, visited
//    in a pseudo-random (permuted) order the hardware prefetcher cannot
//    follow. Burst size 1 is the pre-batching idiom -- one packet per
//    arrival, parsed with an allocating parse (parse_frame_alloc below: a
//    fresh FhFrame per frame), no lookahead.
//    Burst size B >= 2 is the pipeline's parse pass: a reused SoA frame
//    table (parse_frame_into, capacity kept across packets) with software
//    prefetch of the next packet's header lines while the current one
//    parses. Batching is what creates the lookahead that makes prefetch
//    possible; packets/s at burst 32 must be >= 2x burst 1 (ISSUE 8).
//
// 2. Informative: end-to-end pump throughput (drain -> sort -> parse ->
//    classify -> dispatch -> tx) with B packets queued per pump, showing
//    how the per-pump overheads amortize. Not gated: per-packet dispatch
//    cost dominates, so this ratio is structurally modest.
//
// Also reports parse-stage microcosts (hot-cache ns/frame, allocating vs
// reused) and writes BENCH_parse.json into the working directory.
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/middlebox.h"
#include "iq/prb.h"

namespace rb {
namespace {

using Clock = std::chrono::steady_clock;

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The per-arrival parse the burst pipeline replaced: a fresh FhFrame (and
/// section vector) allocated and freed for every frame. Kept here as the
/// baseline of the burst gate and of the alloc-vs-reuse microcost.
std::optional<FhFrame> parse_frame_alloc(std::span<const std::uint8_t> frame,
                                         const FhContext& ctx) {
  FhFrame f;
  if (!parse_frame_into(frame, ctx, f)) return std::nullopt;
  return f;
}

struct Frames {
  FhContext ctx{};
  std::vector<std::uint8_t> cframe;
  std::vector<std::uint8_t> uframe;
  std::vector<std::uint8_t> usmall;

  Frames() {
    ctx.carrier_prbs = 273;
    EthHeader eth;
    eth.dst = MacAddr::ru(0);
    eth.src = MacAddr::du(0);
    eth.vlan_id = 6;

    CPlaneMsg c;
    c.direction = Direction::Downlink;
    c.comp = ctx.comp;
    CSection cs;
    cs.num_prb = 0;  // whole carrier
    cs.num_symbol = 14;
    c.sections.push_back(cs);
    cframe.resize(256);
    cframe.resize(build_cplane_frame(cframe, eth, EaxcId{}, 0, c, ctx));

    std::vector<IqSample> samples(273 * kScPerPrb);
    std::uint32_t rng = 5;
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
    uframe.resize(9216);
    uframe.resize(
        build_uplane_frame(uframe, eth, EaxcId{}, 0, u, std::span(&sec, 1),
                           ctx));

    // Small (8-PRB) U-plane frame for the pump sweep so the working set
    // stays cache-resident across burst sizes and the sweep measures
    // pipeline overheads, not memcpy bandwidth.
    USectionData small_sec;
    small_sec.num_prb = 8;
    small_sec.payload =
        std::span(payload).subspan(0, ctx.comp.prb_bytes() * 8);
    usmall.resize(512);
    usmall.resize(build_uplane_frame(usmall, eth, EaxcId{}, 0, u,
                                     std::span(&small_sec, 1), ctx));
  }
};

/// Cache-cold packet arena: kSlots frames laid out at kStride spacing in
/// one allocation, visited in full-period LCG order so consecutive parses
/// touch unpredictable addresses (as pool-recycled packets do in the
/// runtime). The touched footprint (~32 MiB) defeats typical LLCs.
struct Arena {
  static constexpr std::size_t kSlots = 1u << 16;
  static constexpr std::size_t kStride = 512;

  std::vector<std::uint8_t> mem;
  std::array<std::uint32_t, kSlots> order;  // permuted visit sequence
  std::array<std::uint16_t, kSlots> len;

  Arena(const Frames& f) : mem(kSlots * kStride) {
    std::uint32_t slot = 1;
    for (std::size_t i = 0; i < kSlots; ++i) {
      // 3:1 U-plane:C-plane, matching the pump mix.
      const auto& tmpl = (i % 4 == 3) ? f.cframe : f.usmall;
      std::copy(tmpl.begin(), tmpl.end(), mem.begin() + i * kStride);
      len[i] = std::uint16_t(tmpl.size());
      // Full-period LCG mod 2^16 (a % 8 == 5, c odd).
      order[i] = slot & (kSlots - 1);
      slot = slot * 1664525u + 1013904223u;
    }
  }

  std::span<const std::uint8_t> frame(std::uint32_t slot) const {
    return {mem.data() + std::size_t(slot) * kStride, len[slot]};
  }
};

/// Gated sweep: packets/s of the parse stage at a given burst size over
/// the cold arena. burst == 1 replays the per-arrival legacy path.
double parse_packets_per_s(const Arena& a, const FhContext& ctx,
                           std::size_t burst, std::size_t target_packets) {
  std::vector<FhFrame> table(burst);
  std::uint64_t sink = 0;
  const std::size_t passes =
      (target_packets + Arena::kSlots - 1) / Arena::kSlots;
  const auto t0 = Clock::now();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (std::size_t base = 0; base + burst <= Arena::kSlots; base += burst) {
      if (burst == 1) {
        auto f = parse_frame_alloc(a.frame(a.order[base]), ctx);
        if (f) sink += f->is_uplane();
      } else {
        for (std::size_t i = 0; i < burst; ++i) {
          if (i + 1 < burst) {
            const std::uint8_t* nx =
                a.mem.data() + std::size_t(a.order[base + i + 1]) * Arena::kStride;
            __builtin_prefetch(nx);
            __builtin_prefetch(nx + 64);
          }
          if (parse_frame_into(a.frame(a.order[base + i]), ctx, table[i]))
            sink += table[i].is_uplane();
        }
      }
    }
  }
  const double dt = secs_since(t0);
  const double pkts = double(passes) * double(Arena::kSlots / burst * burst);
  if (sink == 0) return 0.0;  // also keeps the parses observable
  return dt > 0 ? pkts / dt : 0.0;
}

/// Forwards everything south; the south port is left unwired so packets
/// die at TX and recycle through the pool magazine.
class ForwardApp final : public MiddleboxApp {
 public:
  std::string name() const override { return "fwd"; }
  void on_frame(int, PacketPtr p, FhFrame&, MbContext& ctx) override {
    ctx.forward(std::move(p), 1);
  }
};

/// End-to-end pump throughput with `burst` packets queued per pump pass.
double pump_packets_per_s(const Frames& f, std::size_t burst,
                          std::size_t target_packets) {
  ForwardApp app;
  MiddleboxRuntime::Config cfg;
  cfg.name = "bench";
  cfg.fh = f.ctx;
  MiddleboxRuntime rt(cfg, app);
  Port north{"north"}, south{"south"}, src{"src"};
  rt.add_port("north", north);
  rt.add_port("south", south);
  Port::connect(src, north, 0);

  const auto fill = [&](std::int64_t base_ns) {
    for (std::size_t k = 0; k < burst; ++k) {
      PacketPtr p = rt.pool().alloc();
      if (!p) return false;
      // 3:1 U-plane:C-plane mix, reverse arrival order to work the sort.
      const auto& tmpl = (k % 4 == 3) ? f.cframe : f.usmall;
      std::copy(tmpl.begin(), tmpl.end(), p->raw().begin());
      p->set_len(tmpl.size());
      p->rx_time_ns = base_ns + std::int64_t(burst - k);
      if (!src.send(std::move(p))) return false;
    }
    return true;
  };

  // Warm the burst descriptor, parse table and pool magazines.
  for (int w = 0; w < 8; ++w) {
    if (!fill(0)) return 0.0;
    rt.pump(0, 0);
  }

  // Refills are untimed: only the pump (drain -> sort -> parse ->
  // classify -> dispatch -> tx flush) counts toward packets/s.
  const std::size_t pumps = (target_packets + burst - 1) / burst;
  Clock::duration pumping{};
  for (std::size_t i = 0; i < pumps; ++i) {
    if (!fill(std::int64_t(i))) return 0.0;
    const auto t0 = Clock::now();
    rt.pump(0, 0);
    pumping += Clock::now() - t0;
  }
  const double dt = std::chrono::duration<double>(pumping).count();
  return dt > 0 ? double(pumps * burst) / dt : 0.0;
}

/// Parse-stage microcost (ns/frame): alloc-per-call parse_frame_alloc() vs the
/// reused-capacity parse_frame_into() of the burst path.
struct ParseCost {
  double alloc_ns = 0;
  double reuse_ns = 0;
};

ParseCost parse_cost(const std::vector<std::uint8_t>& frame,
                     const FhContext& ctx, int iters) {
  ParseCost r;
  {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
      auto f = parse_frame_alloc(frame, ctx);
      if (!f) return r;
    }
    r.alloc_ns = secs_since(t0) * 1e9 / iters;
  }
  {
    FhFrame reused;
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) {
      if (!parse_frame_into(frame, ctx, reused)) return r;
    }
    r.reuse_ns = secs_since(t0) * 1e9 / iters;
  }
  return r;
}

}  // namespace
}  // namespace rb

int main() {
  using namespace rb;
  const Frames f;
  const Arena arena(f);
  constexpr std::size_t kBursts[] = {1, 2, 4, 8, 16, 32};
  constexpr std::size_t kParseTarget = 2'000'000;
  constexpr std::size_t kPumpTarget = 400'000;
  constexpr int kReps = 3;  // best-of, to ride out scheduler noise

  printf("batched parse, cold %zu MiB arena, permuted order\n",
         Arena::kSlots * Arena::kStride >> 20);
  printf("%8s %16s\n", "burst", "packets/s");
  double parse_pps[std::size(kBursts)] = {};
  for (std::size_t i = 0; i < std::size(kBursts); ++i) {
    for (int r = 0; r < kReps; ++r)
      parse_pps[i] = std::max(
          parse_pps[i],
          parse_packets_per_s(arena, f.ctx, kBursts[i], kParseTarget));
    printf("%8zu %16.0f%s\n", kBursts[i], parse_pps[i],
           kBursts[i] == 1 ? "  (per-packet legacy path)" : "");
  }
  const double speedup =
      parse_pps[0] > 0 ? parse_pps[std::size(kBursts) - 1] / parse_pps[0] : 0;
  printf("speedup burst32/burst1: %.2fx (gate: >= 2x)\n\n", speedup);

  printf("end-to-end pump (parse->classify->act->tx), informative\n");
  printf("%8s %16s\n", "burst", "packets/s");
  double pump_pps[std::size(kBursts)] = {};
  for (std::size_t i = 0; i < std::size(kBursts); ++i) {
    for (int r = 0; r < kReps; ++r)
      pump_pps[i] =
          std::max(pump_pps[i], pump_packets_per_s(f, kBursts[i], kPumpTarget));
    printf("%8zu %16.0f\n", kBursts[i], pump_pps[i]);
  }
  const double pump_speedup =
      pump_pps[0] > 0 ? pump_pps[std::size(kBursts) - 1] / pump_pps[0] : 0;
  printf("pump speedup burst32/burst1: %.2fx\n\n", pump_speedup);

  const ParseCost cp = parse_cost(f.cframe, f.ctx, 2'000'000);
  const ParseCost up = parse_cost(f.uframe, f.ctx, 1'000'000);
  printf("hot parse cplane:       alloc %.1f ns  reused %.1f ns\n",
         cp.alloc_ns, cp.reuse_ns);
  printf("hot parse uplane jumbo: alloc %.1f ns  reused %.1f ns\n",
         up.alloc_ns, up.reuse_ns);

  FILE* js = fopen("BENCH_parse.json", "w");
  if (js) {
    const auto row = [&](const char* key, const double* v) {
      fprintf(js, "  \"%s\": {", key);
      for (std::size_t i = 0; i < std::size(kBursts); ++i)
        fprintf(js, "%s\"%zu\": %.0f", i ? ", " : "", kBursts[i], v[i]);
      fprintf(js, "},\n");
    };
    fprintf(js, "{\n");
    row("parse_packets_per_s", parse_pps);
    row("pump_packets_per_s", pump_pps);
    fprintf(js, "  \"parse_speedup_32_vs_1\": %.3f,\n", speedup);
    fprintf(js, "  \"pump_speedup_32_vs_1\": %.3f,\n", pump_speedup);
    fprintf(js, "  \"gate_min_parse_speedup\": 2.0,\n");
    fprintf(js, "  \"parse_ns_hot\": {\"cplane_alloc\": %.1f, "
                "\"cplane_reused\": %.1f, \"uplane_alloc\": %.1f, "
                "\"uplane_reused\": %.1f}\n",
            cp.alloc_ns, cp.reuse_ns, up.alloc_ns, up.reuse_ns);
    fprintf(js, "}\n");
    fclose(js);
    printf("wrote BENCH_parse.json\n");
  }
  if (speedup < 2.0) {
    printf("FAIL: parse burst32/burst1 speedup %.2fx below 2x gate\n",
           speedup);
    return 1;
  }
  printf("PASS\n");
  return 0;
}
