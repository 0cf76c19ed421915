// Observability overhead: wall-clock cost of the obs subsystem on the
// Figure 12 chain (two MNO DUs -> rushare -> das -> switch -> 4 RUs),
// the most instrumented scenario in the repo (every span type fires:
// packet, action, combine, tx, link, slot).
//
// Modes: obs disabled (the baseline every production run pays: one
// relaxed atomic load per instrumentation site) vs obs enabled (buffer
// appends + per-slot barrier merge + budget/histogram folding). The
// enabled mode must stay under 5% overhead; CI gates on the exit code.
// A 100-slot Perfetto/Chrome trace of the chain is written as a side
// product (first argv, default BENCH_obs_trace.json).
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "obs/export.h"
#include "obs/obs.h"

namespace rb {
namespace {

constexpr int kWarmupSlots = 200;
constexpr int kMeasureSlots = 500;

struct Result {
  double wall_ms = 0;
  double slots_per_s = 0;
  std::uint64_t events = 0;
};

Result run_mode(bool obs_on) {
  auto& col = obs::Collector::instance();
  col.reset();  // both modes start from a disabled, empty collector
  bench::Fig12Chain rig;
  rig.d.engine.run_slots(kWarmupSlots);

  if (obs_on) {
    obs::ObsConfig cfg;
    cfg.tracing = false;  // budgets/histograms only: the steady-state mode
    col.start(cfg);
  }
  const auto t0 = std::chrono::steady_clock::now();
  rig.d.engine.run_slots(kMeasureSlots);
  const auto t1 = std::chrono::steady_clock::now();

  Result r;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.slots_per_s = double(kMeasureSlots) * 1000.0 / r.wall_ms;
  r.events = col.total_events();
  col.reset();
  return r;
}

/// 100-slot fully-traced run; returns the Chrome-trace/Perfetto JSON.
std::string capture_trace() {
  auto& col = obs::Collector::instance();
  bench::Fig12Chain rig;
  rig.d.engine.run_slots(kWarmupSlots);
  col.start();  // tracing on: retain the raw spans
  rig.d.engine.run_slots(100);
  col.stop();
  std::string json = obs::chrome_trace_json(col);
  col.reset();
  return json;
}

}  // namespace
}  // namespace rb

int main(int argc, char** argv) {
  using namespace rb;

  bench::header("Observability overhead: tracing on vs off, Fig.12 chain",
                "src/obs acceptance gate (<5% enabled, exit code enforced)");
  bench::row("rushare+das chain, %d measured slots", kMeasureSlots);
  bench::row("");
  bench::row("%-10s %12s %12s %10s %14s", "mode", "wall ms", "slots/s",
             "overhead", "events merged");

  // Best-of-three per mode: the comparison is against scheduler noise.
  const auto best = [](bool obs_on) {
    Result r = run_mode(obs_on);
    for (int i = 0; i < 2; ++i) {
      Result again = run_mode(obs_on);
      if (again.wall_ms < r.wall_ms) r = again;
    }
    return r;
  };
  const Result off = best(false);
  const Result on = best(true);

  const double overhead = (on.wall_ms - off.wall_ms) / off.wall_ms;
  bench::row("%-10s %12.1f %12.1f %10s %14llu", "off", off.wall_ms,
             off.slots_per_s, "-", (unsigned long long)off.events);
  bench::row("%-10s %12.1f %12.1f %9.2f%% %14llu", "on", on.wall_ms,
             on.slots_per_s, overhead * 100.0, (unsigned long long)on.events);

  const bool ok = overhead < 0.05;
  bench::row("");
  bench::row("enabled overhead under 5%%: %s", ok ? "yes" : "NO");

  // Perfetto artifact: a fully-traced 100-slot window of the same chain.
  const std::string trace_path =
      argc > 1 ? argv[1] : "BENCH_obs_trace.json";
  const std::string json = capture_trace();
  if (std::FILE* f = std::fopen(trace_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    bench::row("wrote %s (%zu bytes; open at https://ui.perfetto.dev)",
               trace_path.c_str(), json.size());
  }

  if (std::FILE* f = std::fopen("BENCH_obs_overhead.json", "w")) {
    std::fprintf(f,
                 "{\n  \"measure_slots\": %d,\n  \"off_wall_ms\": %.2f,\n"
                 "  \"on_wall_ms\": %.2f,\n  \"overhead\": %.4f,\n"
                 "  \"overhead_ok\": %s,\n  \"events_merged\": %llu\n}\n",
                 kMeasureSlots, off.wall_ms, on.wall_ms, overhead,
                 ok ? "true" : "false", (unsigned long long)on.events);
    std::fclose(f);
    bench::row("wrote BENCH_obs_overhead.json");
  }
  return ok ? 0 : 1;
}
