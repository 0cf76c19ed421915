// Parallel execution scaling: wall-clock speedup of the city conductor
// over its serial reference on a multi-cell DAS deployment (the software
// analogue of the paper's claim in 6.4.1 that adding CPU cores scales the
// middlebox past its single-core budget).
//
// Six independent 100 MHz DAS cells (4 floor RUs each), one per city cell
// shard, run the same slot schedule on a serial conductor and on 1, 2, 4
// and 8 workers. Besides the timing table the bench cross-checks
// determinism: every conductor must produce an identical city fingerprint
// (exit 1 otherwise). Results land in BENCH_exec_scaling.json.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "city/city.h"

namespace rb {
namespace {

constexpr int kCells = 6;
constexpr int kRusPerCell = 4;
constexpr int kWarmupSlots = 160;
constexpr int kMeasureSlots = 400;

std::unique_ptr<city::City> build(int workers) {
  auto c = std::make_unique<city::City>(workers);
  for (int cell = 0; cell < kCells; ++cell) {
    Deployment& d = *c->add_cell("c" + std::to_string(cell)).dep;
    const CellConfig cfg = bench::cell_cfg(
        MHz(100), kBand78Center + MHz(120) * cell,
        std::uint16_t(cell + 1));
    auto du = d.add_du(cfg, srsran_profile(), std::uint8_t(cell));
    std::vector<Deployment::RuHandle> rus;
    std::vector<Deployment::RuHandle*> ptrs;
    for (int f = 0; f < kRusPerCell; ++f)
      rus.push_back(d.add_ru(bench::ru_site(d.plan.ru_position(f, 1), 4,
                                            MHz(100), cfg.center_freq),
                             std::uint8_t(f), du.du->fh()));
    for (auto& r : rus) ptrs.push_back(&r);
    d.add_das(du, ptrs, DriverKind::Dpdk, 2);
    for (int f = 0; f < kRusPerCell; ++f)
      d.add_ue(d.plan.near_ru(f, 1, 4.0), &du, 150.0, 15.0, int(cell + 1));
  }
  c->finalize();
  return c;
}

struct Result {
  std::string label;
  double wall_ms = 0;
  double slots_per_s = 0;
  std::string fingerprint;
  std::uint64_t dl_bits = 0;
};

Result run_conductor(int workers) {
  auto c = build(workers);
  c->run_slots(kWarmupSlots);

  const auto t0 = std::chrono::steady_clock::now();
  c->run_slots(kMeasureSlots);
  const auto t1 = std::chrono::steady_clock::now();

  Result r;
  r.label = workers == 0 ? "serial" : "par" + std::to_string(workers);
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.slots_per_s = double(kMeasureSlots) * 1000.0 / r.wall_ms;
  r.fingerprint = c->fingerprint();
  for (std::size_t i = 0; i < c->num_cells(); ++i) {
    const AirModel& air = c->cell(i).dep->air;
    for (UeId ue = 0; ue < UeId(air.num_ues()); ++ue)
      r.dl_bits += air.dl_bits(ue);
  }
  return r;
}

}  // namespace
}  // namespace rb

int main() {
  using namespace rb;

  bench::header("Parallel execution scaling (city conductor)",
                "section 6.4.1 (multi-core middlebox scaling), this repo's "
                "src/city conductor on the src/exec worker pool");
  const unsigned hw = std::thread::hardware_concurrency();
  bench::row("%d DAS cells x %d RUs, 100 MHz, one cell per shard, %d "
             "measured slots",
             kCells, kRusPerCell, kMeasureSlots);
  bench::row("host cores: %u%s", hw,
             hw < 4 ? "  (wall-clock speedup needs >= n_workers cores; on "
                      "fewer cores this bench measures conductor overhead "
                      "and checks determinism)"
                    : "");
  bench::row("");
  bench::row("%-10s %12s %12s %9s %16s", "conductor", "wall ms", "slots/s",
             "speedup", "DL bits");

  std::vector<Result> results;
  for (int n : {0, 1, 2, 4, 8}) results.push_back(run_conductor(n));

  const double base = results[1].wall_ms;  // speedup vs 1 worker
  bool deterministic = true;
  for (const auto& r : results) {
    if (r.fingerprint != results[0].fingerprint) deterministic = false;
    bench::row("%-10s %12.1f %12.1f %8.2fx %16llu", r.label.c_str(),
               r.wall_ms, r.slots_per_s, base / r.wall_ms,
               static_cast<unsigned long long>(r.dl_bits));
  }
  bench::row("");
  bench::row("deterministic fingerprints: %s", deterministic ? "yes" : "NO");

  std::FILE* f = std::fopen("BENCH_exec_scaling.json", "w");
  if (f) {
    std::fprintf(f, "{\n  \"cells\": %d,\n  \"rus_per_cell\": %d,\n", kCells,
                 kRusPerCell);
    std::fprintf(f, "  \"host_cores\": %u,\n", hw);
    std::fprintf(f, "  \"measure_slots\": %d,\n  \"deterministic\": %s,\n",
                 kMeasureSlots, deterministic ? "true" : "false");
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(f,
                   "    {\"conductor\": \"%s\", \"wall_ms\": %.2f, "
                   "\"slots_per_s\": %.1f, \"speedup_vs_par1\": %.3f, "
                   "\"dl_bits\": %llu}%s\n",
                   r.label.c_str(), r.wall_ms, r.slots_per_s,
                   base / r.wall_ms,
                   static_cast<unsigned long long>(r.dl_bits),
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    bench::row("wrote BENCH_exec_scaling.json");
  }
  return deterministic ? 0 : 1;
}
