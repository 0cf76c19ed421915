// Seeded chaos soak: every middlebox deployment runs for thousands of
// slots under mixed fronthaul faults (loss, bursts, jitter, reordering,
// duplication, corruption, flaps) and must neither crash nor stall, keep
// carrying traffic, and replay bit-identically for the same seed on both
// a serial and a parallel city conductor.
#include <gtest/gtest.h>

#include "rigs.h"

namespace rb {
namespace {

/// The chaos soak stamped into `cells` city cells (cell i seeded
/// seed + i) under a conductor with `workers` threads; returns the
/// city fingerprint (every runtime counter, fault link, DU stat and UE
/// result in every cell).
std::string run_das_chaos(std::uint64_t seed, int cells, int workers,
                          int slots) {
  DasChaosCity c(cells, workers);
  EXPECT_TRUE(c.city.attach_all(600));
  for (std::size_t i = 0; i < c.cells.size(); ++i)
    c.cells[i]->add_chaos(seed + i);
  c.city.run_slots(slots);
  return c.city.fingerprint();
}

TEST(ChaosDas, SoakSurvivesMixedFaults) {
  DasChaosRig rig;
  ASSERT_TRUE(rig.d.attach_all(600));
  rig.add_chaos(0xdead5eed);
  const int slots = 2000;
  rig.d.engine.run_slots(slots);

  // Faults really fired...
  const auto& f0 = rig.d.faults[0]->stats_ab();
  const auto& f1 = rig.d.faults[1]->stats_ab();
  EXPECT_GT(f0.iid_loss, 0u);
  EXPECT_GT(f1.burst_loss + f1.reordered, 0u);
  EXPECT_GT(rig.d.faults[1]->stats_ba().corrupted, 0u);
  // ...the combiner degraded instead of stalling...
  EXPECT_GT(rig.rt->telemetry().counter("das_partial_merges"), 0u);
  EXPECT_EQ(rig.rt->telemetry().counter("das_combiner_stalls"), 0u);
  // ...the cache stayed bounded (stale leftovers are swept every slot,
  // never accumulated)...
  EXPECT_LT(rig.rt->telemetry().counter("cache_stale"),
            std::uint64_t(slots) * 32);
  // ...and the cell still carries traffic in both directions.
  rig.d.measure(200);
  EXPECT_GT(rig.total_dl(), 10.0);
  EXPECT_GT(rig.total_ul(), 1.0);
}

TEST(ChaosDas, SameSeedReplaysByteIdentical) {
  const std::string a = run_das_chaos(42, 1, 0, 600);
  const std::string b = run_das_chaos(42, 1, 0, 600);
  EXPECT_EQ(a, b);
  const std::string c = run_das_chaos(43, 1, 0, 600);
  EXPECT_NE(a, c);  // the seed is actually load-bearing
}

TEST(ChaosDas, ParallelMatchesSerial) {
  const std::string serial = run_das_chaos(42, 3, 0, 600);
  const std::string parallel = run_das_chaos(42, 3, 3, 600);
  EXPECT_EQ(serial, parallel);
}

// ----------------------------------------------------------------------
// Burst-pipeline determinism: the pump moves packets in 32-slot chunks;
// the chunking must be invisible to the packet-level outcome.
// ----------------------------------------------------------------------

/// Bursty-arrival cocktail: heavy jitter smears per-symbol streams so
/// pumps see anything from 1-packet stragglers to multi-chunk pileups;
/// reorder + duplication mix ports and break arrival monotonicity.
void add_bursty_faults(DasChaosRig& rig, std::uint64_t seed) {
  FaultPlan ul0;  // floor 0 uplink: strong jitter (straggler generator)
  ul0.jitter_ns = 120'000;
  ul0.seed = seed ^ 0xc1;
  FaultPlan dl0;
  dl0.delay_ns = 30'000;
  dl0.seed = seed ^ 0xc2;
  rig.d.add_fault(*rig.rus[0].port, ul0, dl0);
  FaultPlan ul1;  // floor 1 uplink: reordering + duplication + jitter
  ul1.reorder = 0.05;
  ul1.duplicate = 0.03;
  ul1.jitter_ns = 60'000;
  ul1.seed = seed ^ 0xd1;
  FaultPlan dl1;
  dl1.seed = seed ^ 0xd2;
  rig.d.add_fault(*rig.rus[1].port, ul1, dl1);
}

/// The bursty soak stamped into `cells` city cells (cell i seeded
/// seed + i); returns the city fingerprint and cell 0's histograms.
std::string run_das_bursty(std::uint64_t seed, int cells, int workers,
                           int slots, MiddleboxRuntime::BurstHist* size_hist,
                           MiddleboxRuntime::BurstHist* occ_hist) {
  DasChaosCity c(cells, workers);
  EXPECT_TRUE(c.city.attach_all(600));
  for (std::size_t i = 0; i < c.cells.size(); ++i)
    add_bursty_faults(*c.cells[i], seed + i);
  c.city.run_slots(slots);
  *size_hist = c.cells[0]->rt->burst_size_hist();
  *occ_hist = c.cells[0]->rt->burst_occupancy_hist();
  return c.city.fingerprint();
}

TEST(BurstDeterminism, BurstySoakSerialMatchesParallel4) {
  // 2000-slot soak under the bursty cocktail in four cells: the serial
  // conductor and a 4-worker one run each cell's pumps on different
  // threads, yet every counter, fault stat and air-interface bit count
  // must agree.
  constexpr int kSlots = 2000;
  MiddleboxRuntime::BurstHist size_s{}, occ_s{}, size_p{}, occ_p{};
  const std::string serial =
      run_das_bursty(7, 4, 0, kSlots, &size_s, &occ_s);
  const std::string parallel =
      run_das_bursty(7, 4, 4, kSlots, &size_p, &occ_p);
  EXPECT_EQ(serial, parallel);
  // Each cell runs the serial engine under either conductor, so even
  // the pump chunking matches.
  EXPECT_EQ(size_s.bucket, size_p.bucket);
  EXPECT_EQ(occ_s.bucket, occ_p.bucket);

  // The soak exercised the arrival shapes the burst pipeline
  // special-cases: small straggler drains (jitter/reorder releases) and
  // pileups deep enough to fill whole 32-slot dispatch chunks (a drain
  // beyond one chunk implies at least one full chunk). Exact 1-packet
  // bursts are covered deterministically by Runtime.BurstHistograms.
  ASSERT_GT(occ_s.count, 0u);
  EXPECT_GT(occ_s.bucket[2], 0u);                    // <=4-packet chunks
  EXPECT_GT(size_s.count - size_s.bucket[5], 0u);    // pumps > 32 packets
}

TEST(BurstDeterminism, BurstySoakSameSeedReplaysHistograms) {
  // Same seed + same mode replays the exact pump chunking, histograms
  // included (they are checkpointed state).
  MiddleboxRuntime::BurstHist sa{}, oa{}, sb{}, ob{};
  const std::string a = run_das_bursty(11, 1, 0, 600, &sa, &oa);
  const std::string b = run_das_bursty(11, 1, 0, 600, &sb, &ob);
  EXPECT_EQ(a, b);
  EXPECT_EQ(sa.bucket, sb.bucket);
  EXPECT_EQ(sa.count, sb.count);
  EXPECT_EQ(sa.sum, sb.sum);
  EXPECT_EQ(oa.bucket, ob.bucket);
  EXPECT_EQ(oa.count, ob.count);
  EXPECT_EQ(oa.sum, ob.sum);
}

TEST(ChaosDas, OnePercentUplinkLossKeepsThroughput) {
  // Acceptance: under 1% i.i.d. uplink loss the DAS cell keeps >90% of
  // its lossless uplink throughput with zero combiner stalls.
  double base_ul = 0;
  {
    DasChaosRig rig;
    ASSERT_TRUE(rig.d.attach_all(600));
    rig.d.measure(400);
    base_ul = rig.total_ul();
    ASSERT_GT(base_ul, 1.0);
  }
  DasChaosRig rig;
  ASSERT_TRUE(rig.d.attach_all(600));
  for (auto& ru : rig.rus) {
    FaultPlan ul;
    ul.loss = 0.01;
    ul.seed = 0x1055u + std::uint64_t(ru.index);
    rig.d.add_fault(*ru.port, ul);
  }
  rig.d.measure(400);
  EXPECT_GT(rig.total_ul(), base_ul * 0.9);
  EXPECT_GT(rig.rt->telemetry().counter("das_partial_merges"), 0u);
  EXPECT_EQ(rig.rt->telemetry().counter("das_combiner_stalls"), 0u);
}

TEST(ChaosDmimo, QuietPartnerFallsBackAndRecovers) {
  Deployment d;
  CellConfig c = cell100();
  c.max_layers = 2;
  auto du = d.add_du(c, srsran_profile(), 0);
  RuSite s1;
  s1.pos = d.plan.ru_position(0, 1);
  s1.n_antennas = 1;
  s1.bandwidth = MHz(100);
  s1.center_freq = du.du->config().cell.center_freq;
  RuSite s2 = s1;
  s2.pos.x += 5.0;
  auto ru1 = d.add_ru(s1, 0, du.du->fh());
  auto ru2 = d.add_ru(s2, 1, du.du->fh());
  auto& rt = d.add_dmimo(du, {&ru1, &ru2});
  Position pos = s1.pos;
  pos.x += 2.5;
  pos.y += 4.33;
  const UeId ue = d.add_ue(pos, &du, 600.0, 50.0);
  ASSERT_TRUE(d.attach_all(400));

  // RU 2's uplink goes silent for 300 slots (its downlink still works, as
  // when its PA keeps radiating but the fronthaul RX path died).
  const std::int64_t s0 = d.engine.current_slot();
  FaultPlan quiet;
  quiet.flaps = {{s0 + 10, s0 + 310}};
  d.add_fault(*ru2.port, quiet);

  d.engine.run_slots(200);
  EXPECT_GE(rt.telemetry().counter("dmimo_ru_fallbacks"), 1u);
  EXPECT_GT(rt.telemetry().counter("dmimo_fallback_drops"), 0u);
  EXPECT_EQ(rt.telemetry().gauge("dmimo_rus_live"), 1.0);
  // Single-RU degraded service: the UE stays attached and keeps moving
  // data through the surviving RU.
  EXPECT_TRUE(d.air.is_attached(ue));
  d.measure(100);
  EXPECT_GT(d.dl_mbps(ue), 1.0);

  // The partner comes back: layers are restored.
  d.engine.run_slots(150);
  EXPECT_GE(rt.telemetry().counter("dmimo_ru_recoveries"), 1u);
  EXPECT_EQ(rt.telemetry().gauge("dmimo_rus_live"), 2.0);
  d.measure(200);
  EXPECT_GT(d.dl_mbps(ue), 10.0);
}

TEST(ChaosRushare, CorruptionIsQuarantinedNotForwarded) {
  Deployment d;
  const Hertz ru_center = GHz(3) + MHz(460);
  RuSite s;
  s.pos = d.plan.ru_position(0, 1);
  s.n_antennas = 4;
  s.bandwidth = MHz(100);
  s.center_freq = ru_center;
  auto cell40 = [](Hertz center, std::uint16_t pci) {
    CellConfig c;
    c.bandwidth = MHz(40);
    c.center_freq = center;
    c.max_layers = 4;
    c.pci = pci;
    return c;
  };
  const Hertz ca =
      aligned_du_center_frequency(ru_center, 273, 106, 10, Scs::kHz30);
  const Hertz cb =
      aligned_du_center_frequency(ru_center, 273, 106, 150, Scs::kHz30);
  auto du_a = d.add_du(cell40(ca, 1), srsran_profile(), 0);
  auto du_b = d.add_du(cell40(cb, 2), srsran_profile(), 1);
  auto ru = d.add_ru(s, 0, du_a.du->fh());
  auto& rt = d.add_rushare({&du_a, &du_b}, ru);
  const UeId ue_a = d.add_ue(d.plan.near_ru(0, 1, 5.0), &du_a, 300.0, 30.0, 1);
  const UeId ue_b = d.add_ue(d.plan.near_ru(0, 1, -5.0), &du_b, 300.0, 30.0, 2);
  ASSERT_TRUE(d.attach_all(600));

  // Tenant A's link corrupts 2% of frames in both directions; a corrupted
  // frame either fails the typed parsers or is quarantined by the
  // semantic checks - it must never leak into tenant B's slice.
  FaultPlan bad;
  bad.corrupt = 0.02;
  bad.corrupt_bits = 4;
  bad.seed = 0xc0ffee;
  d.add_fault(*du_a.port, bad, bad);
  d.engine.run_slots(2000);

  std::uint64_t rejected = 0;
  for (const auto& [k, v] : rt.telemetry().counters())
    if (k.rfind("parse_reject_", 0) == 0) rejected += v;
  rejected += rt.telemetry().counter("rushare_quarantine_src_mac");
  rejected += rt.telemetry().counter("rushare_quarantine_geometry");
  EXPECT_GT(rejected, 0u);

  // Both tenants still carry traffic (B is fault-free and must be
  // unaffected beyond scheduler noise).
  d.measure(300);
  EXPECT_GT(d.dl_mbps(ue_b), 10.0);
  EXPECT_GT(d.dl_mbps(ue_a), 1.0);
}

}  // namespace
}  // namespace rb
