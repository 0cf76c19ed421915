// Parallel execution: the worker pool's fork-join contract, and the core
// guarantee — a parallel city conductor produces packet-for-packet the
// same results as the serial one.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/worker_pool.h"
#include "rigs.h"

namespace rb {
namespace {

// ----------------------------------------------------------------------
// Worker pool
// ----------------------------------------------------------------------

/// What XLink and the obs trace buffers rely on: every job runs exactly
/// once per run(), on its pinned worker (worker 0 is the caller), after
/// the earlier jobs pinned to that worker, and its plain (non-atomic)
/// writes are visible to the caller once run() returns. Under TSan a
/// missing happens-before edge shows up as a race report on the plain
/// fields.
TEST(WorkerPool, RunsEachJobOnceOnItsPinnedWorkerAndPublishesItsWrites) {
  for (const int n : {1, 3}) {
    exec::WorkerPool pool(n);
    ASSERT_EQ(pool.size(), n);

    struct Probe {
      int index = 0;
      int worker = -1;
      std::thread::id thread;
      std::vector<int> runs;  // one plain append per run
      std::vector<std::vector<int>>* order = nullptr;  // per-worker log
    };
    constexpr int kJobs = 64;
    const auto nw = std::size_t(n);
    std::vector<std::vector<int>> order(nw);
    std::vector<Probe> probes(kJobs);
    std::vector<exec::WorkerPool::Job> jobs;
    std::vector<std::vector<int>> expect_order(nw);
    auto fn = +[](void* arg, int worker) {
      auto* p = static_cast<Probe*>(arg);
      p->worker = worker;
      p->thread = std::this_thread::get_id();
      p->runs.push_back(int(p->runs.size()) + 1);
      (*p->order)[std::size_t(worker)].push_back(p->index);
    };
    for (int i = 0; i < kJobs; ++i) {
      probes[std::size_t(i)] = {i, -1, {}, {}, &order};
      // The last job names an out-of-range worker: clamped to worker 0.
      const bool clamped = i == kJobs - 1;
      jobs.push_back({fn, &probes[std::size_t(i)], clamped ? n + 5 : i % n});
      expect_order[std::size_t(clamped ? 0 : i % n)].push_back(i);
    }

    for (int batch = 1; batch <= 50; ++batch) {
      for (auto& o : order) o.clear();
      pool.run(jobs);
      // Each worker ran exactly its jobs, in batch order.
      ASSERT_EQ(order, expect_order) << "batch " << batch;
      std::vector<std::thread::id> thread_of(nw);
      for (const Probe& p : probes) {
        ASSERT_EQ(p.runs.size(), std::size_t(batch)) << "job " << p.index;
        ASSERT_EQ(p.runs.back(), batch);
        // One thread per worker; worker 0 is the caller's own thread.
        auto& t = thread_of[std::size_t(p.worker)];
        if (t == std::thread::id()) t = p.thread;
        ASSERT_EQ(p.thread, t) << "job " << p.index;
        ASSERT_EQ(p.thread == std::this_thread::get_id(), p.worker == 0);
      }
      for (int w = 1; w < n; ++w)
        for (int v = 0; v < w; ++v)
          ASSERT_NE(thread_of[std::size_t(v)], thread_of[std::size_t(w)]);
    }
  }
}

// ----------------------------------------------------------------------
// Telemetry interning + publish reentrancy (satellites a and f)
// ----------------------------------------------------------------------

TEST(TelemetryExec, InternedAndStringApisShareOneStore) {
  Telemetry t;
  const auto id = t.intern("hot");
  EXPECT_EQ(id, t.intern("hot"));  // idempotent
  t.inc(id, 5);
  t.inc("hot", 2);
  EXPECT_EQ(t.counter(id), 7u);
  EXPECT_EQ(t.counter("hot"), 7u);
  EXPECT_EQ(t.counter("never_bumped"), 0u);  // lookup must not intern junk
  const auto snap = t.counters();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap.at("hot"), 7u);
}

TEST(TelemetryExec, SubscribingFromInsideCallbackIsSafe) {
  Telemetry t;
  int outer = 0, inner = 0;
  t.subscribe([&](const TelemetrySample&) {
    ++outer;
    if (outer == 1)
      t.subscribe([&](const TelemetrySample&) { ++inner; });  // reentrant
  });
  t.publish({0, "k", 1.0});  // must not invalidate the iteration
  t.publish({1, "k", 2.0});
  EXPECT_EQ(outer, 2);
  EXPECT_EQ(inner, 1);  // late subscriber sees only the second sample
}

// ----------------------------------------------------------------------
// Determinism: parallel conductor == serial conductor, packet for packet
// ----------------------------------------------------------------------

/// The DAS e2e cell (one 100 MHz cell over five floor RUs) and an
/// independent direct-wired cell as two city shards, run for `slots`
/// under a conductor with `workers` threads. Returns the city
/// fingerprint plus every port's byte counters, so a packet lost,
/// duplicated or resized anywhere shows up.
std::string run_scenario(int workers, int slots) {
  city::City c(workers);
  add_das5_cell(*c.add_cell("c0").dep);
  add_direct_cell(*c.add_cell("c1").dep);
  c.run_slots(slots);

  const Deployment& das = *c.cell(0).dep;
  EXPECT_GT(das.runtimes.front()->telemetry().counter("pkts_replicated"), 0u);
  std::uint64_t dl = 0, ul = 0;
  std::ostringstream os;
  os << c.fingerprint();
  for (std::size_t i = 0; i < c.num_cells(); ++i) {
    const Deployment& d = *c.cell(i).dep;
    for (UeId ue = 0; ue < UeId(d.air.num_ues()); ++ue) {
      dl += d.air.dl_bits(ue);
      ul += d.air.ul_bits(ue);
    }
    for (const auto& p : d.ports)
      os << p->name() << " tx=" << p->stats().tx_bytes
         << " rx=" << p->stats().rx_bytes << "\n";
  }
  EXPECT_GT(dl, 0u);
  EXPECT_GT(ul, 0u);
  return os.str();
}

TEST(ExecDeterminism, ParallelMatchesSerialPacketForPacket) {
  constexpr int kSlots = 240;  // covers attach, PRACH, and steady traffic
  const std::string serial = run_scenario(0, kSlots);
  EXPECT_EQ(run_scenario(1, kSlots), serial);
  EXPECT_EQ(run_scenario(2, kSlots), serial);
}

}  // namespace
}  // namespace rb
