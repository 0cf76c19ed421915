// Unit tests for the RANBooster core: cache, telemetry, management,
// runtime accounting and chaining.
#include <gtest/gtest.h>

#include <sstream>

#include "core/chain.h"
#include "core/mgmt.h"
#include "core/middlebox.h"

namespace rb {
namespace {

TEST(PacketCache, KeySeparatesStreams) {
  const SlotPoint at{1, 2, 0, 3};
  const EaxcId a{0, 0, 0, 1}, b{0, 0, 0, 2};
  EXPECT_NE(PacketCache::key(at, a, false), PacketCache::key(at, b, false));
  EXPECT_NE(PacketCache::key(at, a, false), PacketCache::key(at, a, true));
  EXPECT_NE(PacketCache::key(at, a, false, 1),
            PacketCache::key(at, a, false, 2));
  SlotPoint at2 = at;
  at2.symbol = 7;
  EXPECT_NE(PacketCache::key(at, a, false), PacketCache::key(at2, a, false));
  // slot_key ignores the symbol.
  EXPECT_EQ(PacketCache::slot_key(at, a, false),
            PacketCache::slot_key(at2, a, false));
}

TEST(PacketCache, PutPeekTakeErase) {
  PacketPool pool(8);
  PacketCache cache;
  auto mk = [&](int port) {
    CachedPacket e;
    e.pkt = pool.alloc();
    e.in_port = port;
    return e;
  };
  cache.put(1, mk(0));
  cache.put(1, mk(1));
  cache.put(2, mk(2));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.keys(), 2u);
  EXPECT_EQ(cache.peek(1).size(), 2u);
  EXPECT_TRUE(cache.peek(99).empty());
  auto batch = cache.take(1);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(cache.size(), 1u);
  cache.erase(2);
  EXPECT_EQ(cache.size(), 0u);
  cache.put(3, mk(0));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(pool.in_use(), 2u);  // `batch` still holds its two packets
}

TEST(Telemetry, CountersAndGauges) {
  Telemetry t;
  t.inc("a");
  t.inc("a", 4);
  t.set_gauge("g", 0.5);
  EXPECT_EQ(t.counter("a"), 5u);
  EXPECT_EQ(t.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(t.gauge("g"), 0.5);
  EXPECT_NE(t.dump().find("a=5"), std::string::npos);
}

TEST(Telemetry, PubSubDeliversToAllSubscribers) {
  Telemetry t;
  int calls = 0;
  t.subscribe([&](const TelemetrySample& s) {
    EXPECT_EQ(s.key, "k");
    ++calls;
  });
  t.subscribe([&](const TelemetrySample&) { ++calls; });
  t.publish({7, "k", 1.0});
  EXPECT_EQ(calls, 2);
}

/// Minimal app used to exercise the runtime.
class EchoApp final : public MiddleboxApp {
 public:
  std::string name() const override { return "echo"; }
  void on_frame(int in_port, PacketPtr p, FhFrame&, MbContext& ctx) override {
    ctx.charge(1'000);
    ctx.forward(std::move(p), in_port == 0 ? 1 : 0);
  }
  std::string on_mgmt(const std::string& cmd) override {
    return cmd == "ping" ? "pong" : "unknown command";
  }
};

struct RuntimeRig {
  EchoApp app;
  MiddleboxRuntime rt;
  Port in_ext{"in_ext"}, out_ext{"out_ext"};
  Port in{"in"}, out{"out"};

  explicit RuntimeRig(DriverKind driver = DriverKind::Dpdk, int workers = 1)
      : rt(make_cfg(driver, workers), app) {
    rt.add_port("north", in);
    rt.add_port("south", out);
    Port::connect(in_ext, in, 0);
    Port::connect(out_ext, out, 0);
  }
  static MiddleboxRuntime::Config make_cfg(DriverKind driver, int workers) {
    MiddleboxRuntime::Config c;
    c.name = "echo";
    c.driver = driver;
    c.n_workers = workers;
    return c;
  }
  PacketPtr make_cplane_packet(std::int64_t rx_time) {
    CPlaneMsg m;
    m.sections.push_back({});
    auto p = PacketPool::default_pool().alloc();
    const std::size_t len = build_cplane_frame(
        p->raw(), EthHeader{}, EaxcId{}, 0, m, FhContext{});
    p->set_len(len);
    p->rx_time_ns = rx_time;
    return p;
  }
};

TEST(Runtime, ForwardsAcrossPortsAndChargesLatency) {
  RuntimeRig rig;
  rig.in_ext.send(rig.make_cplane_packet(100));
  ASSERT_TRUE(rig.rt.pump(0, 0));
  std::vector<PacketPtr> rx;
  ASSERT_EQ(rig.out_ext.rx_burst(rx), 1u);
  // 1000ns handler charge is reflected in the virtual timestamp.
  EXPECT_GE(rx[0]->rx_time_ns, 1'100);
  EXPECT_EQ(rig.rt.telemetry().counter("pkts_forwarded"), 1u);
}

TEST(Runtime, WorkerQueueingSerializesCosts) {
  RuntimeRig rig(DriverKind::Dpdk, 1);
  for (int i = 0; i < 3; ++i) rig.in_ext.send(rig.make_cplane_packet(0));
  rig.rt.pump(0, 0);
  std::vector<PacketPtr> rx;
  ASSERT_EQ(rig.out_ext.rx_burst(rx), 3u);
  // One worker: completion times stack up ~1us apart.
  EXPECT_GE(rx[2]->rx_time_ns, 3'000);
  EXPECT_EQ(rig.rt.last_slot_max_latency_ns(), 0);  // reported next slot
  rig.rt.begin_slot(1);
  EXPECT_GE(rig.rt.last_slot_max_latency_ns(), 3'000);
}

TEST(Runtime, TwoWorkersHalveTheQueueing) {
  RuntimeRig rig(DriverKind::Dpdk, 2);
  for (int i = 0; i < 4; ++i) rig.in_ext.send(rig.make_cplane_packet(0));
  rig.rt.pump(0, 0);
  std::vector<PacketPtr> rx;
  rig.out_ext.rx_burst(rx);
  std::int64_t max_t = 0;
  for (auto& p : rx) max_t = std::max(max_t, p->rx_time_ns);
  EXPECT_LE(max_t, 2'200);  // 2 per worker
}

TEST(Runtime, XdpUtilizationTracksTraffic) {
  RuntimeRig rig(DriverKind::Xdp);
  rig.rt.reset_cpu(0);
  EXPECT_DOUBLE_EQ(rig.rt.cpu_utilization(1'000'000), 0.0);
  for (int i = 0; i < 10; ++i) rig.in_ext.send(rig.make_cplane_packet(0));
  rig.rt.pump(0, 0);
  const double u = rig.rt.cpu_utilization(1'000'000);
  EXPECT_GT(u, 0.01);
  EXPECT_LT(u, 1.0);
}

TEST(Runtime, DpdkUtilizationAlwaysFull) {
  RuntimeRig rig(DriverKind::Dpdk);
  EXPECT_DOUBLE_EQ(rig.rt.cpu_utilization(123456), 1.0);
}

TEST(Runtime, BurstHistogramsTrackPumpShape) {
  RuntimeRig rig;
  // A 1-packet straggler pump: one chunk of occupancy 1.
  rig.in_ext.send(rig.make_cplane_packet(10));
  ASSERT_TRUE(rig.rt.pump(0, 0));
  EXPECT_EQ(rig.rt.burst_size_hist().count, 1u);
  EXPECT_EQ(rig.rt.burst_size_hist().bucket[0], 1u);  // le=1
  EXPECT_EQ(rig.rt.burst_occupancy_hist().bucket[0], 1u);

  // 33 packets across both ports in one pump: one full 32-slot chunk
  // plus a 1-packet tail chunk, mixed-port and out of arrival order.
  for (int i = 0; i < 33; ++i) {
    auto p = rig.make_cplane_packet(1000 - i);
    (i % 2 ? rig.out_ext : rig.in_ext).send(std::move(p));
  }
  ASSERT_TRUE(rig.rt.pump(0, 0));
  const auto& size = rig.rt.burst_size_hist();
  EXPECT_EQ(size.count, 2u);
  EXPECT_EQ(size.sum, 34u);
  EXPECT_EQ(size.count - size.bucket[5], 1u);  // the >32 drain
  const auto& occ = rig.rt.burst_occupancy_hist();
  EXPECT_EQ(occ.count, 3u);
  EXPECT_EQ(occ.sum, 34u);
  EXPECT_EQ(occ.bucket[0], 2u);                   // two 1-packet chunks
  EXPECT_EQ(occ.bucket[5] - occ.bucket[4], 1u);   // one full 32 chunk

  // Idle pumps are not recorded: the histograms describe productive
  // drains only.
  EXPECT_FALSE(rig.rt.pump(0, 0));
  EXPECT_EQ(rig.rt.burst_size_hist().count, 2u);
}

TEST(Runtime, NonFronthaulGoesToOnOther) {
  RuntimeRig rig;
  auto p = PacketPool::default_pool().alloc();
  p->raw()[12] = 0x08;  // IPv4 ethertype
  p->set_len(64);
  rig.in_ext.send(std::move(p));
  rig.rt.pump(0, 0);
  EXPECT_EQ(rig.rt.telemetry().counter("non_fh_rx"), 1u);
  EXPECT_EQ(rig.rt.telemetry().counter("pkts_dropped"), 1u);  // default drop
}

/// Replicates each frame once and drops both copies, so a handler's whole
/// modeled cost is its A2 charge.
class ReplicateOnceApp final : public MiddleboxApp {
 public:
  std::string name() const override { return "replicate_once"; }
  void on_frame(int, PacketPtr p, FhFrame&, MbContext& ctx) override {
    ctx.drop(ctx.replicate(*p));
    ctx.drop(std::move(p));
  }
};

TEST(Runtime, ReplicateChargesModeledA2Cost) {
  ReplicateOnceApp app;
  MiddleboxRuntime::Config cfg;
  cfg.name = "a2cost";
  MiddleboxRuntime rt(cfg, app);
  Port src{"src"}, in{"in"};
  rt.add_port("north", in);
  Port::connect(src, in, 0);
  std::vector<double> costs;
  rt.set_cost_sampler([&](const FhFrame* f, double ns) {
    ASSERT_NE(f, nullptr);
    costs.push_back(ns);
  });
  const FhContext fh;
  const auto send = [&](std::span<const USectionData> secs) {
    auto p = PacketPool::default_pool().alloc();
    UPlaneMsg u;
    u.direction = Direction::Downlink;
    p->set_len(build_uplane_frame(p->raw(), EthHeader{}, EaxcId{}, 0, u,
                                  secs, fh));
    const std::size_t len = p->len();
    src.send(std::move(p));
    return len;
  };
  const std::vector<std::uint8_t> payload(fh.comp.prb_bytes() * 10, 0x5a);
  USectionData a;
  a.num_prb = 10;
  a.payload = payload;
  USectionData b = a;
  b.section_id = 1;
  b.start_prb = 10;
  const USectionData two[] = {a, b};
  send(std::span(&a, 1));
  const std::size_t two_len = send(two);
  auto cp = PacketPool::default_pool().alloc();
  CPlaneMsg m;
  m.sections.push_back({});
  cp->set_len(build_cplane_frame(cp->raw(), EthHeader{}, EaxcId{}, 0, m, fh));
  const std::size_t cp_len = cp->len();
  src.send(std::move(cp));
  ASSERT_TRUE(rt.pump(0, 0));

  const WorkCosts& w = cfg.work;
  const auto clone_cost = [&](std::size_t len) {
    return w.clone_base_ns + w.clone_per_kb_ns * double(len) / 1024.0;
  };
  ASSERT_EQ(costs.size(), 3u);
  // Single-section U-plane, payload to the end of the frame.
  EXPECT_DOUBLE_EQ(costs[0], w.replicate_ref_ns);
  EXPECT_DOUBLE_EQ(costs[1], clone_cost(two_len));  // two sections
  EXPECT_DOUBLE_EQ(costs[2], clone_cost(cp_len));   // C-plane
  EXPECT_EQ(rt.telemetry().counter("pkts_replicated"), 3u);
  EXPECT_EQ(rt.pool().in_use(), 0u);
}

TEST(Runtime, CacheClearedAtSlotBoundary) {
  RuntimeRig rig;
  CachedPacket e;
  e.pkt = PacketPool::default_pool().alloc();
  rig.rt.cache().put(5, std::move(e));
  EXPECT_EQ(rig.rt.cache().size(), 1u);
  rig.rt.begin_slot(1);
  EXPECT_EQ(rig.rt.cache().size(), 0u);
}

TEST(Mgmt, BuiltinAndAppCommands) {
  RuntimeRig rig;
  MgmtEndpoint mgmt(rig.rt);
  EXPECT_EQ(mgmt.handle("name"), "echo");
  rig.rt.telemetry().inc("foo", 3);
  EXPECT_EQ(mgmt.handle("counter foo"), "3");
  rig.rt.telemetry().set_gauge("bar", 2.5);
  EXPECT_EQ(mgmt.handle("gauge bar").substr(0, 3), "2.5");
  EXPECT_NE(mgmt.handle("stats").find("foo=3"), std::string::npos);
  EXPECT_EQ(mgmt.handle("ping"), "pong");  // delegated to the app
}

TEST(Mgmt, UnknownVerbListsRegisteredVerbs) {
  RuntimeRig rig;
  MgmtEndpoint mgmt(rig.rt);
  const std::string reply = mgmt.handle("nonsense");
  // The reply names the offending verb and every registered core verb.
  EXPECT_NE(reply.find("unknown verb 'nonsense'"), std::string::npos);
  for (const char* verb :
       {"help", "stats", "name", "counter", "gauge", "cpuinfo", "prom",
        "ctrl", "obs", "state", "reconfig"})
    EXPECT_NE(reply.find(verb), std::string::npos) << verb;
  // And points at the app's own verbs.
  EXPECT_NE(reply.find("echo"), std::string::npos);
}

TEST(Mgmt, HelpListsEveryVerbWithDescription) {
  RuntimeRig rig;
  MgmtEndpoint mgmt(rig.rt);
  const std::string help = mgmt.handle("help");
  std::istringstream verbs(MgmtEndpoint::verb_list());
  std::string verb;
  int n = 0;
  while (verbs >> verb) {
    EXPECT_NE(help.find("  " + verb + " - "), std::string::npos) << verb;
    ++n;
  }
  EXPECT_GE(n, 11);
}

TEST(Mgmt, StateVerbRoundTripsRuntimeState) {
  RuntimeRig rig;
  MgmtEndpoint mgmt(rig.rt);
  rig.rt.telemetry().inc("foo", 7);
  const std::string hex = mgmt.handle("state save");
  EXPECT_FALSE(hex.empty());
  EXPECT_EQ(hex.find("error"), std::string::npos);
  rig.rt.telemetry().inc("foo", 1);  // diverge
  EXPECT_EQ(mgmt.handle("state load " + hex), "ok");
  EXPECT_EQ(rig.rt.telemetry().counter("foo"), 7u);
  // Garbage is rejected with a typed error, not UB.
  EXPECT_EQ(mgmt.handle("state load zz"), "error: not a hex blob");
  EXPECT_NE(mgmt.handle("state load deadbeef").find("error:"),
            std::string::npos);
  EXPECT_NE(mgmt.handle("state info").find("bytes="), std::string::npos);
}

TEST(Chain, WiresStagesAndAccountsPcie) {
  EchoApp app1, app2;
  MiddleboxRuntime rt1(RuntimeRig::make_cfg(DriverKind::Dpdk, 1), app1);
  MiddleboxRuntime rt2(RuntimeRig::make_cfg(DriverKind::Dpdk, 1), app2);
  ChainBuilder chain;
  const ChainPorts p1 = chain.append(rt1);
  const ChainPorts p2 = chain.append(rt2);
  EXPECT_EQ(p1.north, 0);
  EXPECT_EQ(p1.south, 1);
  EXPECT_EQ(p2.north, 0);
  Port north("north"), south("south");
  chain.finalize(north, south);

  RuntimeRig helper;  // only for packet building
  north.send(helper.make_cplane_packet(0));
  rt1.pump(0, 0);
  rt2.pump(0, 0);
  std::vector<PacketPtr> rx;
  ASSERT_EQ(south.rx_burst(rx), 1u);
  // The frame crossed two inter-stage hops with modeled PCIe latency.
  EXPECT_GE(rx[0]->rx_time_ns, 2 * ChainBuilder::kHopLatencyNs);
  EXPECT_GT(chain.pcie_bytes(), 0u);
  EXPECT_EQ(chain.num_stages(), 2u);
}

TEST(Chain, RefusesDoubleFinalizeAndEmpty) {
  ChainBuilder empty;
  Port a("a"), b("b");
  EXPECT_THROW(empty.finalize(a, b), std::logic_error);
  EchoApp app;
  MiddleboxRuntime rt(RuntimeRig::make_cfg(DriverKind::Dpdk, 1), app);
  ChainBuilder chain;
  chain.append(rt);
  Port c("c"), d("d");
  chain.finalize(c, d);
  EXPECT_THROW(chain.finalize(c, d), std::logic_error);
  EXPECT_THROW(chain.append(rt), std::logic_error);
}

}  // namespace
}  // namespace rb
