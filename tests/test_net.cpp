// Unit tests for the packet I/O substrate: pools, ports, switch, NIC/VFs,
// drivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "net/driver.h"
#include "net/nic.h"
#include "net/packet.h"
#include "net/switch.h"

namespace rb {
namespace {

TEST(PacketPool, AllocReleaseCycle) {
  PacketPool pool(4);
  EXPECT_EQ(pool.capacity(), 4u);
  {
    auto a = pool.alloc();
    auto b = pool.alloc();
    ASSERT_TRUE(a && b);
    EXPECT_EQ(pool.in_use(), 2u);
  }
  EXPECT_EQ(pool.in_use(), 0u);  // RAII return
}

TEST(PacketPool, ExhaustionReturnsNull) {
  PacketPool pool(2);
  auto a = pool.alloc();
  auto b = pool.alloc();
  auto c = pool.alloc();
  EXPECT_TRUE(a && b);
  EXPECT_FALSE(c);
  EXPECT_EQ(pool.alloc_failures(), 1u);
}

TEST(PacketPool, CloneCopiesDataAndMetadata) {
  PacketPool pool(4);
  auto p = pool.alloc();
  auto raw = p->raw();
  raw[0] = 0xab;
  raw[99] = 0xcd;
  p->set_len(100);
  p->rx_time_ns = 777;
  auto c = pool.clone(*p);
  ASSERT_TRUE(c);
  EXPECT_EQ(c->len(), 100u);
  EXPECT_EQ(c->data()[0], 0xab);
  EXPECT_EQ(c->data()[99], 0xcd);
  EXPECT_EQ(c->rx_time_ns, 777);
}

TEST(Packet, SetLenClampsToCapacity) {
  PacketPool pool(1);
  auto p = pool.alloc();
  p->set_len(1 << 20);
  EXPECT_EQ(p->len(), kPacketCapacity);
}

// Build a packet with a recognizable pattern: bytes [0, split) hold 0x11,
// the "payload" [split, len) holds 0x22.
PacketPtr patterned(PacketPool& pool, std::size_t split, std::size_t len) {
  auto p = pool.alloc();
  auto raw = p->raw();
  std::fill(raw.begin(), raw.begin() + split, 0x11);
  std::fill(raw.begin() + split, raw.begin() + len, 0x22);
  p->set_len(len);
  return p;
}

TEST(PacketPoolShared, CrossThreadReplicaSoak) {
  // Packets die on different threads than the one that allocated them:
  // one producer fans each frame out to N consumer threads (deep-clone
  // replicas, the original moved to the last one, as switch flooding
  // does), which read, write and release. TSan-checked in CI.
  constexpr int kConsumers = 3;
  constexpr int kRounds = 2000;
  PacketPool pool(256);
  std::mutex mu[kConsumers];
  std::vector<PacketPtr> q[kConsumers];
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      std::uint64_t local = 0;
      for (;;) {
        PacketPtr p;
        {
          std::lock_guard<std::mutex> lk(mu[c]);
          if (!q[c].empty()) {
            p = std::move(q[c].back());
            q[c].pop_back();
          }
        }
        if (p) {
          local += p->bytes(32)[0] + p->bytes(0, 32)[0];
          p->data()[40] ^= 0x1;  // every replica owns its bytes
        } else if (done.load(std::memory_order_acquire)) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
      sum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  constexpr std::size_t kMaxQueueDepth = 16;  // backpressure: don't outrun
  for (int i = 0; i < kRounds; ++i) {         // the consumers and drain the pool
    auto p = patterned(pool, 32, 256);
    ASSERT_TRUE(p);
    for (int c = 0; c < kConsumers; ++c) {
      PacketPtr r = c + 1 < kConsumers ? pool.clone(*p) : std::move(p);
      ASSERT_TRUE(r);
      for (;;) {
        {
          std::lock_guard<std::mutex> lk(mu[c]);
          if (q[c].size() < kMaxQueueDepth) {
            q[c].push_back(std::move(r));
            break;
          }
        }
        std::this_thread::yield();
      }
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : consumers) t.join();
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_GT(sum.load(), 0u);
  // Pool integrity after the cross-thread release churn.
  std::vector<PacketPtr> all;
  for (std::size_t i = 0; i < pool.capacity(); ++i) {
    all.push_back(pool.alloc());
    ASSERT_TRUE(all.back());
  }
}

TEST(Port, SendDeliversWithLatency) {
  PacketPool pool(4);
  Port a("a"), b("b");
  Port::connect(a, b, 1500);
  auto p = pool.alloc();
  p->set_len(64);
  p->rx_time_ns = 1000;
  ASSERT_TRUE(a.send(std::move(p)));
  std::vector<PacketPtr> rx;
  ASSERT_EQ(b.rx_burst(rx), 1u);
  EXPECT_EQ(rx[0]->rx_time_ns, 2500);
  EXPECT_EQ(a.stats().tx_packets, 1u);
  EXPECT_EQ(b.stats().rx_packets, 1u);
}

TEST(Port, UnconnectedSendDrops) {
  PacketPool pool(2);
  Port a("a");
  auto p = pool.alloc();
  p->set_len(10);
  EXPECT_FALSE(a.send(std::move(p)));
  EXPECT_EQ(pool.in_use(), 0u);  // buffer returned
}

TEST(Port, LinkDownDropsTraffic) {
  PacketPool pool(2);
  Port a("a"), b("b");
  Port::connect(a, b, 100);
  b.set_link_up(false);
  auto p = pool.alloc();
  p->set_len(10);
  EXPECT_FALSE(a.send(std::move(p)));
  b.set_link_up(true);
  auto q = pool.alloc();
  q->set_len(10);
  EXPECT_TRUE(a.send(std::move(q)));
}

TEST(Port, RxQueueOverflowCountsDrops) {
  PacketPool pool(16);
  Port a("a"), b("b", /*rx_queue_cap=*/2);
  Port::connect(a, b, 0);
  for (int i = 0; i < 5; ++i) {
    auto p = pool.alloc();
    p->set_len(8);
    a.send(std::move(p));
  }
  EXPECT_EQ(b.rx_pending(), 2u);
  EXPECT_EQ(b.stats().rx_dropped, 3u);
}

PacketPtr frame_to(const MacAddr& dst, const MacAddr& src) {
  auto p = PacketPool::default_pool().alloc();
  auto raw = p->raw();
  std::copy(dst.bytes.begin(), dst.bytes.end(), raw.begin());
  std::copy(src.bytes.begin(), src.bytes.end(), raw.begin() + 6);
  raw[12] = 0xae;
  raw[13] = 0xfe;
  p->set_len(64);
  return p;
}

TEST(EmbeddedSwitch, LearnsAndForwards) {
  EmbeddedSwitch sw("sw");
  Port e1("e1"), e2("e2"), e3("e3");
  Port::connect(e1, sw.add_port("p1"), 0);
  Port::connect(e2, sw.add_port("p2"), 0);
  Port::connect(e3, sw.add_port("p3"), 0);

  // Unknown destination floods (e2 and e3 get copies).
  e1.send(frame_to(MacAddr::ru(2), MacAddr::du(1)));
  std::vector<PacketPtr> rx;
  EXPECT_EQ(e2.rx_burst(rx), 1u);
  rx.clear();
  EXPECT_EQ(e3.rx_burst(rx), 1u);
  rx.clear();
  EXPECT_EQ(sw.flooded(), 1u);

  // Reply teaches the switch where du(1) lives; now unicast.
  e2.send(frame_to(MacAddr::du(1), MacAddr::ru(2)));
  EXPECT_EQ(e1.rx_burst(rx), 1u);
  rx.clear();
  EXPECT_EQ(e3.rx_burst(rx), 0u);
  // And ru(2) was learned from the reply's source.
  e1.send(frame_to(MacAddr::ru(2), MacAddr::du(1)));
  EXPECT_EQ(e2.rx_burst(rx), 1u);
  rx.clear();
  EXPECT_EQ(e3.rx_burst(rx), 0u);
  EXPECT_GE(sw.forwarded(), 2u);
}

TEST(EmbeddedSwitch, FloodCopiesAndMovesOriginalToLast) {
  EmbeddedSwitch sw("sw");
  Port e1("e1"), e2("e2"), e3("e3");
  Port::connect(e1, sw.add_port("p1"), 0);
  Port::connect(e2, sw.add_port("p2"), 0);
  Port::connect(e3, sw.add_port("p3"), 0);
  const std::size_t before = PacketPool::default_pool().in_use();
  e1.send(frame_to(MacAddr::ru(9), MacAddr::du(8)));
  // Two egress ports, but only one extra buffer: the original moved to
  // the last port and the other got a copy.
  EXPECT_EQ(PacketPool::default_pool().in_use(), before + 2);
  std::vector<PacketPtr> rx2, rx3;
  ASSERT_EQ(e2.rx_burst(rx2), 1u);
  ASSERT_EQ(e3.rx_burst(rx3), 1u);
  EXPECT_EQ(rx2[0]->data()[0], rx3[0]->data()[0]);
  EXPECT_EQ(rx2[0]->len(), rx3[0]->len());
}

TEST(EmbeddedSwitch, CountsRuntDrops) {
  EmbeddedSwitch sw("sw");
  Port e1("e1"), e2("e2");
  Port::connect(e1, sw.add_port("p1"), 0);
  Port::connect(e2, sw.add_port("p2"), 0);
  auto p = PacketPool::default_pool().alloc();
  p->set_len(10);  // shorter than an Ethernet header
  e1.send(std::move(p));
  EXPECT_EQ(sw.runt_dropped(), 1u);
  EXPECT_EQ(sw.flooded(), 0u);
  EXPECT_EQ(sw.forwarded(), 0u);
  std::vector<PacketPtr> rx;
  EXPECT_EQ(e2.rx_burst(rx), 0u);
}

TEST(EmbeddedSwitch, StaticEntriesBeatLearning) {
  EmbeddedSwitch sw("sw");
  Port e1("e1"), e2("e2"), e3("e3");
  auto& p1 = sw.add_port("p1");
  auto& p2 = sw.add_port("p2");
  auto& p3 = sw.add_port("p3");
  Port::connect(e1, p1, 0);
  Port::connect(e2, p2, 0);
  Port::connect(e3, p3, 0);
  sw.add_static_entry(MacAddr::ru(7), p3);
  e1.send(frame_to(MacAddr::ru(7), MacAddr::du(0)));
  std::vector<PacketPtr> rx;
  EXPECT_EQ(e3.rx_burst(rx), 1u);
  rx.clear();
  EXPECT_EQ(e2.rx_burst(rx), 0u);
  EXPECT_EQ(sw.flooded(), 0u);
}

TEST(Nic, VfSteeringAndPcieAccounting) {
  Nic nic("nic0", 4);
  Port wire_peer("wire_peer");
  Port::connect(wire_peer, nic.wire_port(), 0);
  Port& vf = nic.create_vf("vf0");
  nic.steer(MacAddr::mb(0), vf);
  wire_peer.send(frame_to(MacAddr::mb(0), MacAddr::du(0)));
  std::vector<PacketPtr> rx;
  EXPECT_EQ(vf.rx_burst(rx), 1u);
  EXPECT_GT(nic.pcie_bytes(), 0u);
}

TEST(Nic, VfLimitEnforced) {
  Nic nic("nic0", 2);
  nic.create_vf("a");
  nic.create_vf("b");
  EXPECT_THROW(nic.create_vf("c"), std::length_error);
}

TEST(PollDriver, AlwaysFullUtilization) {
  Port a("a"), b("b");
  Port::connect(a, b, 0);
  PollDriver drv(b);
  EXPECT_DOUBLE_EQ(drv.utilization(1'000'000), 1.0);
}

TEST(IrqDriver, UtilizationScalesWithWork) {
  Port a("a"), b("b");
  Port::connect(a, b, 0);
  IrqDriver drv(b);
  EXPECT_DOUBLE_EQ(drv.utilization(1'000'000), 0.0);
  drv.charge_handler(250'000, ProcessingLocus::Kernel);
  EXPECT_NEAR(drv.utilization(1'000'000), 0.25, 1e-9);
  drv.meter().reset();
  EXPECT_DOUBLE_EQ(drv.utilization(1'000'000), 0.0);
}

TEST(IrqDriver, UserspacePuntCostsMore) {
  Port a("a"), b("b");
  Port::connect(a, b, 0);
  DriverCosts costs;
  IrqDriver kdrv(b, costs);
  kdrv.charge_handler(100, ProcessingLocus::Kernel);
  const auto kernel_busy = kdrv.meter().busy_ns();
  kdrv.meter().reset();
  kdrv.charge_handler(100, ProcessingLocus::Userspace);
  EXPECT_EQ(kdrv.meter().busy_ns(), kernel_busy + costs.afxdp_redirect_ns);
}

TEST(IrqDriver, JumboFramesCostMoreOnRx) {
  PacketPool pool(4);
  Port a("a"), b1("b1"), c("c"), b2("b2");
  Port::connect(a, b1, 0);
  Port::connect(c, b2, 0);
  DriverCosts costs;
  IrqDriver small(b1, costs), jumbo(b2, costs);
  auto p = pool.alloc();
  p->set_len(100);
  a.send(std::move(p));
  auto q = pool.alloc();
  q->set_len(8000);
  c.send(std::move(q));
  std::vector<PacketPtr> rx;
  small.rx_burst(rx);
  rx.clear();
  jumbo.rx_burst(rx);
  EXPECT_GT(jumbo.meter().busy_ns(), small.meter().busy_ns());
}

}  // namespace
}  // namespace rb
