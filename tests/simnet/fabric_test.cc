// Tests for the simulated network fabric: serialization, latency, ordering,
// node-down semantics, bulk transfers and checkpoint-frame crossings.
#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

#include "simnet/fabric.h"
#include "simnet/link_arbiter.h"

namespace here::net {
namespace {

sim::NicProfile test_nic() {
  return sim::NicProfile{
      .bits_per_second = 8e9,  // 1 GB/s => 1 us per KB
      .latency = sim::from_micros(10),
      .per_packet_overhead = sim::from_micros(1),
  };
}

struct TwoNodes {
  sim::Simulation sim;
  Fabric fabric{sim};
  std::vector<Packet> received_a;
  std::vector<Packet> received_b;
  std::vector<sim::TimePoint> rx_times_b;
  NodeId a;
  NodeId b;

  TwoNodes() {
    a = fabric.add_node("a", [this](const Packet& p) { received_a.push_back(p); });
    b = fabric.add_node("b", [this](const Packet& p) {
      received_b.push_back(p);
      rx_times_b.push_back(sim.now());
    });
    fabric.connect(a, b, test_nic());
  }

  Packet packet(std::uint32_t bytes, std::uint64_t tag = 0) const {
    Packet p;
    p.src = a;
    p.dst = b;
    p.size_bytes = bytes;
    p.tag = tag;
    return p;
  }
};

TEST(Fabric, DeliveryTimeIsSerializationPlusLatency) {
  TwoNodes t;
  // 1000 bytes at 1 GB/s = 1 us, + 1 us per-packet overhead + 10 us latency.
  const sim::TimePoint delivery = t.fabric.send(t.packet(1000));
  EXPECT_EQ(delivery.ns(), 12'000);
  t.sim.run();
  ASSERT_EQ(t.received_b.size(), 1u);
  EXPECT_EQ(t.rx_times_b[0].ns(), 12'000);
}

TEST(Fabric, BackToBackPacketsQueueOnTheWire) {
  TwoNodes t;
  t.fabric.send(t.packet(1000, 1));
  const sim::TimePoint second = t.fabric.send(t.packet(1000, 2));
  // Second waits for the first's 2 us serialization slot.
  EXPECT_EQ(second.ns(), 2'000 + 2'000 + 10'000);
  t.sim.run();
  ASSERT_EQ(t.received_b.size(), 2u);
  EXPECT_EQ(t.received_b[0].tag, 1u);
  EXPECT_EQ(t.received_b[1].tag, 2u);  // FIFO per direction
}

TEST(Fabric, DirectionsAreIndependent) {
  TwoNodes t;
  t.fabric.send(t.packet(1'000'000));  // keeps a->b busy ~1 ms
  Packet back;
  back.src = t.b;
  back.dst = t.a;
  back.size_bytes = 100;
  const sim::TimePoint rev = t.fabric.send(back);
  EXPECT_LT(rev.ns(), 100'000);  // b->a not blocked by a->b traffic
}

TEST(Fabric, DownNodeDropsPackets) {
  TwoNodes t;
  t.fabric.set_node_down(t.b, true);
  t.fabric.send(t.packet(100));
  t.sim.run();
  EXPECT_TRUE(t.received_b.empty());
  EXPECT_EQ(t.fabric.dropped_count(), 1u);
  EXPECT_EQ(t.fabric.delivered_count(), 0u);

  t.fabric.set_node_down(t.b, false);
  t.fabric.send(t.packet(100));
  t.sim.run();
  EXPECT_EQ(t.received_b.size(), 1u);
}

// A checkpoint frame follows the packets: a down node at either end of the
// direction loses it, and the node's return delivers again.
TEST(Fabric, DownNodeLosesFramesBothWays) {
  TwoNodes t;
  std::vector<std::uint8_t> payload(4096, 0x5a);
  t.fabric.set_node_down(t.b, true);
  EXPECT_TRUE(t.fabric.node_down(t.b));
  EXPECT_FALSE(t.fabric.node_down(t.a));
  for (const auto& [src, dst] : {std::pair{t.a, t.b}, std::pair{t.b, t.a}}) {
    const FrameFate fate = t.fabric.transmit_readonly_frame(src, dst, payload);
    EXPECT_TRUE(fate.lost);
    EXPECT_EQ(fate.delivered_bytes, 0u);
  }

  t.fabric.set_node_down(t.b, false);
  EXPECT_FALSE(t.fabric.node_down(t.b));
  const FrameFate fate = t.fabric.transmit_frame(t.a, t.b, payload);
  EXPECT_FALSE(fate.lost);
  EXPECT_EQ(fate.delivered_bytes, payload.size());
}

TEST(Fabric, SendBetweenUnconnectedNodesThrows) {
  sim::Simulation sim;
  Fabric fabric(sim);
  const NodeId a = fabric.add_node("a", {});
  const NodeId b = fabric.add_node("b", {});
  Packet p;
  p.src = a;
  p.dst = b;
  EXPECT_THROW(fabric.send(p), std::invalid_argument);
}

TEST(Fabric, SetReceiverRedirectsDelivery) {
  TwoNodes t;
  int redirected = 0;
  t.fabric.set_receiver(t.b, [&](const Packet&) { ++redirected; });
  t.fabric.send(t.packet(100));
  t.sim.run();
  EXPECT_EQ(redirected, 1);
  EXPECT_TRUE(t.received_b.empty());
}

TEST(Fabric, BulkTransferOccupiesWire) {
  TwoNodes t;
  // 1 MB at 1 GB/s ~ 1 ms (+ overhead) then 10 us latency.
  const sim::TimePoint done = t.fabric.bulk_transfer(t.a, t.b, 1'000'000);
  EXPECT_NEAR(static_cast<double>(done.ns()), 1'011'000, 1'000);
  // A packet right behind waits for the bulk.
  const sim::TimePoint after = t.fabric.send(t.packet(1000));
  EXPECT_GT(after.ns(), 1'001'000);
}

TEST(Fabric, EstimateDoesNotOccupy) {
  TwoNodes t;
  const sim::Duration est = t.fabric.estimate_transfer(t.a, t.b, 1'000'000);
  EXPECT_GT(est.count(), 1'000'000);
  // The estimate did not consume the wire: a real packet still goes now.
  const sim::TimePoint delivery = t.fabric.send(t.packet(1000));
  EXPECT_EQ(delivery.ns(), 12'000);
}

TEST(Fabric, NodeNames) {
  TwoNodes t;
  EXPECT_EQ(t.fabric.node_name(t.a), "a");
  EXPECT_EQ(t.fabric.node_name(t.b), "b");
}

// A read-only frame crossing draws exactly the fates a writable one would on
// a direction that cannot damage bytes, and refuses a direction that can.
TEST(Fabric, ReadonlyFrameMatchesWritableOnCleanDirection) {
  TwoNodes writable, readonly;
  for (TwoNodes* t : {&writable, &readonly}) {
    t->fabric.seed_impairments(9);
    t->fabric.set_link_duplication(t->a, t->b, 0.3);
    t->fabric.set_link_reordering(t->a, t->b, 0.3);
    ASSERT_FALSE(t->fabric.link_quality(t->a, t->b).mutates_frames());
  }
  std::vector<std::uint8_t> payload(4096, 0x5a);
  for (int i = 0; i < 200; ++i) {
    const FrameFate w = writable.fabric.transmit_frame(writable.a, writable.b, payload);
    const FrameFate r =
        readonly.fabric.transmit_readonly_frame(readonly.a, readonly.b, payload);
    ASSERT_EQ(w.duplicated, r.duplicated) << "frame " << i;
    ASSERT_EQ(w.reordered, r.reordered) << "frame " << i;
    ASSERT_EQ(w.delivered_bytes, r.delivered_bytes) << "frame " << i;
  }
  EXPECT_EQ(readonly.fabric.frame_bytes_sent(), writable.fabric.frame_bytes_sent());

  readonly.fabric.set_link_truncation(readonly.a, readonly.b, 0.1);
  EXPECT_TRUE(readonly.fabric.link_quality(readonly.a, readonly.b).mutates_frames());
  EXPECT_THROW(
      (void)readonly.fabric.transmit_readonly_frame(readonly.a, readonly.b, payload),
      std::logic_error);
}

// estimate() is what request() would grant at the same instant — including
// when expired reservations are still stored (request() prunes them first,
// estimate() plans around them) — and it reserves nothing.
TEST(LinkArbiter, EstimateMatchesRequestWithExpiredSegments) {
  sim::Simulation sim;
  LinkArbiter arbiter(sim, 1e9);  // 1 GB/s: 1 ms per MB
  const LinkArbiter::FlowId a = arbiter.register_flow("a");
  const LinkArbiter::FlowId b = arbiter.register_flow("b", 2.0);
  (void)arbiter.request(a, 1'000'000);  // [0, 1 ms): expired by 5 ms
  (void)arbiter.request(b, 500'000);
  sim.run_for(sim::from_millis(3));
  (void)arbiter.request(b, 20'000'000);  // active across 5 ms
  sim.run_for(sim::from_millis(2));

  const LinkArbiter::FlowStats before = arbiter.stats(a);
  const LinkArbiter::Reservation e = arbiter.estimate(a, 4'000'000);
  EXPECT_EQ(arbiter.stats(a).requests, before.requests);
  EXPECT_EQ(arbiter.stats(a).bytes, before.bytes);
  const LinkArbiter::Reservation r = arbiter.request(a, 4'000'000);
  EXPECT_EQ(e.ideal, r.ideal);
  EXPECT_EQ(e.actual, r.actual);
  EXPECT_GT(r.actual, r.ideal);  // b's reservation contends
  EXPECT_EQ(arbiter.stats(a).requests, before.requests + 1);
}

}  // namespace
}  // namespace here::net
