// Split-brain behaviour under interconnect partition.
//
// When the replication link is cut (both hosts alive, heartbeats lost), the
// replica activates — a textbook split brain. The saving property is output
// commit: the isolated primary can no longer commit checkpoints, so its
// outbound packets are buffered forever and *clients never observe two
// services*. The client-visible world switches from the primary's committed
// prefix to the replica, with no interleaving.
#include <gtest/gtest.h>

#include "replication/testbed.h"
#include "workload/protocol.h"
#include "workload/synthetic.h"

namespace here::rep {
namespace {

class SequencedEmitter final : public hv::GuestProgram {
 public:
  static constexpr std::uint32_t kKind = 0x77;
  explicit SequencedEmitter(net::NodeId client) : client_(client) {}

  void start(hv::GuestEnv& env) override { inner_.start(env); }
  void tick(hv::GuestEnv& env, sim::Duration dt) override {
    inner_.tick(env, dt);
    env.send_packet(client_, 64, kKind, next_seq_++);
  }
  [[nodiscard]] std::unique_ptr<GuestProgram> clone() const override {
    return std::make_unique<SequencedEmitter>(*this);
  }

 private:
  wl::SyntheticProgram inner_{wl::memory_microbench(15)};
  net::NodeId client_;
  std::uint64_t next_seq_ = 0;
};

TEST(Partition, LinkCutTriggersFailover) {
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("vm", 2, 48ULL << 20);
  config.engine.period.t_max = sim::from_millis(500);
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(15)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(2));

  bed.fabric().set_link_down(bed.primary().ic_node(), bed.secondary().ic_node(),
                             true);
  ASSERT_TRUE(bed.run_until([&] { return bed.engine().failed_over(); },
                            sim::from_seconds(10)));
  // Both hosts are alive — this is a split brain, not a failure.
  EXPECT_TRUE(bed.primary().alive());
  EXPECT_TRUE(bed.secondary().alive());
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);  // the old primary runs on
}

TEST(Partition, OutputCommitPreventsClientVisibleSplitBrain) {
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("vm", 2, 48ULL << 20);
  config.engine.period.t_max = sim::from_millis(400);
  Testbed bed(config);

  std::vector<std::uint64_t> seen;
  hv::Vm& vm = bed.create_vm(nullptr);
  bed.protect(vm);
  const net::NodeId client = bed.add_client("client", [&](const net::Packet& p) {
    if (p.kind == SequencedEmitter::kKind) seen.push_back(p.tag);
  });
  vm.attach_program(std::make_unique<SequencedEmitter>(client));
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(2));

  bed.fabric().set_link_down(bed.primary().ic_node(), bed.secondary().ic_node(),
                             true);
  bed.run_until([&] { return bed.engine().failed_over(); },
                sim::from_seconds(10));
  const std::size_t at_failover = seen.size();
  bed.simulation().run_for(sim::from_seconds(3));

  // The isolated primary kept executing but could never commit another
  // checkpoint: none of its post-partition output was released. Everything
  // the client sees is the committed prefix plus the replica's (re-emitted
  // suffix allowed, gaps and interleaving forbidden).
  for (std::size_t i = 1; i < seen.size(); ++i) {
    if (i == at_failover) {
      EXPECT_LE(seen[i], seen[i - 1] + 1)
          << "replica skipped ahead of the committed prefix";
    } else {
      EXPECT_EQ(seen[i], seen[i - 1] + 1) << "gap or interleaving at " << i;
    }
  }
  EXPECT_GT(seen.size(), at_failover) << "replica took over client traffic";

  // The stale primary is still buffering, not sending.
  EXPECT_GT(bed.engine().outbound().pending(), 0u);
}

TEST(Partition, HealedLinkDoesNotResurrectThePrimary) {
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("vm", 2, 48ULL << 20);
  config.engine.period.t_max = sim::from_millis(500);
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(nullptr);
  bed.protect(vm);
  vm.attach_program(
      std::make_unique<SequencedEmitter>(bed.add_client("client", {})));
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(2));

  bed.fabric().set_link_down(bed.primary().ic_node(), bed.secondary().ic_node(),
                             true);
  bed.run_until([&] { return bed.engine().failed_over(); },
                sim::from_seconds(10));
  // The stale primary outlived the failover and buffers what it emits.
  const std::uint64_t released = bed.engine().outbound().released_total();
  EXPECT_EQ(bed.engine().stats().primary_demotions, 0u);
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
  bed.fabric().set_link_down(bed.primary().ic_node(), bed.secondary().ic_node(),
                             false);
  bed.simulation().run_for(sim::from_seconds(3));
  // Failover is final for this engine: the replica stays authoritative and
  // the service address stays on it.
  EXPECT_TRUE(bed.engine().failed_over());
  EXPECT_EQ(bed.engine().active_vm(), bed.engine().replica_vm());
  EXPECT_TRUE(bed.engine().service_available());
  // The heal is the stale primary's return: the activated replica denies its
  // first heartbeat, and it is demoted exactly once, its VM destroyed and
  // its buffered output never released.
  EXPECT_EQ(bed.engine().stats().primary_demotions, 1u);
  EXPECT_TRUE(bed.engine().primary_demoted());
  EXPECT_EQ(bed.engine().primary_vm(), nullptr);
  EXPECT_TRUE(bed.primary().hypervisor().vms().empty());
  EXPECT_EQ(bed.engine().outbound().released_total(), released);
}

TEST(Partition, FabricLinkSemantics) {
  sim::Simulation s;
  net::Fabric fabric(s);
  int received = 0;
  const net::NodeId a = fabric.add_node("a", {});
  const net::NodeId b =
      fabric.add_node("b", [&](const net::Packet&) { ++received; });
  fabric.connect(a, b, sim::grid5000_host().ethernet);

  net::Packet p;
  p.src = a;
  p.dst = b;
  p.size_bytes = 64;
  fabric.send(p);
  fabric.set_link_down(a, b, true);
  EXPECT_TRUE(fabric.link_down(a, b));
  EXPECT_TRUE(fabric.link_down(b, a));
  fabric.send(p);
  fabric.set_link_down(a, b, false);
  fabric.send(p);
  s.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(fabric.dropped_count(), 1u);
}

}  // namespace
}  // namespace here::rep
