// A dead secondary acknowledges nothing. Output commit releases an epoch's
// buffered output only once a live replica holds that epoch, so while the
// secondary host is down (crashed or hung) no epoch commits and no output
// reaches a client. The host's return is the rejoin: the durable replica
// recovers from its local store, and protection returns at the first commit.
#include <gtest/gtest.h>

#include <vector>

#include "replication/testbed.h"
#include "workload/synthetic.h"

namespace here::rep {
namespace {

// Emits one sequenced packet per guest tick, so every epoch buffers output.
class SequencedEmitter final : public hv::GuestProgram {
 public:
  static constexpr std::uint32_t kKind = 0x0d0e;
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

class SecondaryOutage : public ::testing::TestWithParam<hv::FaultKind> {};

TEST_P(SecondaryOutage, NothingCommitsUntilRepairThenRejoinsFromStore) {
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("vm", 2, 64ULL << 20);
  config.engine.period.t_max = sim::from_millis(500);
  config.durable_replica = true;
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

  const EngineStats& stats = bed.engine().stats();
  const OutboundBuffer& out = bed.engine().outbound();
  const std::uint64_t committed = stats.epochs_committed;
  const std::uint64_t released = out.released_total();
  ASSERT_GT(committed, 0u);

  bed.secondary().inject_fault(GetParam());
  EXPECT_TRUE(bed.engine().rejoining());
  EXPECT_EQ(bed.engine().staging(), nullptr);  // replica RAM died with it
  EXPECT_EQ(stats.secondary_crashes, 1u);
  bed.simulation().run_for(sim::from_seconds(1));
  // The guest runs on, but nothing commits and its output stays buffered.
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
  EXPECT_EQ(stats.epochs_committed, committed);
  EXPECT_EQ(out.released_total(), released);
  EXPECT_GT(out.pending(), 0u);
  EXPECT_FALSE(bed.engine().failover_in_progress());
  EXPECT_FALSE(bed.engine().failed_over());

  bed.secondary().repair();
  ASSERT_TRUE(bed.run_until([&] { return !bed.engine().rejoining(); },
                            sim::from_seconds(10)));
  EXPECT_EQ(stats.rejoins, 1u);
  EXPECT_EQ(stats.full_resyncs, 0u);
  EXPECT_GT(stats.epochs_committed, committed);
  EXPECT_GT(out.released_total(), released);
  // Clients saw a gapless committed prefix across the outage.
  for (std::size_t i = 1; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], seen[i - 1] + 1) << "gap at " << i;
  }

  // Protection returned: a primary crash activates the committed image.
  bed.simulation().run_for(sim::from_seconds(1));
  bed.primary().inject_fault(hv::FaultKind::kCrash);
  ASSERT_TRUE(bed.run_until([&] { return bed.engine().failed_over(); },
                            sim::from_seconds(5)));
  EXPECT_EQ(stats.replica_digest_at_activation,
            stats.committed_digest_at_activation);
  EXPECT_EQ(stats.replica_disk_digest_at_activation,
            stats.committed_disk_digest_at_activation);
}

INSTANTIATE_TEST_SUITE_P(Faults, SecondaryOutage,
                         ::testing::Values(hv::FaultKind::kCrash,
                                           hv::FaultKind::kHang),
                         [](const auto& info) {
                           return info.param == hv::FaultKind::kCrash
                                      ? "crash"
                                      : "hang";
                         });

}  // namespace
}  // namespace here::rep
