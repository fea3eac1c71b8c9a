// Rolling-upgrade wire-version pinning.
//
// During a fleet upgrade a v1-capable (encoder-aware) replica can rejoin a
// stream whose operator pinned it to wire v0. The replica *instance* then
// advertises v0 even though its build decodes v1; the primary negotiates
// min(capability, advertised) and — crucially — never constructs its
// encoder stage, because encoded bytes can only travel in v1 frames. A
// primary that ignored the advertisement would ship v1 frames into a
// receive_frame that NACKs them: every epoch refused, retransmitted and
// refused again, forever. These tests pin the negotiated-down stream's
// behaviour, including across a secondary crash/rejoin cycle (the staging
// rebuild must re-apply the pin, not reset to the build capability).
#include <gtest/gtest.h>

#include "replication/testbed.h"
#include "tests/replication/secondary_outage.h"
#include "workload/synthetic.h"

namespace here::rep {
namespace {

TestbedConfig pinned_config() {
  TestbedConfig config;
  config.engine.period.t_max = sim::from_millis(500);
  config.engine.encoders = EncoderConfig::all();
  config.engine.replica_max_wire_version = wire::kWireVersionRaw;
  config.vm_spec = hv::make_vm_spec("svc", 2, 32ULL << 20);
  config.durable_replica = true;
  return config;
}

TEST(RollingUpgrade, PinnedReplicaNegotiatesDownToRawStream) {
  Testbed bed(pinned_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(20)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(3));

  const EngineStats& stats = bed.engine().stats();
  // Committing steadily is the anti-NACK-loop property: refused epochs
  // would abort rather than commit.
  EXPECT_GT(stats.checkpoints.size(), 2u);
  EXPECT_EQ(stats.epochs_aborted, 0u);
  // Negotiated down: the staging instance advertises v0 and the encoder
  // stage never ran — the whole stream went out raw.
  EXPECT_EQ(bed.engine().staging()->advertised_wire_version(),
            wire::kWireVersionRaw);
  EXPECT_EQ(stats.encode.pages_in, 0u);
  EXPECT_EQ(stats.encode.bytes_out, 0u);
}

TEST(RollingUpgrade, UnpinnedBuildStillEncodes) {
  // Control: same build, no pin — the encoder stage engages.
  TestbedConfig config = pinned_config();
  config.engine.replica_max_wire_version = wire::kWireVersionEncoded;
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(20)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(3));
  EXPECT_GT(bed.engine().stats().checkpoints.size(), 2u);
  EXPECT_GT(bed.engine().stats().encode.pages_in, 0u);
}

TEST(RollingUpgrade, PinSurvivesSecondaryCrashAndRejoin) {
  Testbed bed(pinned_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(20)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(2));
  const std::size_t epochs_before = bed.engine().stats().checkpoints.size();

  // The rejoin rebuilds staging from scratch; a rebuild that forgot the pin
  // would advertise v1 and the next epochs would go out encoded.
  fail_secondary_for(bed, sim::from_millis(400));
  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().stats().rejoins == 1; },
      sim::from_seconds(10)));
  bed.simulation().run_for(sim::from_seconds(3));

  const EngineStats& stats = bed.engine().stats();
  EXPECT_FALSE(bed.engine().rejoining());
  EXPECT_GT(stats.checkpoints.size(), epochs_before);
  EXPECT_EQ(stats.epochs_aborted, 0u);
  EXPECT_EQ(bed.engine().staging()->advertised_wire_version(),
            wire::kWireVersionRaw);
  EXPECT_EQ(stats.encode.pages_in, 0u);

  // And the raw stream still carries full fidelity: failover activates the
  // committed image bit for bit.
  bed.primary().inject_fault(hv::FaultKind::kCrash);
  bed.simulation().run_for(sim::from_seconds(5));
  ASSERT_TRUE(bed.engine().failed_over());
  EXPECT_EQ(stats.replica_digest_at_activation,
            stats.committed_digest_at_activation);
}

TEST(RollingUpgrade, OverCapabilityPinIsRejected) {
  rep::ReplicationConfig config;
  config.replica_max_wire_version = wire::kWireVersionEncoded + 1;
  EXPECT_FALSE(validate_replication_config(config).ok());
}

}  // namespace
}  // namespace here::rep
