// Integration tests for the full replication engine lifecycle:
// protect -> seed -> continuous checkpoints -> failover.
#include "replication/replication_engine.h"

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "replication/testbed.h"
#include "workload/synthetic.h"

namespace here::rep {
namespace {

TestbedConfig small_here_config(std::uint64_t seed = 42) {
  TestbedConfig config;
  config.seed = seed;
  config.vm_spec = hv::make_vm_spec("vm", 2, 64ULL << 20);
  config.engine.mode = EngineMode::kHere;
  config.engine.checkpoint_threads = 2;
  config.engine.period.t_max = sim::from_seconds(1);
  config.engine.period.target_degradation = 0.0;  // fixed period
  return config;
}

TEST(ReplicationEngine, ProtectSeedsAndCheckpoints) {
  Testbed bed(small_here_config());
  auto* program_raw = new wl::SyntheticProgram(wl::memory_microbench(20));
  hv::Vm& vm = bed.create_vm(std::unique_ptr<hv::GuestProgram>(program_raw));
  bed.protect(vm);
  bed.run_until_seeded(sim::from_seconds(600));

  EXPECT_TRUE(bed.engine().seeded());
  EXPECT_GT(bed.engine().stats().seed.pages_sent, vm.memory().pages());
  EXPECT_EQ(bed.engine().staging()->committed_epoch(), 0u);

  bed.simulation().run_for(sim::from_seconds(10));
  const auto& checkpoints = bed.engine().stats().checkpoints;
  ASSERT_GT(checkpoints.size(), 3u);
  // Fixed 1 s period: epochs arrive roughly every (T + t).
  EXPECT_GT(checkpoints.back().epoch, 3u);
  for (const auto& record : checkpoints) {
    EXPECT_GT(record.pause.count(), 0);
    EXPECT_GT(record.dirty_pages_model, 0u);
    EXPECT_GT(record.degradation, 0.0);
    EXPECT_LT(record.degradation, 1.0);
  }
}

TEST(ReplicationEngine, ReplicaConvergesToPrimaryWhenWorkloadStops) {
  Testbed bed(small_here_config());
  auto program = std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(20));
  wl::SyntheticProgram* program_raw = program.get();
  hv::Vm& vm = bed.create_vm(std::move(program));
  bed.protect(vm);
  bed.run_until_seeded(sim::from_seconds(600));
  bed.simulation().run_for(sim::from_seconds(5));

  // Stop all guest dirtying, then let two more checkpoints flush the tail.
  program_raw->set_wss_fraction(0.0);
  const std::uint64_t epoch_before = bed.engine().staging()->committed_epoch();
  bed.run_until([&] {
    return bed.engine().staging()->committed_epoch() >= epoch_before + 2;
  }, sim::from_seconds(30));

  EXPECT_EQ(bed.engine().staging()->memory().full_digest(),
            vm.memory().full_digest())
      << "after dirtying stops, the committed replica image must be "
         "byte-identical to the primary";
}

TEST(ReplicationEngine, FailoverActivatesReplicaOnKvm) {
  Testbed bed(small_here_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(20)));
  bed.protect(vm);
  bed.run_until_seeded(sim::from_seconds(600));
  bed.simulation().run_for(sim::from_seconds(5));

  bed.primary().inject_fault(hv::FaultKind::kCrash);
  ASSERT_TRUE(bed.run_until([&] { return bed.engine().failed_over(); },
                            sim::from_seconds(10)));

  hv::Vm* replica = bed.engine().replica_vm();
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(replica->state(), hv::VmState::kRunning);
  EXPECT_EQ(bed.secondary().hypervisor().kind(), hv::HvKind::kKvm);
  EXPECT_TRUE(bed.engine().service_available());

  // At the instant of activation, the replica image equalled the committed
  // checkpoint byte-for-byte (it diverges afterwards as the replica runs).
  EXPECT_EQ(bed.engine().stats().replica_digest_at_activation,
            bed.engine().stats().committed_digest_at_activation);
  EXPECT_NE(bed.engine().stats().replica_digest_at_activation, 0u);

  // kvmtool-style resumption: milliseconds, not seconds (Fig. 7).
  const double ms = sim::to_millis(bed.engine().stats().resumption_time);
  EXPECT_GT(ms, 0.5);
  EXPECT_LT(ms, 50.0);

  // Replica device family switched to virtio.
  ASSERT_NE(replica->net_device(), nullptr);
  EXPECT_EQ(replica->net_device()->family(), hv::DeviceFamily::kVirtio);

  // The replica keeps executing (program cloned at the checkpoint).
  const sim::Duration guest_before = replica->guest_time();
  bed.simulation().run_for(sim::from_seconds(2));
  EXPECT_GT(replica->guest_time(), guest_before);
}

TEST(ReplicationEngine, RemusBaselineIsHomogeneous) {
  TestbedConfig config = small_here_config();
  config.engine.mode = EngineMode::kRemus;
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(20)));
  bed.protect(vm);
  bed.run_until_seeded(sim::from_seconds(600));
  bed.simulation().run_for(sim::from_seconds(5));

  EXPECT_EQ(bed.secondary().hypervisor().kind(), hv::HvKind::kXen);
  EXPECT_FALSE(bed.engine().heterogeneous());
  EXPECT_GT(bed.engine().stats().checkpoints.size(), 2u);

  bed.primary().inject_fault(hv::FaultKind::kCrash);
  ASSERT_TRUE(bed.run_until([&] { return bed.engine().failed_over(); },
                            sim::from_seconds(10)));
  // Xen replica: devices stay PV.
  ASSERT_NE(bed.engine().replica_vm()->net_device(), nullptr);
  EXPECT_EQ(bed.engine().replica_vm()->net_device()->family(),
            hv::DeviceFamily::kXenPv);
}

// A standalone engine (no EngineEnv pool) is the only client of its private
// migrator pool, so every burst is granted the full configured parallelism:
// P = checkpoint_threads under HERE, 1 under Remus.
TEST(ReplicationEngine, StandaloneGrantIsTheConfiguredParallelism) {
  for (const EngineMode mode : {EngineMode::kHere, EngineMode::kRemus}) {
    obs::RingBufferRecorder recorder(1u << 16);
    obs::Tracer tracer(&recorder);
    TestbedConfig config = small_here_config();
    config.engine.mode = mode;
    config.engine.checkpoint_threads = 3;
    config.engine.tracer = &tracer;
    Testbed bed(config);
    ASSERT_EQ(bed.engine().env().migrator_pool, nullptr);
    hv::Vm& vm = bed.create_vm(
        std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(20)));
    bed.protect(vm);
    EXPECT_NE(bed.engine().pool_client(), MigratorPool::kInvalidClient);
    bed.run_until_seeded(sim::from_seconds(600));
    bed.simulation().run_for(sim::from_seconds(5));

    const std::uint64_t want = mode == EngineMode::kHere ? 3 : 1;
    std::size_t pauses = 0;
    for (const obs::TraceEvent& e : recorder.snapshot()) {
      EXPECT_NE(e.name, "pool.grant");  // only a shared pool traces grants
      if (e.name != "ckpt.pause") continue;
      ++pauses;
      for (const auto& [key, value] : e.args) {
        if (key == "threads") EXPECT_EQ(value.as_uint64(), want);
      }
    }
    EXPECT_GT(pauses, 2u);
    EXPECT_GE(pauses, bed.engine().stats().checkpoints.size());
  }
}

TEST(ReplicationEngine, HangTriggersFailoverViaHeartbeat) {
  Testbed bed(small_here_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded(sim::from_seconds(600));
  bed.simulation().run_for(sim::from_seconds(3));

  bed.primary().inject_fault(hv::FaultKind::kHang);
  ASSERT_TRUE(bed.run_until([&] { return bed.engine().failed_over(); },
                            sim::from_seconds(10)));
  EXPECT_TRUE(bed.engine().service_available());
}

TEST(ReplicationEngine, NoFailoverBeforeSeedingCompletes) {
  Testbed bed(small_here_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  // Crash the primary almost immediately: no committed checkpoint exists.
  bed.simulation().run_for(sim::from_millis(50));
  bed.primary().inject_fault(hv::FaultKind::kCrash);
  bed.simulation().run_for(sim::from_seconds(5));
  EXPECT_FALSE(bed.engine().failed_over());
  EXPECT_FALSE(bed.engine().service_available());
}

TEST(ReplicationEngine, DynamicPeriodTightensUnderLightLoad) {
  TestbedConfig config = small_here_config();
  config.engine.period.t_max = sim::from_seconds(4);
  config.engine.period.target_degradation = 0.30;
  config.engine.period.sigma = sim::from_millis(200);
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(5)));
  bed.protect(vm);
  bed.run_until_seeded(sim::from_seconds(600));
  bed.simulation().run_for(sim::from_seconds(60));

  // Light load -> pauses are tiny -> manager walks T down from Tmax.
  EXPECT_LT(bed.engine().period_manager().current(), sim::from_seconds(2));
  EXPECT_GE(bed.engine().period_manager().current(),
            config.engine.period.sigma);
}

}  // namespace
}  // namespace here::rep
