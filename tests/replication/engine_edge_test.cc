// Engine edge cases and end-to-end application-visible behaviour:
// output-commit latency for echo traffic, protected-YCSB integration,
// resource accounting, double-protect errors, secondary failures,
// Adaptive Remus policy integration.
#include <gtest/gtest.h>

#include "replication/testbed.h"
#include "workload/sockperf.h"
#include "workload/synthetic.h"
#include "workload/ycsb.h"

namespace here::rep {
namespace {

TestbedConfig base_config() {
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("vm", 2, 64ULL << 20);
  config.engine.mode = EngineMode::kHere;
  config.engine.checkpoint_threads = 2;
  config.engine.period.t_max = sim::from_seconds(1);
  return config;
}

TEST(EngineEdge, DoubleProtectIsFailedPrecondition) {
  Testbed bed(base_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(5)));
  bed.protect(vm);
  EXPECT_EQ(bed.engine().start_protection(vm).code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineEdge, ProtectRequiresRunningVm) {
  Testbed bed(base_config());
  hv::Vm& vm = bed.primary().hypervisor().create_vm(bed.config().vm_spec);
  EXPECT_EQ(bed.engine().start_protection(vm).code(),
            StatusCode::kFailedPrecondition);  // never started
}

// A failed start reports its Status and leaves the engine unprotected: no
// VM adopted, no seeding, no checkpoints — even after time passes.
TEST(EngineEdge, FailedStartProtectionLeavesEngineUnprotected) {
  Testbed bed(base_config());
  hv::Vm& vm = bed.primary().hypervisor().create_vm(bed.config().vm_spec);
  EXPECT_EQ(bed.engine().start_protection(vm).code(),
            StatusCode::kFailedPrecondition);  // never started
  bed.simulation().run_for(sim::from_seconds(2));
  EXPECT_FALSE(bed.engine().protecting());
  EXPECT_FALSE(bed.engine().seeded());
  EXPECT_EQ(bed.engine().stats().seed_attempts, 0u);
  EXPECT_TRUE(bed.engine().stats().checkpoints.empty());
}

TEST(EngineEdge, RemusWithHeterogeneousPairThrows) {
  TestbedConfig config = base_config();
  config.engine.mode = EngineMode::kRemus;
  Testbed bed(config);  // builds a Xen pair: fine
  // A hand-built mismatched pair must be rejected.
  ReplicationConfig engine_config;
  engine_config.mode = EngineMode::kRemus;
  sim::Simulation sim2;
  net::Fabric fabric2(sim2);
  sim::Rng rng(3);
  hv::Host xen_host("x", fabric2,
                    std::make_unique<xen::XenHypervisor>(sim2, rng.fork()));
  hv::Host kvm_host("k", fabric2,
                    std::make_unique<kvm::KvmHypervisor>(sim2, rng.fork()));
  EXPECT_THROW(ReplicationEngine(sim2, fabric2, xen_host, kvm_host,
                                 engine_config),
               std::invalid_argument);
}

TEST(EngineEdge, SecondaryCrashStopsFailoverButPrimaryKeepsServing) {
  Testbed bed(base_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(2));

  // The *secondary* dies: protection is lost but the service is not.
  bed.secondary().inject_fault(hv::FaultKind::kCrash);
  bed.simulation().run_for(sim::from_seconds(3));
  EXPECT_FALSE(bed.engine().failed_over());
  EXPECT_TRUE(bed.engine().service_available());
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
}

TEST(EngineEdge, TriggerFailoverTwiceIsIdempotent) {
  Testbed bed(base_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(2));
  bed.engine().trigger_failover("test");
  bed.engine().trigger_failover("test again");  // ignored
  bed.run_until([&] { return bed.engine().failed_over(); },
                sim::from_seconds(10));
  EXPECT_NE(bed.engine().replica_vm(), nullptr);
  bed.engine().trigger_failover("after completion");  // also ignored
  bed.simulation().run_for(sim::from_seconds(1));
  EXPECT_TRUE(bed.engine().service_available());
}

TEST(EngineEdge, CrashedGuestStillReplicates) {
  // A guest-kernel panic is guest state like any other: checkpoints
  // continue (carrying the crashed image), and failover cannot resurrect
  // the service — Table 2's "No" cells.
  Testbed bed(base_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(2));
  const std::size_t before = bed.engine().stats().checkpoints.size();
  vm.panic();
  bed.simulation().run_for(sim::from_seconds(3));
  EXPECT_GT(bed.engine().stats().checkpoints.size(), before);
  EXPECT_FALSE(bed.engine().service_available());  // crashed guest
}

TEST(EngineEdge, EchoLatencyIsBoundedByCheckpointPeriod) {
  TestbedConfig config = base_config();
  config.engine.period.t_max = sim::from_millis(400);
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(std::make_unique<wl::SockperfServer>(1.0));
  bed.protect(vm);

  wl::SockperfClient::Config cc;
  cc.packets_per_second = 100;
  wl::SockperfClient client(bed.simulation(), bed.fabric(), cc);
  const net::NodeId self = bed.add_client("c", {});
  client.attach(self, bed.engine().service_node());

  bed.run_until_seeded();
  client.run_for(sim::from_seconds(10));
  bed.simulation().run_for(sim::from_seconds(12));

  ASSERT_GT(client.latency_us().count(), 100u);
  // Replies wait for output commit: at least ~one pause, at most ~period +
  // pause + slack.
  EXPECT_GT(client.latency_us().mean(), 1000.0);            // > 1 ms
  EXPECT_LT(client.latency_us().percentile(0.99), 900'000)  // < T + slack
      << "latency beyond one checkpoint period: output commit broken?";
}

TEST(EngineEdge, ProtectedYcsbKeepsServingThroughFailover) {
  TestbedConfig config = base_config();
  config.vm_spec = hv::make_vm_spec("db", 2, 128ULL << 20);
  Testbed bed(config);

  wl::YcsbConfig ycsb;
  ycsb.mix = wl::ycsb_a();
  ycsb.record_count = 10'000;
  ycsb.op_limit = ~0ULL;
  wl::YcsbMonitor monitor;
  hv::Vm& vm = bed.create_vm(nullptr);
  bed.protect(vm);
  ycsb.monitor = bed.add_client("c", [&](const net::Packet& p) {
    monitor.on_packet(bed.simulation().now(), p);
  });
  vm.attach_program(std::make_unique<wl::YcsbProgram>(ycsb));
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(4));
  const std::uint64_t ops_before = monitor.ops_observed();
  ASSERT_GT(ops_before, 0u);

  bed.primary().inject_fault(hv::FaultKind::kCrash);
  bed.run_until([&] { return bed.engine().failed_over(); },
                sim::from_seconds(10));
  bed.simulation().run_for(sim::from_seconds(4));
  // The replica's YCSB program resumed (from its checkpoint clone) and the
  // monitor keeps receiving completions via the re-pointed service node.
  EXPECT_GT(monitor.ops_observed(), ops_before);
}

TEST(EngineEdge, ReplicationCpuAndMemoryAccounted) {
  Testbed bed(base_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(30)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(5));
  EXPECT_GT(bed.engine().stats().replication_cpu.count(), 0);
  EXPECT_GT(bed.primary().replication_cpu().count(), 0);
  EXPECT_GT(bed.primary().replication_memory_peak(), 0u);
}

TEST(EngineEdge, HeartbeatsKeepFlowing) {
  Testbed bed(base_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(5)));
  bed.protect(vm);
  bed.run_until_seeded();
  const std::uint64_t hb = bed.engine().stats().heartbeats_sent;
  bed.simulation().run_for(sim::from_seconds(1));
  // 25 ms interval -> ~40/s.
  EXPECT_GE(bed.engine().stats().heartbeats_sent - hb, 30u);
}

TEST(EngineEdge, AdaptiveRemusPolicySwitchesOnIoActivity) {
  TestbedConfig config = base_config();
  config.engine.period.policy = PeriodPolicy::kAdaptiveRemus;
  config.engine.period.t_max = sim::from_seconds(2);
  config.engine.period.adaptive_remus_io_period = sim::from_millis(500);
  Testbed bed(config);

  hv::Vm& vm = bed.create_vm(std::make_unique<wl::SockperfServer>(1.0));
  bed.protect(vm);
  wl::SockperfClient::Config cc;
  cc.packets_per_second = 200;
  wl::SockperfClient client(bed.simulation(), bed.fabric(), cc);
  const net::NodeId self = bed.add_client("c", {});
  client.attach(self, bed.engine().service_node());
  bed.run_until_seeded();

  // No I/O yet: the default (long) period applies.
  EXPECT_EQ(bed.engine().period_manager().current(), sim::from_seconds(2));

  client.run_for(sim::from_seconds(10));
  bed.simulation().run_for(sim::from_seconds(8));
  // Echo replies count as guest I/O: the controller drops to its short
  // period.
  EXPECT_EQ(bed.engine().period_manager().current(), sim::from_millis(500));
}

// --- Config validation (fail-fast, before any component is built) ----------------

TEST(EngineConfigValidation, RejectsZeroOrNegativeTmax) {
  TestbedConfig config = base_config();
  config.engine.period.t_max = sim::Duration{0};
  EXPECT_THROW(Testbed{config}, std::invalid_argument);
  config.engine.period.t_max = sim::from_seconds(-1);
  EXPECT_THROW(Testbed{config}, std::invalid_argument);
}

TEST(EngineConfigValidation, RejectsZeroCheckpointThreads) {
  TestbedConfig config = base_config();
  config.engine.checkpoint_threads = 0;
  EXPECT_THROW(Testbed{config}, std::invalid_argument);
}

TEST(EngineConfigValidation, RejectsHeartbeatTimeoutNotAboveInterval) {
  TestbedConfig config = base_config();
  config.engine.heartbeat_interval = sim::from_millis(50);
  config.engine.heartbeat_timeout = sim::from_millis(50);  // == interval
  EXPECT_THROW(Testbed{config}, std::invalid_argument);
  config.engine.heartbeat_timeout = sim::from_millis(20);  // < interval
  EXPECT_THROW(Testbed{config}, std::invalid_argument);
  config.engine.heartbeat_interval = sim::Duration{0};
  config.engine.heartbeat_timeout = sim::from_millis(100);
  EXPECT_THROW(Testbed{config}, std::invalid_argument);  // zero interval
}

TEST(EngineConfigValidation, RejectsBadPeriodPolicyParameters) {
  TestbedConfig config = base_config();
  config.engine.period.sigma = sim::Duration{0};
  EXPECT_THROW(Testbed{config}, std::invalid_argument);

  config = base_config();
  config.engine.period.target_degradation = 1.0;  // must stay in [0, 1)
  EXPECT_THROW(Testbed{config}, std::invalid_argument);
  config.engine.period.target_degradation = -0.1;
  EXPECT_THROW(Testbed{config}, std::invalid_argument);

  config = base_config();
  config.engine.period.policy = PeriodPolicy::kAdaptiveRemus;
  config.engine.period.adaptive_remus_io_period = sim::Duration{0};
  EXPECT_THROW(Testbed{config}, std::invalid_argument);
}

TEST(EngineConfigValidation, ValidatePeriodConfigAcceptsDefaults) {
  EXPECT_TRUE(check_period_config(PeriodConfig{}).ok());
  PeriodConfig period;
  period.target_degradation = 0.30;
  EXPECT_TRUE(check_period_config(period).ok());
}

}  // namespace
}  // namespace here::rep
