// Fault-injection subsystem tests: plan determinism (same seed -> same
// schedule -> byte-identical traces), engine hardening under partitions
// (heal-before-timeout, split-brain fencing), seeding retry after a primary
// crash, and a combined seeded chaos plan ending in a verified failover.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>

#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/testbed.h"
#include "workload/synthetic.h"

namespace here::faults {
namespace {

rep::TestbedConfig chaos_testbed_config() {
  rep::TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("vm", 2, 64ULL << 20);
  config.engine.mode = rep::EngineMode::kHere;
  config.engine.checkpoint_threads = 2;
  config.engine.period.t_max = sim::from_millis(500);
  config.engine.ft.checkpoint_timeout = sim::from_seconds(5);
  return config;
}

RandomPlanConfig testbed_plan_config() {
  RandomPlanConfig config;
  config.hosts = {"host-a", "host-b"};
  config.links = {"ic", "eth"};
  config.engines = {"engine"};
  return config;
}

// --- Plan determinism ---------------------------------------------------------

TEST(FaultPlan, SameSeedProducesIdenticalSchedule) {
  const RandomPlanConfig config = testbed_plan_config();
  const FaultPlan a = FaultPlan::random(1234, config);
  const FaultPlan b = FaultPlan::random(1234, config);
  ASSERT_EQ(a.size(), config.events);
  EXPECT_EQ(a.to_string(), b.to_string());

  const FaultPlan c = FaultPlan::random(1235, config);
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(FaultPlan, ScheduleIsTimeOrderedAndStable) {
  FaultPlan plan;
  plan.partition_link("ic", sim::TimePoint{sim::from_seconds(5)})
      .crash_host("host-a", sim::TimePoint{sim::from_seconds(2)})
      .heal_link("ic", sim::TimePoint{sim::from_seconds(5)});
  const auto schedule = plan.schedule();
  ASSERT_EQ(schedule.size(), 3u);
  EXPECT_EQ(schedule[0].type, FaultType::kHostCrash);
  // Equal times keep insertion order (partition armed before heal).
  EXPECT_EQ(schedule[1].type, FaultType::kLinkPartition);
  EXPECT_EQ(schedule[2].type, FaultType::kLinkHeal);
}

TEST(FaultPlan, DisabledClassesAreNeverGenerated) {
  RandomPlanConfig config = testbed_plan_config();
  config.host_faults = false;
  config.disk_faults = false;
  config.engine_faults = false;
  config.events = 64;
  const FaultPlan plan = FaultPlan::random(99, config);
  ASSERT_EQ(plan.size(), 64u);
  for (const FaultSpec& spec : plan.specs()) {
    EXPECT_TRUE(spec.type == FaultType::kLinkPartition ||
                spec.type == FaultType::kLinkLoss ||
                spec.type == FaultType::kLinkLatency ||
                spec.type == FaultType::kLinkBandwidth)
        << to_string(spec.type);
  }
}

// --- Injector determinism: same plan -> byte-identical run -------------------

struct ChaosArtifacts {
  std::string trace_jsonl;
  std::string plan_text;
  std::size_t injections = 0;
  bool failed_over = false;
};

// Protect, arm a seeded link-chaos plan, run a fixed horizon. Link faults
// only: the run must survive (and keep checkpointing) whatever the plan does.
ChaosArtifacts run_link_chaos(std::uint64_t plan_seed) {
  obs::RingBufferRecorder recorder(1u << 18);
  obs::Tracer tracer(&recorder);
  obs::MetricsRegistry metrics;

  rep::TestbedConfig config = chaos_testbed_config();
  config.engine.tracer = &tracer;
  config.engine.metrics = &metrics;
  rep::Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();

  RandomPlanConfig plan_config = testbed_plan_config();
  plan_config.host_faults = false;
  plan_config.links = {"ic"};  // keep the management path clean
  plan_config.start = bed.simulation().now() + sim::from_millis(100);
  plan_config.end = plan_config.start + sim::from_seconds(8);
  plan_config.max_loss = 0.3;
  const FaultPlan plan = FaultPlan::random(plan_seed, plan_config);

  FaultInjector injector(bed.simulation(), bed.fabric(), &tracer, &metrics);
  injector.register_testbed(bed);
  injector.arm(plan);
  bed.simulation().run_for(sim::from_seconds(12));

  ChaosArtifacts out;
  out.trace_jsonl = obs::to_jsonl(recorder.snapshot());
  out.plan_text = plan.to_string();
  out.injections = injector.log().size();
  out.failed_over = bed.engine().failed_over();
  EXPECT_EQ(recorder.overwritten(), 0u) << "ring too small for the scenario";
  return out;
}

TEST(FaultInjector, SameSeedChaosRunIsByteIdentical) {
  const ChaosArtifacts a = run_link_chaos(42);
  const ChaosArtifacts b = run_link_chaos(42);
  ASSERT_GT(a.injections, 0u);
  EXPECT_EQ(a.plan_text, b.plan_text);
  EXPECT_EQ(a.injections, b.injections);
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_EQ(a.failed_over, b.failed_over);
}

TEST(FaultInjector, UnknownTargetIsRejectedAtArmTime) {
  rep::Testbed bed(chaos_testbed_config());
  FaultInjector injector(bed.simulation(), bed.fabric());
  injector.register_testbed(bed);
  FaultPlan plan;
  plan.crash_host("host-z", sim::TimePoint{sim::from_seconds(1)});
  EXPECT_THROW(injector.arm(plan), std::invalid_argument);
  EXPECT_EQ(injector.injected_count(), 0u);
}

// --- Partition vs crash -------------------------------------------------------

TEST(EngineHardening, PartitionHealedBeforeTimeoutDoesNotFailOver) {
  rep::TestbedConfig config = chaos_testbed_config();
  config.engine.heartbeat_interval = sim::from_millis(25);
  config.engine.heartbeat_timeout = sim::from_millis(200);
  rep::Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();
  const std::size_t epochs_before = bed.engine().stats().checkpoints.size();

  // Partition the interconnect for half the heartbeat timeout, repeatedly.
  FaultInjector injector(bed.simulation(), bed.fabric());
  injector.register_testbed(bed);
  FaultPlan plan;
  for (int i = 0; i < 4; ++i) {
    plan.partition_link(
        "ic", bed.simulation().now() + sim::from_millis(500 + 700 * i),
        sim::from_millis(100));
  }
  injector.arm(plan);
  bed.simulation().run_for(sim::from_seconds(6));

  EXPECT_FALSE(bed.engine().failed_over());
  EXPECT_TRUE(bed.engine().service_available());
  // Checkpointing kept going across the blips (aborted epochs retried).
  EXPECT_GT(bed.engine().stats().checkpoints.size(), epochs_before);
}

TEST(EngineHardening, WatchdogProbeClassifiesPartitionVsCrash) {
  for (const bool crash : {false, true}) {
    rep::TestbedConfig config = chaos_testbed_config();
    config.engine.ft.probe_on_heartbeat_loss = true;
    rep::Testbed bed(config);
    hv::Vm& vm = bed.create_vm(
        std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
    bed.protect(vm);
    bed.run_until_seeded();
    bed.simulation().run_for(sim::from_seconds(1));

    FaultInjector injector(bed.simulation(), bed.fabric());
    injector.register_testbed(bed);
    FaultPlan plan;
    if (crash) {
      plan.crash_host("host-a", bed.simulation().now() + sim::from_millis(100));
    } else {
      // Interconnect partition only: the management network still answers.
      plan.partition_link("ic",
                          bed.simulation().now() + sim::from_millis(100));
    }
    injector.arm(plan);
    ASSERT_TRUE(bed.run_until([&] { return bed.engine().failed_over(); },
                              sim::from_seconds(30)));
    EXPECT_EQ(bed.engine().stats().failure_classification,
              crash ? "crash-suspected" : "partition-suspected");
  }
}

// --- Seeding retry ------------------------------------------------------------

TEST(EngineHardening, CrashMidSeedingRetriesUntilProtected) {
  rep::TestbedConfig config = chaos_testbed_config();
  rep::Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);

  // Crash the primary while the first seeding attempt is in flight; the
  // host comes back 2 s later (suspend-to-RAM semantics: the guest resumes).
  FaultInjector injector(bed.simulation(), bed.fabric());
  injector.register_testbed(bed);
  FaultPlan plan;
  plan.crash_host("host-a", bed.simulation().now() + sim::from_millis(200),
                  sim::from_seconds(2));
  injector.arm(plan);

  ASSERT_TRUE(bed.run_until([&] { return bed.engine().seeded(); },
                            sim::from_seconds(600)));
  EXPECT_GT(bed.engine().stats().seed_attempts, 1u);
  EXPECT_FALSE(bed.engine().failed_over());

  // Protection is fully live after the retries: a real crash fails over.
  bed.simulation().run_for(sim::from_seconds(2));
  bed.primary().inject_fault(hv::FaultKind::kCrash);
  ASSERT_TRUE(bed.run_until([&] { return bed.engine().failed_over(); },
                            sim::from_seconds(30)));
  EXPECT_EQ(bed.engine().stats().replica_digest_at_activation,
            bed.engine().stats().committed_digest_at_activation);
}

// --- Split-brain fencing ------------------------------------------------------

TEST(EngineHardening, FencingCancelsFailoverWhenPrimaryReturns) {
  rep::TestbedConfig config = chaos_testbed_config();
  config.engine.heartbeat_interval = sim::from_millis(25);
  config.engine.heartbeat_timeout = sim::from_millis(100);
  config.engine.ft.fencing_window = sim::from_seconds(2);
  rep::Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(1));

  // Partition long enough to trip the watchdog, then heal inside the
  // fencing window: heartbeats resume before the replica activates.
  FaultInjector injector(bed.simulation(), bed.fabric());
  injector.register_testbed(bed);
  FaultPlan plan;
  plan.partition_link("ic", bed.simulation().now() + sim::from_millis(100),
                      sim::from_millis(400));
  injector.arm(plan);
  bed.simulation().run_for(sim::from_seconds(5));

  // Exactly one VM serves: the primary. The failover was fenced.
  EXPECT_FALSE(bed.engine().failed_over());
  EXPECT_EQ(bed.engine().stats().failovers_fenced, 1u);
  EXPECT_EQ(bed.engine().active_vm(), &vm);
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
  EXPECT_EQ(bed.engine().replica_vm(), nullptr);
  EXPECT_TRUE(bed.engine().service_available());

  // And protection resumed: checkpoints commit after the fence.
  const std::size_t epochs = bed.engine().stats().checkpoints.size();
  bed.simulation().run_for(sim::from_seconds(3));
  EXPECT_GT(bed.engine().stats().checkpoints.size(), epochs);
}

TEST(EngineHardening, FencedWindowElapsedMeansRealFailover) {
  rep::TestbedConfig config = chaos_testbed_config();
  config.engine.heartbeat_timeout = sim::from_millis(100);
  config.engine.ft.fencing_window = sim::from_millis(500);
  rep::Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(1));

  // Sticky partition: the primary never comes back in time, so after the
  // fencing window the replica activates for real.
  bed.fabric().set_link_down(bed.primary().ic_node(),
                             bed.secondary().ic_node(), true);
  ASSERT_TRUE(bed.run_until([&] { return bed.engine().failed_over(); },
                            sim::from_seconds(30)));
  EXPECT_EQ(bed.engine().stats().failovers_fenced, 0u);
  ASSERT_NE(bed.engine().replica_vm(), nullptr);
  EXPECT_EQ(bed.engine().replica_vm()->state(), hv::VmState::kRunning);
}

// --- Combined seeded chaos: loss + partition + crash -------------------------

TEST(ChaosPlan, SeededLossPartitionCrashFailsOverWithOutputCommitIntact) {
  rep::TestbedConfig config = chaos_testbed_config();
  config.engine.ft.probe_on_heartbeat_loss = true;
  rep::Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(15)));
  bed.protect(vm);
  bed.run_until_seeded();
  const sim::TimePoint t0 = bed.simulation().now();

  // Seeded link chaos (loss spikes, short partitions) followed by a scripted
  // primary crash once the dust settles.
  RandomPlanConfig plan_config = testbed_plan_config();
  plan_config.host_faults = false;
  plan_config.disk_faults = false;
  plan_config.engine_faults = false;
  plan_config.links = {"ic"};
  plan_config.start = t0 + sim::from_millis(500);
  plan_config.end = t0 + sim::from_seconds(6);
  plan_config.max_loss = 0.35;
  plan_config.max_hold = sim::from_millis(400);
  FaultPlan plan = FaultPlan::random(2026, plan_config);
  plan.crash_host("host-a", t0 + sim::from_seconds(10));

  FaultInjector injector(bed.simulation(), bed.fabric());
  injector.register_testbed(bed);
  injector.arm(plan);

  ASSERT_TRUE(bed.run_until([&] { return bed.engine().failed_over(); },
                            sim::from_seconds(120)));
  const rep::EngineStats& stats = bed.engine().stats();
  // Output commit held through loss, partitions and the final crash: the
  // activated replica is byte-identical to the last committed checkpoint.
  EXPECT_EQ(stats.replica_digest_at_activation,
            stats.committed_digest_at_activation);
  EXPECT_EQ(stats.replica_disk_digest_at_activation,
            stats.committed_disk_digest_at_activation);
  EXPECT_TRUE(bed.engine().service_available());
  ASSERT_NE(bed.engine().replica_vm(), nullptr);
  EXPECT_EQ(bed.engine().replica_vm()->state(), hv::VmState::kRunning);
}

// --- Primary-recovery faults --------------------------------------------------

TEST(FaultPlan, RecoveryFaultsAreOptIn) {
  RandomPlanConfig config = testbed_plan_config();
  config.events = 64;
  const auto has_recovery = [](const FaultPlan& plan) {
    for (const FaultSpec& spec : plan.schedule()) {
      if (spec.type == FaultType::kHypervisorMicroreboot ||
          spec.type == FaultType::kRecoveryRace) {
        return true;
      }
    }
    return false;
  };
  // Off (the default): no seed may produce a recovery fault — existing
  // (seed, config) plans stay byte-stable.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_FALSE(has_recovery(FaultPlan::random(seed, config))) << seed;
  }
  // On: the appended candidates actually get drawn.
  config.recovery_faults = true;
  bool drawn = false;
  for (std::uint64_t seed = 1; seed <= 8 && !drawn; ++seed) {
    drawn = has_recovery(FaultPlan::random(seed, config));
  }
  EXPECT_TRUE(drawn);
  // And the seeded latency lands inside the configured band.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const FaultSpec& spec : FaultPlan::random(seed, config).schedule()) {
      if (spec.type != FaultType::kRecoveryRace &&
          spec.type != FaultType::kHypervisorMicroreboot) {
        continue;
      }
      EXPECT_GE(spec.amount, config.min_recovery_latency);
      EXPECT_LE(spec.amount, config.max_recovery_latency);
    }
  }
}

TEST(FaultInjector, RecoveryRaceCrashesThenMicroreboots) {
  rep::Testbed bed(chaos_testbed_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(20)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(1));

  // One plan event = crash + immediate microreboot with the given latency.
  // 40 ms is well under the heartbeat timeout: the recovered primary wins
  // the arbitration and protection continues in place.
  FaultPlan plan;
  const sim::TimePoint t0 = bed.simulation().now();
  plan.recovery_race("host-a", t0 + sim::from_millis(100),
                     sim::from_millis(40));
  FaultInjector injector(bed.simulation(), bed.fabric());
  injector.register_testbed(bed);
  injector.arm(plan);

  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().stats().resume_grants == 1; },
      sim::from_seconds(10)));
  EXPECT_EQ(bed.primary().microreboots(), 1u);
  EXPECT_FALSE(bed.engine().failed_over());
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
}


// --- Dispatch coverage --------------------------------------------------------

// One row per kind that no other test dispatches: the plan that schedules it
// (with any precondition it needs) from t0, and the effect it must leave on
// the target by t0 + 100 ms.
struct DispatchRow {
  const char* name;
  FaultType type;
  std::function<void(FaultPlan&, sim::TimePoint)> plan;
  std::function<bool(rep::Testbed&)> effect;
};

class FaultDispatch : public ::testing::TestWithParam<DispatchRow> {};

TEST_P(FaultDispatch, KindReachesItsTarget) {
  const DispatchRow& row = GetParam();
  rep::TestbedConfig config = chaos_testbed_config();
  config.durable_replica = true;
  config.durable.snapshot_interval_epochs = 1000;  // the WAL keeps records
  rep::Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(20)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(2));

  FaultPlan plan;
  const sim::TimePoint t0 = bed.simulation().now();
  row.plan(plan, t0);
  FaultInjector injector(bed.simulation(), bed.fabric());
  injector.register_testbed(bed);
  injector.arm(plan);
  bed.simulation().run_for(sim::from_millis(100));

  EXPECT_TRUE(std::ranges::any_of(injector.log(), [&](const auto& applied) {
    return applied.spec.type == row.type && !applied.clear;
  }));
  EXPECT_TRUE(row.effect(bed));
}

net::LinkQuality ic_quality(rep::Testbed& bed) {
  return bed.fabric().link_quality(bed.primary().ic_node(),
                                   bed.secondary().ic_node());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, FaultDispatch,
    ::testing::Values(
        DispatchRow{"host_repair", FaultType::kHostRepair,
                    [](FaultPlan& plan, sim::TimePoint t0) {
                      plan.crash_host("host-b", t0 + sim::from_millis(10))
                          .repair_host("host-b", t0 + sim::from_millis(50));
                    },
                    [](rep::Testbed& bed) {
                      // Down and back: the replica went down and rejoins.
                      return bed.secondary().alive() &&
                             bed.engine().stats().secondary_crashes == 1;
                    }},
        DispatchRow{"link_heal", FaultType::kLinkHeal,
                    [](FaultPlan& plan, sim::TimePoint t0) {
                      plan.partition_link("ic", t0 + sim::from_millis(10))
                          .heal_link("ic", t0 + sim::from_millis(50));
                    },
                    [](rep::Testbed& bed) { return !ic_quality(bed).down; }},
        DispatchRow{"truncation", FaultType::kLinkTruncation,
                    [](FaultPlan& plan, sim::TimePoint t0) {
                      plan.link_truncation("ic", t0, 0.25);
                    },
                    [](rep::Testbed& bed) {
                      return ic_quality(bed).truncate_prob == 0.25;
                    }},
        DispatchRow{"duplication", FaultType::kLinkDuplication,
                    [](FaultPlan& plan, sim::TimePoint t0) {
                      plan.link_duplication("ic", t0, 0.25);
                    },
                    [](rep::Testbed& bed) {
                      return ic_quality(bed).duplicate_prob == 0.25;
                    }},
        DispatchRow{"reordering", FaultType::kLinkReordering,
                    [](FaultPlan& plan, sim::TimePoint t0) {
                      plan.link_reordering("ic", t0, 0.25);
                    },
                    [](rep::Testbed& bed) {
                      return ic_quality(bed).reorder_prob == 0.25;
                    }},
        DispatchRow{"wal_truncation", FaultType::kWalTruncation,
                    [](FaultPlan& plan, sim::TimePoint t0) {
                      plan.wal_truncation("engine", t0, 24);
                    },
                    [](rep::Testbed& bed) {
                      return bed.durable_store()->read_log().damaged_tail;
                    }},
        DispatchRow{"microreboot", FaultType::kHypervisorMicroreboot,
                    [](FaultPlan& plan, sim::TimePoint t0) {
                      plan.crash_host("host-a", t0 + sim::from_millis(10))
                          .hypervisor_microreboot("host-a",
                                                  t0 + sim::from_millis(20),
                                                  sim::from_millis(40));
                    },
                    [](rep::Testbed& bed) {
                      return bed.primary().microreboots() == 1 &&
                             bed.primary().alive();
                    }}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace here::faults
