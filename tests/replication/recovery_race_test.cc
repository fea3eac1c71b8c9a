// Tests for the primary-recovery subsystem: the ReHype-style microreboot
// state machine on Host, and the two-sided resume-probe arbitration that
// decides — under any interleaving of recovery latency versus failover
// progress — which side of a protection pair keeps the authoritative VM.
//
// The load-bearing property (the 50-seed sweep at the bottom): exactly one
// side wins every race. Either the recovered primary resumes output commit
// (grant) or it demotes to a re-seed candidate (deny / already-active), and
// whichever VM ends up authoritative carries the pre-fault image — the
// preserved in-place memory on a grant, the last committed checkpoint on a
// failover.
#include <gtest/gtest.h>

#include "replication/testbed.h"
#include "sim/rng.h"
#include "workload/synthetic.h"

namespace here::rep {
namespace {

TestbedConfig race_config() {
  TestbedConfig config;
  config.engine.period.t_max = sim::from_millis(500);
  config.vm_spec = hv::make_vm_spec("svc", 2, 64ULL << 20);
  return config;
}

// --- Host microreboot state machine ------------------------------------------

TEST(Microreboot, RestartsHypervisorUnderPreservedGuests) {
  Testbed bed(race_config());
  hv::Host& host = bed.primary();
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.simulation().run_for(sim::from_millis(200));

  // Healthy hosts refuse a microreboot — there is nothing to recover from.
  EXPECT_EQ(host.recovery_state(), hv::Host::RecoveryState::kOperational);
  EXPECT_FALSE(host.begin_microreboot(sim::from_millis(100)));

  bool recovered = false;
  bool via_microreboot = false;
  host.add_recovery_listener(&recovered, [&](bool microreboot) {
    recovered = true;
    via_microreboot = microreboot;
  });

  host.inject_fault(hv::FaultKind::kCrash);
  EXPECT_EQ(host.recovery_state(), hv::Host::RecoveryState::kFailed);
  ASSERT_TRUE(host.begin_microreboot(sim::from_millis(100)));
  EXPECT_EQ(host.recovery_state(), hv::Host::RecoveryState::kMicrorebooting);
  // Double-entry is refused; the window in flight is the only one.
  EXPECT_FALSE(host.begin_microreboot(sim::from_millis(100)));

  // Mid-window: the host is dead to the world, the guest is paused in place
  // and its memory does not advance.
  bed.simulation().run_for(sim::from_millis(50));
  EXPECT_FALSE(host.alive());
  EXPECT_EQ(vm.state(), hv::VmState::kPaused);
  const std::uint64_t frozen = vm.memory().full_digest();
  bed.simulation().run_for(sim::from_millis(20));
  EXPECT_EQ(vm.memory().full_digest(), frozen);

  // Window closes: fault cleared, guest running again, listener told it was
  // a microreboot (not an operator repair).
  bed.simulation().run_for(sim::from_millis(50));
  EXPECT_TRUE(host.alive());
  EXPECT_EQ(host.recovery_state(), hv::Host::RecoveryState::kOperational);
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
  EXPECT_EQ(host.microreboots(), 1u);
  EXPECT_TRUE(recovered);
  EXPECT_TRUE(via_microreboot);
}

TEST(Microreboot, RepairDuringWindowCancelsIt) {
  Testbed bed(race_config());
  hv::Host& host = bed.primary();
  (void)bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.simulation().run_for(sim::from_millis(100));

  host.inject_fault(hv::FaultKind::kCrash);
  ASSERT_TRUE(host.begin_microreboot(sim::from_seconds(10)));
  host.repair();  // operator beats the reboot window
  EXPECT_TRUE(host.alive());
  EXPECT_EQ(host.recovery_state(), hv::Host::RecoveryState::kOperational);
  // The stale window must not fire later and double-count a recovery.
  bed.simulation().run_for(sim::from_seconds(11));
  EXPECT_EQ(host.microreboots(), 0u);
}

// --- Arbitration: deterministic endpoints ------------------------------------

// Recovery completes well inside the heartbeat timeout: the secondary never
// starts a failover, the probe is granted, and protection continues on the
// original primary with the preserved image.
TEST(RecoveryRace, FastRecoveryKeepsThePrimary) {
  Testbed bed(race_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(15)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(2));

  const std::uint64_t pre_fault = vm.memory().full_digest();
  // The grant packet is the last moment before the primary resumes; memory
  // must still be byte-identical to the pre-fault image when it lands.
  std::uint64_t digest_at_grant = 0;
  bed.primary().add_ic_handler(&bed, [&](const net::Packet& packet) {
    if (packet.kind == kResumeGrantKind) {
      digest_at_grant = vm.memory().full_digest();
    }
  });

  bed.primary().inject_fault(hv::FaultKind::kCrash);
  ASSERT_TRUE(bed.primary().begin_microreboot(sim::from_millis(40)));
  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().stats().resume_grants == 1; },
      sim::from_seconds(10)));

  const EngineStats& stats = bed.engine().stats();
  EXPECT_EQ(stats.resume_probes, 1u);
  EXPECT_EQ(stats.primary_demotions, 0u);
  EXPECT_FALSE(bed.engine().failed_over());
  EXPECT_FALSE(bed.engine().primary_demoted());
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
  EXPECT_EQ(digest_at_grant, pre_fault);

  // Output commit resumed: the checkpoint loop keeps making progress.
  const std::uint64_t epochs_before = stats.checkpoints.size();
  bed.simulation().run_for(sim::from_seconds(3));
  EXPECT_GT(bed.engine().stats().checkpoints.size(), epochs_before);
  EXPECT_TRUE(bed.engine().service_available());
}

// Recovery takes far longer than failover: the replica is active when the
// primary comes back, the probe (or the local already-active check) demotes
// it, and the stale VM is destroyed rather than resuming output commit.
TEST(RecoveryRace, SlowRecoveryDemotesThePrimary) {
  Testbed bed(race_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(15)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(2));

  bed.primary().inject_fault(hv::FaultKind::kCrash);
  ASSERT_TRUE(bed.primary().begin_microreboot(sim::from_seconds(5)));
  ASSERT_TRUE(bed.run_until([&] { return bed.engine().failed_over(); },
                            sim::from_seconds(10)));
  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().stats().primary_demotions == 1; },
      sim::from_seconds(10)));

  const EngineStats& stats = bed.engine().stats();
  EXPECT_EQ(stats.resume_grants, 0u);
  EXPECT_TRUE(bed.engine().primary_demoted());
  // The replica activated from the last committed checkpoint, verified at
  // the activation instant.
  EXPECT_EQ(stats.replica_digest_at_activation,
            stats.committed_digest_at_activation);
  ASSERT_NE(bed.engine().replica_vm(), nullptr);
  EXPECT_EQ(bed.engine().replica_vm()->state(), hv::VmState::kRunning);
  // Exactly one authoritative VM: the demoted primary's stale twin is gone.
  EXPECT_TRUE(bed.primary().hypervisor().vms().empty());
}

// The sharpest interleaving: the secondary has *armed* its activation (the
// fencing window is open) when the probe lands. The probe must fence the
// armed failover — cancel it, count it, grant — instead of letting the
// activation fire after the primary already resumed output commit.
TEST(RecoveryRace, ProbeFencesArmedActivation) {
  TestbedConfig config = race_config();
  config.engine.ft.fencing_window = sim::from_millis(300);
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(15)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(2));

  bed.primary().inject_fault(hv::FaultKind::kCrash);
  // Detection needs ~heartbeat_timeout (100 ms); activation then waits out
  // the 300 ms fence. A 250 ms reboot window lands the probe inside it.
  ASSERT_TRUE(bed.primary().begin_microreboot(sim::from_millis(250)));
  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().stats().resume_grants == 1; },
      sim::from_seconds(10)));

  const EngineStats& stats = bed.engine().stats();
  EXPECT_EQ(stats.failovers_fenced, 1u);
  EXPECT_EQ(stats.primary_demotions, 0u);
  EXPECT_FALSE(bed.engine().failed_over());
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
  // The fenced activation never fires later: protection simply continues.
  const std::uint64_t epochs_before = stats.checkpoints.size();
  bed.simulation().run_for(sim::from_seconds(3));
  EXPECT_FALSE(bed.engine().failed_over());
  EXPECT_GT(bed.engine().stats().checkpoints.size(), epochs_before);
}

// A secondary process crash while the recovered primary's probe is pending
// must not run the held guest: it stays paused until a verdict arrives. The
// partition keeps every probe from the secondary until it is healed, after
// the secondary rebooted; the rejoined secondary then grants.
TEST(RecoveryRace, SecondaryCrashDuringArbitrationKeepsGuestPaused) {
  Testbed bed(race_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(15)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(2));

  bed.fabric().set_link_down(bed.primary().ic_node(),
                             bed.secondary().ic_node(), true);
  bed.primary().inject_fault(hv::FaultKind::kCrash);
  ASSERT_TRUE(bed.primary().begin_microreboot(sim::from_millis(40)));
  bed.simulation().run_for(sim::from_millis(50));
  const EngineStats& stats = bed.engine().stats();
  ASSERT_EQ(stats.resume_probes, 1u);
  ASSERT_EQ(stats.resume_grants, 0u);
  ASSERT_EQ(vm.state(), hv::VmState::kPaused);

  bed.engine().inject_secondary_crash(sim::from_millis(500));
  EXPECT_EQ(vm.state(), hv::VmState::kPaused);
  EXPECT_TRUE(bed.engine().rejoining());
  // The secondary reboots and recovers; still no verdict, still held.
  bed.simulation().run_for(sim::from_seconds(1));
  EXPECT_EQ(vm.state(), hv::VmState::kPaused);
  EXPECT_EQ(stats.resume_grants + stats.primary_demotions, 0u);
  EXPECT_FALSE(bed.engine().failover_in_progress());

  bed.fabric().set_link_down(bed.primary().ic_node(),
                             bed.secondary().ic_node(), false);
  ASSERT_TRUE(bed.run_until([&] { return stats.resume_grants == 1; },
                            sim::from_seconds(10)));
  EXPECT_EQ(stats.primary_demotions, 0u);
  EXPECT_FALSE(bed.engine().failed_over());
  // The rejoin completes at the first post-grant commit.
  const std::size_t epochs_at_grant = stats.checkpoints.size();
  ASSERT_TRUE(bed.run_until([&] { return !bed.engine().rejoining(); },
                            sim::from_seconds(10)));
  EXPECT_GT(stats.checkpoints.size(), epochs_at_grant);
  EXPECT_TRUE(bed.run_until(
      [&] { return vm.state() == hv::VmState::kRunning; },
      sim::from_seconds(2)));
}

// --- The 50-seed interleaving sweep ------------------------------------------

// Sweeps the recovery latency across the detection/activation window (and
// jitters the crash instant) so every interleaving class gets hit: recovery
// before detection, recovery racing an armed-but-unfired activation (fenced
// by the probe), and recovery after activation. Under every seed exactly
// one of {grant, demotion} happens and the surviving image checks out.
TEST(RecoveryRace, FiftySeedSweepExactlyOneAuthority) {
  int grants = 0;
  int demotions = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::Rng rng(seed);
    const sim::Duration window =
        sim::from_millis(25 + static_cast<std::int64_t>(rng.uniform(400)));
    const sim::Duration crash_after =
        sim::from_millis(500 + static_cast<std::int64_t>(rng.uniform(500)));

    Testbed bed(race_config());
    hv::Vm& vm = bed.create_vm(
        std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(15)));
    bed.protect(vm);
    bed.run_until_seeded();
    bed.simulation().run_for(crash_after);

    const std::uint64_t pre_fault = vm.memory().full_digest();
    std::uint64_t digest_at_grant = 0;
    bed.primary().add_ic_handler(&bed, [&](const net::Packet& packet) {
      if (packet.kind == kResumeGrantKind) {
        digest_at_grant = vm.memory().full_digest();
      }
    });

    bed.primary().inject_fault(hv::FaultKind::kCrash);
    ASSERT_TRUE(bed.primary().begin_microreboot(window));
    ASSERT_TRUE(bed.run_until(
        [&] {
          const EngineStats& s = bed.engine().stats();
          return s.resume_grants + s.primary_demotions >= 1;
        },
        sim::from_seconds(30)));
    // Let any in-flight activation / checkpoint restart settle.
    bed.simulation().run_for(sim::from_seconds(1));

    const EngineStats& stats = bed.engine().stats();
    // Exactly one winner, never both.
    EXPECT_EQ(stats.resume_grants + stats.primary_demotions, 1u);
    if (stats.resume_grants == 1) {
      // Primary won: it is the sole authority and resumed the exact image
      // that was live when the fault hit. (The settle window can land on a
      // checkpoint pause, so wait for running rather than sampling it.)
      EXPECT_FALSE(bed.engine().failed_over());
      EXPECT_FALSE(bed.engine().primary_demoted());
      EXPECT_TRUE(bed.run_until(
          [&] { return vm.state() == hv::VmState::kRunning; },
          sim::from_seconds(2)));
      EXPECT_EQ(digest_at_grant, pre_fault);
      ++grants;
    } else {
      // Replica won: activation image matched the committed checkpoint and
      // the stale primary twin was destroyed.
      EXPECT_TRUE(bed.engine().failed_over());
      EXPECT_TRUE(bed.engine().primary_demoted());
      EXPECT_EQ(stats.replica_digest_at_activation,
                stats.committed_digest_at_activation);
      ASSERT_NE(bed.engine().replica_vm(), nullptr);
      EXPECT_EQ(bed.engine().replica_vm()->state(), hv::VmState::kRunning);
      EXPECT_TRUE(bed.primary().hypervisor().vms().empty());
      ++demotions;
    }
  }
  // The sweep must actually exercise both outcomes, or the interleaving
  // coverage claim is vacuous.
  EXPECT_GT(grants, 0);
  EXPECT_GT(demotions, 0);
}

// --- Recovery racing the *initial seed* ---------------------------------------
//
// Regression guard for the seeding window: until the first checkpoint
// commits, the staging area holds a half-copied image and begin_failover
// must refuse to activate it, whatever the watchdog thinks of the primary.
// A microreboot mid-seed therefore has exactly two clean outcomes — the
// primary recovers and seeding retries to completion, or (for a secondary
// reboot) the seed attempt aborts and a later attempt finishes — and never
// a failover onto a half-seeded replica.

TestbedConfig seed_race_config() {
  TestbedConfig config;
  config.engine.period.t_max = sim::from_millis(500);
  // Big enough that the initial seed is a window worth racing into.
  config.vm_spec = hv::make_vm_spec("svc", 2, 256ULL << 20);
  // Interrupted attempts may retry (the default is give-up-after-one).
  config.engine.ft.seed_max_attempts = 5;
  return config;
}

TEST(RecoveryRace, PrimaryMicrorebootDuringSeedNeverActivatesHalfSeed) {
  Testbed bed(seed_race_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);

  // Let the seed get genuinely under way, then yank the hypervisor.
  bed.simulation().run_for(sim::from_millis(50));
  ASSERT_FALSE(bed.engine().seeded()) << "seed finished before the fault";
  bed.primary().inject_fault(hv::FaultKind::kHang);
  ASSERT_TRUE(bed.primary().begin_microreboot(sim::from_millis(300)));

  // Through the whole outage the half-seeded replica must stay inert: no
  // activation, no authority flip, no matter how often the watchdog fires.
  const sim::TimePoint outage_end =
      bed.simulation().now() + sim::from_seconds(5);
  while (bed.simulation().now() < outage_end) {
    bed.simulation().run_for(sim::from_millis(20));
    ASSERT_FALSE(bed.engine().failed_over())
        << "activated a replica that was never seeded";
  }
  EXPECT_EQ(bed.engine().stats().replica_digest_at_activation, 0u);

  // The primary is back: seeding must complete and protection resume on the
  // original pair.
  bed.run_until_seeded(sim::from_seconds(600));
  EXPECT_TRUE(bed.primary().alive());
  EXPECT_FALSE(bed.engine().failed_over());
  const std::size_t epochs_at_seed = bed.engine().stats().checkpoints.size();
  bed.simulation().run_for(sim::from_seconds(3));
  EXPECT_GT(bed.engine().stats().checkpoints.size(), epochs_at_seed);
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
}

TEST(RecoveryRace, SecondaryMicrorebootDuringSeedAbortsAndRetriesCleanly) {
  Testbed bed(seed_race_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);

  bed.simulation().run_for(sim::from_millis(50));
  ASSERT_FALSE(bed.engine().seeded()) << "seed finished before the fault";
  bed.secondary().inject_fault(hv::FaultKind::kCrash);
  ASSERT_TRUE(bed.secondary().begin_microreboot(sim::from_millis(250)));

  // The guest must not be held hostage by the dead seed target: the abort
  // path resumes it, and no failover ever starts (the primary is healthy
  // and the replica unseeded).
  bed.run_until_seeded(sim::from_seconds(600));
  EXPECT_FALSE(bed.engine().failed_over());
  EXPECT_GE(bed.engine().stats().seed_attempts, 2u)
      << "the interrupted attempt should have aborted and retried";

  const std::size_t epochs_at_seed = bed.engine().stats().checkpoints.size();
  bed.simulation().run_for(sim::from_seconds(3));
  EXPECT_GT(bed.engine().stats().checkpoints.size(), epochs_at_seed);
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
  EXPECT_EQ(bed.engine().stats().replica_digest_at_activation, 0u);
}

}  // namespace
}  // namespace here::rep
