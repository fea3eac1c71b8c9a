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
//
// A fail-stop return (Host::repair) reaches the engine exactly as a completed
// microreboot does, so the same arbitration, and the same fresh seed attempt
// while seeding, follow either ending of an outage.
#include <gtest/gtest.h>

#include <algorithm>

#include "obs/trace.h"
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
  host.add_recovery_listener(&recovered, [&] { recovered = true; });

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

  // Window closes: fault cleared, guest running again, the reboot counted
  // and the return heard.
  bed.simulation().run_for(sim::from_millis(50));
  EXPECT_TRUE(host.alive());
  EXPECT_EQ(host.recovery_state(), hv::Host::RecoveryState::kOperational);
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
  EXPECT_EQ(host.microreboots(), 1u);
  EXPECT_TRUE(recovered);
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

// --- A fail-stop return: repair() --------------------------------------------
//
// The same arbitration follows an operator repair(): a primary that comes
// back before the replica took over resumes protection, one that comes back
// after it is demoted, and a seed attempt an outage stopped starts afresh.

// Emits one packet per guest tick to `client`, so every epoch buffers output.
class TickEmitter final : public hv::GuestProgram {
 public:
  explicit TickEmitter(net::NodeId client) : client_(client) {}
  void start(hv::GuestEnv& env) override { inner_.start(env); }
  void tick(hv::GuestEnv& env, sim::Duration dt) override {
    inner_.tick(env, dt);
    env.send_packet(client_, 64, 0, next_seq_++);
  }
  [[nodiscard]] std::unique_ptr<GuestProgram> clone() const override {
    return std::make_unique<TickEmitter>(*this);
  }

 private:
  wl::SyntheticProgram inner_{wl::memory_microbench(15)};
  net::NodeId client_;
  std::uint64_t next_seq_ = 0;
};

// Output-commit witness on the live trace: every io.release names an epoch
// that the seed (epoch 0) or an epoch.commit already committed.
class ReleaseAudit final : public obs::TraceSink {
 public:
  void record(obs::TraceEvent event) override {
    if (event.name == "epoch.seeded") {
      committed_ = std::max<std::int64_t>(committed_, 0);
    } else if (event.name == "epoch.commit") {
      committed_ = std::max(committed_, epoch_of(event));
    } else if (event.name == "io.release") {
      if (event.ts_ns >= since_ns) ++released_since;
      if (epoch_of(event) > committed_) ++uncommitted;
    }
  }

  std::int64_t since_ns = 0;         // count releases from here on
  std::uint64_t released_since = 0;  // releases at or after since_ns
  std::uint64_t uncommitted = 0;     // releases ahead of their commit

 private:
  static std::int64_t epoch_of(const obs::TraceEvent& event) {
    for (const auto& [key, value] : event.args) {
      if (key == "epoch") return value.as_int64();
    }
    return -1;
  }
  std::int64_t committed_ = -1;
};

// 64 MiB guest, fixed T = 200 ms, every other setting at its default.
TestbedConfig outage_config(obs::Tracer* tracer) {
  TestbedConfig config;
  config.engine.period.t_max = sim::from_millis(200);
  config.engine.tracer = tracer;
  config.vm_spec = hv::make_vm_spec("svc", 2, 64ULL << 20);
  return config;
}

// Protects an emitting guest and runs it for a second past its seed.
hv::Vm& protect_emitter(Testbed& bed) {
  hv::Vm& vm = bed.create_vm(nullptr);
  bed.protect(vm);
  const net::NodeId client = bed.add_client("client", {});
  vm.attach_program(std::make_unique<TickEmitter>(client));
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(1));
  return vm;
}

// Runs event by event until the guest enters `state` (within a second).
void step_until(Testbed& bed, hv::Vm& vm, hv::VmState state) {
  const sim::TimePoint limit = bed.simulation().now() + sim::from_seconds(1);
  while (vm.state() != state && bed.simulation().now() < limit) {
    ASSERT_TRUE(bed.simulation().step());
  }
  ASSERT_EQ(vm.state(), state);
}

// After a short outage and its repair the primary must win the arbitration:
// checkpoints resume, the guest runs, and output released after the return
// belongs to committed epochs only.
void expect_protection_resumes(Testbed& bed, hv::Vm& vm, ReleaseAudit& audit) {
  const EngineStats& stats = bed.engine().stats();
  audit.since_ns = bed.simulation().now().ns();
  const std::size_t at_repair = stats.checkpoints.size();
  bed.simulation().run_for(sim::from_seconds(5));
  EXPECT_EQ(stats.resume_grants, 1u);
  EXPECT_EQ(stats.primary_demotions, 0u);
  EXPECT_FALSE(bed.engine().failed_over());
  EXPECT_GT(stats.checkpoints.size(), at_repair + 10);
  EXPECT_TRUE(bed.run_until([&] { return vm.state() == hv::VmState::kRunning; },
                            sim::from_seconds(1)));
  EXPECT_GT(audit.released_since, 0u);
  EXPECT_EQ(audit.uncommitted, 0u);
}

// The crash lands while an epoch holds the guest paused for its capture.
TEST(RepairRace, CrashInsidePauseThenRepairResumesProtection) {
  ReleaseAudit audit;
  obs::Tracer tracer(&audit);
  Testbed bed(outage_config(&tracer));
  hv::Vm& vm = protect_emitter(bed);

  ASSERT_NO_FATAL_FAILURE(step_until(bed, vm, hv::VmState::kPaused));
  bed.primary().inject_fault(hv::FaultKind::kCrash);
  bed.simulation().run_for(sim::from_millis(40));
  bed.primary().repair();
  expect_protection_resumes(bed, vm, audit);
}

// The crash lands between epochs and the next checkpoint run falls inside
// the outage, where it finds the primary dead.
TEST(RepairRace, CrashAcrossScheduledRunThenRepairResumesProtection) {
  ReleaseAudit audit;
  obs::Tracer tracer(&audit);
  Testbed bed(outage_config(&tracer));
  hv::Vm& vm = protect_emitter(bed);

  // An epoch settles as its guest resumes; the next run is one fixed period
  // (200 ms) later, inside the 180-220 ms outage.
  ASSERT_NO_FATAL_FAILURE(step_until(bed, vm, hv::VmState::kPaused));
  ASSERT_NO_FATAL_FAILURE(step_until(bed, vm, hv::VmState::kRunning));
  bed.simulation().run_for(sim::from_millis(180));
  bed.primary().inject_fault(hv::FaultKind::kCrash);
  bed.simulation().run_for(sim::from_millis(40));
  bed.primary().repair();
  expect_protection_resumes(bed, vm, audit);
}

// The outage outlasts detection: the replica is active when the primary is
// repaired, so the stale primary VM is demoted and destroyed.
TEST(RepairRace, RepairAfterActivationDemotesStalePrimary) {
  Testbed bed(outage_config(nullptr));
  (void)protect_emitter(bed);

  bed.primary().inject_fault(hv::FaultKind::kCrash);
  ASSERT_TRUE(bed.run_until([&] { return bed.engine().failed_over(); },
                            sim::from_seconds(10)));
  bed.primary().repair();
  bed.simulation().run_for(sim::from_seconds(1));

  const EngineStats& stats = bed.engine().stats();
  EXPECT_EQ(stats.primary_demotions, 1u);
  EXPECT_EQ(stats.resume_grants, 0u);
  EXPECT_TRUE(bed.engine().primary_demoted());
  EXPECT_TRUE(bed.primary().hypervisor().vms().empty());
  ASSERT_NE(bed.engine().replica_vm(), nullptr);
  EXPECT_EQ(bed.engine().replica_vm()->state(), hv::VmState::kRunning);
  EXPECT_TRUE(bed.engine().service_available());
}

// A primary crash 50 ms into seeding stops the attempt; the repair a second
// later starts a fresh one, which completes.
TEST(RecoveryRace, PrimaryRepairDuringSeedSeedsAfresh) {
  Testbed bed(seed_race_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);

  bed.simulation().run_for(sim::from_millis(50));
  ASSERT_FALSE(bed.engine().seeded()) << "seed finished before the fault";
  bed.primary().inject_fault(hv::FaultKind::kCrash);
  bed.simulation().run_for(sim::from_seconds(1));
  EXPECT_FALSE(bed.engine().failed_over());
  bed.primary().repair();

  ASSERT_TRUE(bed.run_until([&] { return bed.engine().seeded(); },
                            sim::from_seconds(60)));
  EXPECT_EQ(bed.engine().stats().seed_attempts, 2u);
  EXPECT_EQ(bed.engine().stats().seed_retries, 1u);
  EXPECT_FALSE(bed.engine().failed_over());
  const std::size_t epochs_at_seed = bed.engine().stats().checkpoints.size();
  bed.simulation().run_for(sim::from_seconds(3));
  EXPECT_GT(bed.engine().stats().checkpoints.size(), epochs_at_seed);
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
}

// A secondary crash mid-seed tears the attempt down and lets the guest run;
// the secondary's repair starts a fresh attempt, which completes.
TEST(RecoveryRace, SecondaryRepairDuringSeedSeedsAfresh) {
  Testbed bed(seed_race_config());
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);

  bed.simulation().run_for(sim::from_millis(50));
  ASSERT_FALSE(bed.engine().seeded()) << "seed finished before the fault";
  bed.secondary().inject_fault(hv::FaultKind::kCrash);
  bed.simulation().run_for(sim::from_seconds(1));
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
  EXPECT_EQ(bed.engine().stats().seed_attempts, 1u);
  bed.secondary().repair();

  ASSERT_TRUE(bed.run_until([&] { return bed.engine().seeded(); },
                            sim::from_seconds(60)));
  EXPECT_EQ(bed.engine().stats().seed_attempts, 2u);
  EXPECT_FALSE(bed.engine().failed_over());
  const std::size_t epochs_at_seed = bed.engine().stats().checkpoints.size();
  bed.simulation().run_for(sim::from_seconds(3));
  EXPECT_GT(bed.engine().stats().checkpoints.size(), epochs_at_seed);
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
}

// --- A secondary outage mid-arbitration ---------------------------------------

// A secondary host outage while the recovered primary's probe is pending:
// a dead secondary can neither arbitrate nor have activated, so the primary
// grants itself (the self-grant rule) and its guest runs again. Exactly one
// side stays authoritative, and no output is released while the replica is
// down: it waits for the first commit after the secondary's return and
// rejoin. The partition keeps the first probe from the secondary.
TEST(RecoveryRace, SecondaryOutageDuringArbitrationSelfGrantsAndHoldsOutput) {
  Testbed bed(race_config());
  hv::Vm& vm = bed.create_vm(nullptr);
  bed.protect(vm);
  const net::NodeId client = bed.add_client("client", {});
  vm.attach_program(std::make_unique<TickEmitter>(client));
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

  const std::uint64_t released = bed.engine().outbound().released_total();
  const std::uint64_t committed = stats.epochs_committed;
  bed.secondary().inject_fault(hv::FaultKind::kCrash);
  EXPECT_TRUE(bed.engine().rejoining());
  // The next probe finds the secondary dead and grants itself.
  bed.simulation().run_for(sim::from_millis(500));
  EXPECT_EQ(stats.resume_grants, 1u);
  EXPECT_EQ(stats.primary_demotions, 0u);
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
  EXPECT_FALSE(bed.engine().failover_in_progress());
  EXPECT_FALSE(bed.engine().failed_over());
  // The guest runs, but nothing commits and its output stays buffered.
  EXPECT_EQ(stats.epochs_committed, committed);
  EXPECT_EQ(bed.engine().outbound().released_total(), released);
  EXPECT_GT(bed.engine().outbound().pending(), 0u);

  bed.fabric().set_link_down(bed.primary().ic_node(),
                             bed.secondary().ic_node(), false);
  bed.secondary().repair();
  // Nothing is released before the rejoin commit; that commit releases it.
  ASSERT_TRUE(bed.run_until(
      [&] {
        if (bed.engine().rejoining()) {
          EXPECT_EQ(bed.engine().outbound().released_total(), released);
        }
        return !bed.engine().rejoining();
      },
      sim::from_seconds(10), sim::from_millis(1)));
  EXPECT_GT(stats.epochs_committed, committed);
  EXPECT_GT(bed.engine().outbound().released_total(), released);
  EXPECT_EQ(stats.resume_grants + stats.primary_demotions, 1u);
  EXPECT_FALSE(bed.engine().failed_over());
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
}

}  // namespace
}  // namespace here::rep
