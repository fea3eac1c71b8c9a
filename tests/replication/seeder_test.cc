// Tests for the seeding phase (iterative live pre-copy) and one-shot
// migration.
#include <gtest/gtest.h>

#include "replication/migrator.h"
#include "replication/seeder.h"
#include "replication/testbed.h"
#include "workload/synthetic.h"

namespace here::rep {
namespace {

struct SeedFixture {
  explicit SeedFixture(double load_percent, SeedMode mode,
                       std::uint32_t vcpus = 4, std::uint64_t scale = 1)
      : config{[&] {
          TestbedConfig c;
          c.vm_spec = hv::make_vm_spec("t", vcpus, scale * (64ULL << 20), scale);
          c.engine.mode = EngineMode::kRemus;  // hosts only; engine unused
          return c;
        }()},
        bed(config),
        pool(mode == SeedMode::kHereMultithreaded ? vcpus : 1),
        staging(config.vm_spec,
                mode == SeedMode::kHereMultithreaded ? vcpus : 1),
        vm(bed.create_vm(std::make_unique<wl::SyntheticProgram>(
            wl::memory_microbench(load_percent)))) {
    seed_config.mode = mode;
    bed.simulation().run_for(sim::from_millis(300));  // warm the WSS
  }

  SeedResult run() {
    Seeder seeder(bed.simulation(), model, pool, bed.xen(), vm, staging,
                  seed_config);
    SeedResult result;
    bool done = false;
    seeder.start([&](const SeedResult& r) {
      result = r;
      done = true;
    });
    bed.run_until([&] { return done; }, sim::from_seconds(3600));
    EXPECT_TRUE(done);
    return result;
  }

  TestbedConfig config;
  Testbed bed;
  common::ThreadPool pool;
  TimeModel model;
  ReplicaStaging staging;
  hv::Vm& vm;
  SeedConfig seed_config;
};

class SeederModes : public ::testing::TestWithParam<SeedMode> {};

TEST_P(SeederModes, ProducesByteIdenticalImage) {
  SeedFixture f(20.0, GetParam());
  const SeedResult result = f.run();
  // VM is paused and the staging image matches exactly.
  EXPECT_EQ(f.vm.state(), hv::VmState::kPaused);
  EXPECT_EQ(f.staging.memory().full_digest(), f.vm.memory().full_digest());
  EXPECT_GE(result.pages_sent, f.vm.memory().pages());
  EXPECT_GT(result.total_time.count(), 0);
  EXPECT_GT(result.stop_copy_time.count(), 0);
  EXPECT_LE(result.iterations, 5u + 1u);
}

TEST_P(SeederModes, IdleVmConvergesInFewIterations) {
  SeedFixture f(0.0, GetParam());
  const SeedResult result = f.run();
  EXPECT_LE(result.iterations, 2u);
  EXPECT_EQ(f.staging.memory().full_digest(), f.vm.memory().full_digest());
}

INSTANTIATE_TEST_SUITE_P(Modes, SeederModes,
                         ::testing::Values(SeedMode::kXenDefault,
                                           SeedMode::kHereMultithreaded));

TEST(Seeder, LoadedVmHitsIterationCap) {
  // A "4 GB" VM under heavy dirtying: pre-copy cannot converge and stops at
  // Xen's 5-iteration cap.
  SeedFixture f(80.0, SeedMode::kXenDefault, 4, 64);
  f.seed_config.threshold_pages = 1;  // force convergence-by-threshold off
  const SeedResult result = f.run();
  EXPECT_EQ(result.iterations, 5u);
  EXPECT_GT(result.pages_sent, f.vm.memory().pages());  // re-sends happened
  EXPECT_EQ(f.staging.memory().full_digest(), f.vm.memory().full_digest());
}

// A guest whose vCPUs deliberately share pages: every tick, vCPU 0 and
// vCPU 1 both write the same page — the textbook problematic-page case.
class SharedWriterProgram final : public hv::GuestProgram {
 public:
  void tick(hv::GuestEnv& env, sim::Duration) override {
    const std::uint64_t page = 100 + (counter_++ % 50);
    env.store(0, page, 0, counter_);
    env.store(1, page, 8, counter_);
  }
  [[nodiscard]] std::unique_ptr<GuestProgram> clone() const override {
    return std::make_unique<SharedWriterProgram>(*this);
  }

 private:
  std::uint64_t counter_ = 0;
};

TEST(Seeder, MultithreadedDetectsProblematicPagesUnderSharedWrites) {
  SeedFixture f(0.0, SeedMode::kHereMultithreaded);
  f.vm.attach_program(std::make_unique<SharedWriterProgram>());
  f.bed.simulation().run_for(sim::from_millis(200));
  const SeedResult result = f.run();
  EXPECT_GT(result.problematic_pages, 0u);
  EXPECT_EQ(f.staging.memory().full_digest(), f.vm.memory().full_digest());
}

TEST(Seeder, MultithreadedSeedingIsFasterOnLargeVms) {
  // "4 GB" modelled VMs (64 MB real, scale 64): the one-time thread/PML
  // setup amortizes and per-vCPU migration wins, as in Fig. 6.
  SeedFixture xen_f(30.0, SeedMode::kXenDefault, 4, 64);
  SeedFixture here_f(30.0, SeedMode::kHereMultithreaded, 4, 64);
  const SeedResult xen_result = xen_f.run();
  const SeedResult here_result = here_f.run();
  EXPECT_LT(here_result.total_time, xen_result.total_time);
}

TEST(Seeder, MultithreadedIsSlightlySlowerOnSmallVms) {
  // The paper's crossover: at 1-2 GB the setup cost dominates.
  SeedFixture xen_f(0.0, SeedMode::kXenDefault, 4, 16);  // "1 GB"
  SeedFixture here_f(0.0, SeedMode::kHereMultithreaded, 4, 16);
  EXPECT_GT(here_f.run().total_time, xen_f.run().total_time);
}

// --- Migrator ---------------------------------------------------------------------

TEST(Migrator, XenToXenMigrationMovesTheVm) {
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("mig", 2, 32ULL << 20);
  config.engine.mode = EngineMode::kRemus;  // secondary is Xen
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.simulation().run_for(sim::from_millis(200));
  const std::uint64_t tsc_before = vm.cpus()[0].tsc;

  common::ThreadPool pool(1);
  TimeModel model;
  SeedConfig seed_config;
  seed_config.mode = SeedMode::kXenDefault;
  Migrator migrator(bed.simulation(), model, pool, bed.primary(),
                    bed.secondary(), seed_config);
  bool done = false;
  MigrationResult result;
  migrator.migrate(vm, [&](const MigrationResult& r) {
    result = r;
    done = true;
  });
  bed.run_until([&] { return done; }, sim::from_seconds(3600));

  ASSERT_TRUE(done);
  // Exact modelled times, recorded before migration shared failover's state
  // staging and activation.
  EXPECT_EQ(result.total_time.count(), 411638422);
  EXPECT_EQ(result.downtime.count(), 366582422);
  EXPECT_FALSE(result.translated);
  EXPECT_TRUE(bed.primary().hypervisor().vms().empty());  // source retired
  hv::Vm* dest = migrator.destination_vm();
  ASSERT_NE(dest, nullptr);
  EXPECT_EQ(dest->state(), hv::VmState::kRunning);
  EXPECT_GE(dest->cpus()[0].tsc, tsc_before);
  EXPECT_GT(result.total_time.count(), 0);
  EXPECT_GT(result.downtime.count(), 0);
  EXPECT_LT(result.downtime, result.total_time);
}

TEST(Migrator, XenToKvmMigrationTranslatesState) {
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("mig", 2, 32ULL << 20);
  config.engine.mode = EngineMode::kHere;  // secondary is KVM
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.simulation().run_for(sim::from_millis(200));

  common::ThreadPool pool(2);
  TimeModel model;
  SeedConfig seed_config;
  seed_config.mode = SeedMode::kHereMultithreaded;
  Migrator migrator(bed.simulation(), model, pool, bed.primary(),
                    bed.secondary(), seed_config);
  bool done = false;
  MigrationResult result;
  migrator.migrate(vm, [&](const MigrationResult& r) {
    result = r;
    done = true;
  });
  bed.run_until([&] { return done; }, sim::from_seconds(3600));

  ASSERT_TRUE(done);
  EXPECT_EQ(result.total_time.count(), 450009936);
  EXPECT_EQ(result.downtime.count(), 4953936);
  EXPECT_TRUE(result.translated);
  hv::Vm* dest = migrator.destination_vm();
  ASSERT_NE(dest, nullptr);
  EXPECT_EQ(dest->state(), hv::VmState::kRunning);
  EXPECT_EQ(dest->net_device()->family(), hv::DeviceFamily::kVirtio);
  // CPUID was reconciled before capture: loadable and within KVM's policy.
  EXPECT_TRUE(dest->platform().cpuid.subset_of(
      bed.secondary().hypervisor().default_cpuid()));
}

// A guest that journals one sector per tick while dirtying memory.
class JournalingProgram final : public hv::GuestProgram {
 public:
  void start(hv::GuestEnv& env) override { inner_.start(env); }
  void tick(hv::GuestEnv& env, sim::Duration dt) override {
    inner_.tick(env, dt);
    env.disk_write(writes_, 1, 0xD15C0000 + writes_);
    ++writes_;
  }
  [[nodiscard]] std::unique_ptr<GuestProgram> clone() const override {
    return std::make_unique<JournalingProgram>(*this);
  }

  std::uint64_t writes_ = 0;

 private:
  wl::SyntheticProgram inner_{wl::memory_microbench(10)};
};

TEST(Migrator, CarriesDiskAndProgram) {
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("mig", 2, 32ULL << 20);
  config.engine.mode = EngineMode::kHere;  // secondary is KVM
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(std::make_unique<JournalingProgram>());
  bed.simulation().run_for(sim::from_millis(200));

  common::ThreadPool pool(2);
  TimeModel model;
  SeedConfig seed_config;
  seed_config.mode = SeedMode::kHereMultithreaded;
  Migrator migrator(bed.simulation(), model, pool, bed.primary(),
                    bed.secondary(), seed_config);
  bool done = false;
  migrator.migrate(vm, [&](const MigrationResult&) { done = true; });
  bed.run_until([&] { return done; }, sim::from_seconds(3600));
  ASSERT_TRUE(done);

  // Disk and program were captured at the same paused instant: the program
  // resumes with exactly the journal the disk holds.
  hv::Vm* dest = migrator.destination_vm();
  ASSERT_NE(dest, nullptr);
  auto* program = dynamic_cast<JournalingProgram*>(dest->program());
  ASSERT_NE(program, nullptr);
  ASSERT_GT(program->writes_, 0u);
  const hv::VirtualDisk& disk = bed.secondary().hypervisor().disk(*dest);
  EXPECT_EQ(disk.sectors_written(), program->writes_);
  EXPECT_EQ(disk.read_stamp(program->writes_ - 1),
            0xD15C0000 + program->writes_ - 1);

  // ...and keeps journaling on the destination.
  const std::uint64_t at_activation = program->writes_;
  bed.simulation().run_for(sim::from_millis(100));
  EXPECT_GT(program->writes_, at_activation);
  EXPECT_GT(disk.sectors_written(), at_activation);
}

}  // namespace
}  // namespace here::rep
