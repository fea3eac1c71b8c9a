// End-to-end checkpoint stream integrity (ctest -L replication):
//   * a seeded bit-flip plan is detected on arrival and corrupted data is
//     never committed — the failover digest invariant holds under corruption;
//   * selective retransmission repairs corrupt regions without aborting the
//     whole epoch;
//   * an exhausted retransmit budget falls back to PR 2's abort-and-retry,
//     with output commit preserved across the aborts;
//   * background scrubbing detects and repairs post-commit divergence, even
//     when a later epoch re-referenced the rotted region first, and keeps
//     auditing after a fenced failover;
//   * the whole corruption pipeline is byte-identical across same-seed runs;
//   * an epoch aborted mid-pause (exhausted budget, checkpoint timeout) ends
//     at the guest's resume: the retry never captures a guest the aborted
//     epoch still holds, and a drain or destruction in between leaves no
//     engine event behind;
//   * a destroyed engine leaves no host handler, service receiver or device
//     hook behind.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "kvmsim/kvm_hypervisor.h"
#include "replication/testbed.h"
#include "workload/synthetic.h"
#include "xensim/xen_hypervisor.h"

namespace here::rep {
namespace {

TestbedConfig integrity_config() {
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("vm", 2, 32ULL << 20);
  config.engine.mode = EngineMode::kHere;
  config.engine.checkpoint_threads = 2;
  config.engine.period.t_max = sim::from_millis(200);
  config.engine.ft.checkpoint_timeout = sim::from_seconds(5);
  return config;
}

// Guest program emitting a gapless packet sequence — the probe for the
// output-commit invariant (buffered output only ever reaches clients after
// the epoch that produced it commits).
// With `emitted`, packet n's emission instant lands in (*emitted)[n].
class SequencedEmitter final : public hv::GuestProgram {
 public:
  static constexpr std::uint32_t kKind = 0x5e0;
  explicit SequencedEmitter(
      net::NodeId client, double load_percent = 10,
      std::shared_ptr<std::vector<sim::TimePoint>> emitted = nullptr)
      : inner_(wl::memory_microbench(load_percent)),
        client_(client),
        emitted_(std::move(emitted)) {}

  void start(hv::GuestEnv& env) override { inner_.start(env); }
  void tick(hv::GuestEnv& env, sim::Duration dt) override {
    inner_.tick(env, dt);
    if (emitted_ != nullptr) emitted_->push_back(env.now());
    env.send_packet(client_, 64, kKind, next_seq_++);
  }
  [[nodiscard]] std::unique_ptr<GuestProgram> clone() const override {
    return std::make_unique<SequencedEmitter>(*this);
  }

 private:
  wl::SyntheticProgram inner_;
  net::NodeId client_;
  std::shared_ptr<std::vector<sim::TimePoint>> emitted_;
  std::uint64_t next_seq_ = 0;
};

// --- Seeded bit-flip plan: detected, never committed, replayable -------------

struct CorruptionArtifacts {
  std::string trace_jsonl;
  std::uint64_t regions_corrupted = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t commits_rejected = 0;
  std::uint64_t epochs_aborted = 0;
  bool failed_over = false;
  std::uint64_t replica_digest = 0;
  std::uint64_t committed_digest = 0;
};

// Protect, arm a seeded data-corruption plan on the interconnect, crash the
// primary while the wire is still flipping bits, and capture everything the
// run produced.
CorruptionArtifacts run_corruption_chaos(std::uint64_t seed) {
  obs::RingBufferRecorder recorder(1u << 18);
  obs::Tracer tracer(&recorder);
  obs::MetricsRegistry metrics;

  TestbedConfig config = integrity_config();
  config.seed = seed;
  config.engine.tracer = &tracer;
  config.engine.metrics = &metrics;
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();

  const sim::TimePoint t0 = bed.simulation().now();
  faults::FaultPlan plan;
  plan.link_bit_errors("ic", t0 + sim::from_millis(100), 1e-6,
                       sim::from_seconds(3));
  plan.crash_host("host-a", t0 + sim::from_millis(2500));

  faults::FaultInjector injector(bed.simulation(), bed.fabric(), &tracer,
                                 &metrics);
  injector.register_testbed(bed);
  injector.arm(plan);
  bed.simulation().run_for(sim::from_seconds(6));

  CorruptionArtifacts out;
  out.trace_jsonl = obs::to_jsonl(recorder.snapshot());
  const EngineStats& stats = bed.engine().stats();
  out.regions_corrupted = stats.regions_corrupted;
  out.retransmits = stats.retransmits;
  out.commits_rejected = stats.commits_rejected;
  out.epochs_aborted = stats.epochs_aborted;
  out.failed_over = bed.engine().failed_over();
  out.replica_digest = stats.replica_digest_at_activation;
  out.committed_digest = stats.committed_digest_at_activation;
  EXPECT_EQ(recorder.overwritten(), 0u) << "ring too small for the scenario";
  return out;
}

TEST(StreamIntegrity, BitFlipPlanDetectedAndNeverCommitted) {
  const CorruptionArtifacts run = run_corruption_chaos(42);
  // The wire flipped bits and the CRCs caught them.
  EXPECT_GT(run.regions_corrupted, 0u);
  EXPECT_GT(run.retransmits, 0u);
  // The primary died mid-corruption; the replica activated the last epoch
  // that *passed verification* — bit-for-bit equal to the committed image.
  ASSERT_TRUE(run.failed_over);
  EXPECT_EQ(run.replica_digest, run.committed_digest);
}

TEST(StreamIntegrity, SameSeedCorruptionRunIsByteIdentical) {
  const CorruptionArtifacts a = run_corruption_chaos(7);
  const CorruptionArtifacts b = run_corruption_chaos(7);
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_EQ(a.regions_corrupted, b.regions_corrupted);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.commits_rejected, b.commits_rejected);
  EXPECT_EQ(a.epochs_aborted, b.epochs_aborted);
  EXPECT_EQ(a.failed_over, b.failed_over);
  EXPECT_EQ(a.replica_digest, b.replica_digest);
}

// --- Selective retransmission: repair without epoch abort ---------------------

TEST(StreamIntegrity, SelectiveRetransmitRepairsWithoutEpochAbort) {
  TestbedConfig config = integrity_config();
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();
  const std::size_t seeded_checkpoints = bed.engine().stats().checkpoints.size();

  // A mildly noisy wire: occasional frames fail CRC, but a retransmission
  // round nearly always lands clean — no epoch should need a full abort.
  bed.fabric().set_link_bit_error_rate(bed.primary().ic_node(),
                                       bed.secondary().ic_node(), 1e-7);
  bed.simulation().run_for(sim::from_seconds(8));
  bed.fabric().set_link_bit_error_rate(bed.primary().ic_node(),
                                       bed.secondary().ic_node(), 0.0);

  const EngineStats& stats = bed.engine().stats();
  EXPECT_GT(stats.regions_corrupted, 0u);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_EQ(stats.epochs_aborted, 0u);
  EXPECT_EQ(stats.commits_rejected, 0u);
  EXPECT_GT(stats.checkpoints.size(), seeded_checkpoints);
  EXPECT_FALSE(bed.engine().failed_over());
}

// --- Exhausted budget: fall back to abort-and-retry, output commit holds ------

TEST(StreamIntegrity, ExhaustedRetransmitBudgetFallsBackToAbortAndRetry) {
  TestbedConfig config = integrity_config();
  Testbed bed(config);

  std::vector<std::uint64_t> seen;
  hv::Vm& vm = bed.create_vm(nullptr);
  bed.protect(vm);
  const net::NodeId client =
      bed.add_client("client", [&](const net::Packet& p) {
        if (p.kind == SequencedEmitter::kKind) seen.push_back(p.tag);
      });
  vm.attach_program(std::make_unique<SequencedEmitter>(client));
  bed.run_until_seeded();

  // Cut every frame's tail off: no retransmission round can ever repair, so
  // each epoch exhausts the budget and falls back to abort-and-retry.
  bed.fabric().set_link_truncation(bed.primary().ic_node(),
                                   bed.secondary().ic_node(), 1.0);
  bed.simulation().run_for(sim::from_seconds(2));
  const EngineStats& mid = bed.engine().stats();
  EXPECT_GT(mid.epochs_aborted, 0u);
  const std::size_t checkpoints_during_outage = mid.checkpoints.size();

  // Heal the wire: checkpointing resumes where it left off.
  bed.fabric().set_link_truncation(bed.primary().ic_node(),
                                   bed.secondary().ic_node(), 0.0);
  bed.simulation().run_for(sim::from_seconds(3));

  const EngineStats& stats = bed.engine().stats();
  EXPECT_GT(stats.checkpoints.size(), checkpoints_during_outage);
  EXPECT_FALSE(bed.engine().failed_over());
  EXPECT_TRUE(bed.engine().service_available());
  // Aborts happen before commit is even attempted; the replica never had to
  // refuse one.
  EXPECT_EQ(stats.commits_rejected, 0u);

  // Output commit held across every abort: the client-visible sequence is a
  // gapless prefix (no failover happened, so not even a re-emission point).
  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 1; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], seen[i - 1] + 1) << "gap at index " << i;
  }
}

// --- Background scrubbing: post-commit divergence repaired --------------------

// Rots one byte of the last replica page after commit (bit rot the primary
// never sees; only the scrubber's reference digests can catch it) and checks
// that the scrub detects the divergence and the region re-send repairs it.
void expect_scrub_repairs_rot_at(std::size_t byte, std::uint8_t mask) {
  TestbedConfig config = integrity_config();
  config.engine.ft.scrub_interval = sim::from_millis(250);
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(1));

  ReplicaStaging* staging = bed.engine().staging();
  ASSERT_NE(staging, nullptr);
  const std::uint32_t region = staging->region_count() - 1;
  const common::Gfn gfn = vm.memory().pages() - 1;  // last page of last region
  ASSERT_EQ(staging->committed_region_digest(region),
            staging->live_region_digest(region));

  staging->memory().page_mut(gfn)[byte] ^= mask;
  ASSERT_NE(staging->committed_region_digest(region),
            staging->live_region_digest(region));

  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().stats().scrub_repairs > 0; },
      sim::from_seconds(5)));
  EXPECT_GT(bed.engine().stats().scrub_runs, 0u);

  // The repair is a full re-send of the diverged region: within a couple of
  // epochs the live image converges back onto the committed reference.
  EXPECT_TRUE(bed.run_until(
      [&] {
        return staging->committed_region_digest(region) ==
               staging->live_region_digest(region);
      },
      sim::from_seconds(5)));
  EXPECT_FALSE(bed.engine().failed_over());
}

TEST(StreamIntegrity, ScrubDetectsAndRepairsPostCommitDivergence) {
  expect_scrub_repairs_rot_at(0, 0xff);
}

// The audit hashes every byte of the page, through to the last one.
TEST(StreamIntegrity, ScrubRepairsRotInLastByteOfPage) {
  expect_scrub_repairs_rot_at(common::kPageSize - 1, 0x80);
}

// Rot on a replica page nothing ever wrote: the page is unbacked, so the
// digests answer it from GuestMemory's backed flag without reading it. The
// rot goes through page_mut, which backs the page, so the audit reads the
// rotted bytes and the region re-send zeroes them again.
TEST(StreamIntegrity, ScrubRepairsRotOnANeverWrittenPage) {
  TestbedConfig config = integrity_config();
  config.engine.ft.scrub_interval = sim::from_millis(250);
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(1));

  ReplicaStaging* staging = bed.engine().staging();
  ASSERT_NE(staging, nullptr);
  common::Gfn gfn = vm.memory().pages() - 1;
  while (gfn > 0 && staging->memory().backed(gfn)) --gfn;
  ASSERT_FALSE(staging->memory().backed(gfn));
  const std::uint32_t region =
      static_cast<std::uint32_t>(gfn / common::kPagesPerRegion);
  ASSERT_EQ(staging->committed_region_digest(region),
            staging->live_region_digest(region));

  staging->memory().page_mut(gfn)[common::kPageSize / 2] ^= 0x01;
  ASSERT_NE(staging->committed_region_digest(region),
            staging->live_region_digest(region));

  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().stats().scrub_repairs > 0; },
      sim::from_seconds(5)));
  EXPECT_TRUE(bed.run_until(
      [&] {
        return staging->committed_region_digest(region) ==
               staging->live_region_digest(region);
      },
      sim::from_seconds(5)));
  EXPECT_EQ(staging->memory().page_digest(gfn),
            vm.memory().page_digest(gfn));
  EXPECT_FALSE(bed.engine().failed_over());
}

// The scrub loop parks while a failover is in progress; a fenced failover
// re-enters the continuous phase, scrubbing included.
TEST(StreamIntegrity, ScrubResumesAfterFencedFailover) {
  TestbedConfig config = integrity_config();
  config.engine.ft.scrub_interval = sim::from_millis(250);
  config.engine.ft.fencing_window = sim::from_seconds(2);
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(1));

  // Heartbeat loss healed inside the fencing window: the failover is fenced.
  const net::NodeId ic_a = bed.primary().ic_node();
  const net::NodeId ic_b = bed.secondary().ic_node();
  bed.fabric().set_link_down(ic_a, ic_b, true);
  bed.simulation().run_for(sim::from_millis(600));
  bed.fabric().set_link_down(ic_a, ic_b, false);
  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().stats().failovers_fenced == 1; },
      sim::from_seconds(3)));

  const std::uint64_t runs_at_fence = bed.engine().stats().scrub_runs;
  bed.simulation().run_for(sim::from_seconds(2));
  EXPECT_GE(bed.engine().stats().scrub_runs, runs_at_fence + 7);

  // Rot after the fence is still found and repaired.
  ReplicaStaging* staging = bed.engine().staging();
  const std::uint32_t region = staging->region_count() - 1;
  staging->memory().page_mut(vm.memory().pages() - 1)[0] ^= 0xff;
  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().stats().scrub_repairs > 0; },
      sim::from_seconds(5)));
  EXPECT_TRUE(bed.run_until(
      [&] {
        return staging->committed_region_digest(region) ==
               staging->live_region_digest(region);
      },
      sim::from_seconds(5)));
  EXPECT_FALSE(bed.engine().failed_over());
}

TEST(StreamIntegrity, ScrubRepairsRotInRegionALaterEpochTouched) {
  TestbedConfig config = integrity_config();
  config.engine.ft.scrub_interval = sim::from_seconds(3);
  Testbed bed(config);
  // A hot 10 % writer: its working set is gfns 409-1186 of 8192, so region 2
  // (gfns 1024-1535) is rewritten every epoch but its last page never is.
  hv::Vm& vm = bed.create_vm(std::make_unique<wl::SyntheticProgram>(
      wl::memory_microbench(10, /*rewrite_seconds=*/1.0)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_millis(500));

  ReplicaStaging* staging = bed.engine().staging();
  ASSERT_NE(staging, nullptr);
  constexpr std::uint32_t kRegion = 2;
  const common::Gfn first = common::Gfn{kRegion} * common::kPagesPerRegion;
  const common::Gfn rotted = first + common::kPagesPerRegion - 1;
  const auto other_pages = [&] {
    std::vector<std::uint64_t> digests;
    for (common::Gfn g = first; g < rotted; ++g) {
      digests.push_back(staging->memory().page_digest(g));
    }
    return digests;
  };
  ASSERT_EQ(staging->committed_region_digest(kRegion),
            staging->live_region_digest(kRegion));
  const std::vector<std::uint64_t> before = other_pages();
  const std::uint64_t scrubs_before = bed.engine().stats().scrub_runs;
  const std::uint64_t epoch = staging->committed_epoch();

  staging->memory().page_mut(rotted)[0] ^= 0xff;
  ASSERT_TRUE(bed.run_until(
      [&] { return staging->committed_epoch() >= epoch + 2; },
      sim::from_seconds(2)));
  // Later epochs committed other pages of the region before any scrub ran...
  ASSERT_NE(other_pages(), before);
  ASSERT_EQ(bed.engine().stats().scrub_runs, scrubs_before);
  // ...and re-referenced it without absorbing the rot.
  EXPECT_NE(staging->committed_region_digest(kRegion),
            staging->live_region_digest(kRegion));

  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().stats().scrub_repairs > 0; },
      sim::from_seconds(5)));
  EXPECT_TRUE(bed.run_until(
      [&] {
        return staging->committed_region_digest(kRegion) ==
               staging->live_region_digest(kRegion);
      },
      sim::from_seconds(5)));
  EXPECT_EQ(staging->memory().page_digest(rotted),
            vm.memory().page_digest(rotted));
  EXPECT_FALSE(bed.engine().failed_over());
}

// --- Aborted mid-pause: the retry starts after the guest resumed -------------

// One 8 GiB VM (128 MiB real) under the 30 % memory microbenchmark at fixed
// T = 1 s with four migrator threads: its epochs pause ~150 ms, longer than
// the first retry backoff.
TestbedConfig memload_config() {
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("memload", 4, 8ULL << 30, 64);
  config.engine.checkpoint_threads = 4;
  config.engine.period.t_max = sim::from_seconds(1);
  return config;
}

// The guest's side of a run: when it emitted each sequenced packet, and when
// the client received which one.
struct GuestLog {
  std::shared_ptr<std::vector<sim::TimePoint>> emitted =
      std::make_shared<std::vector<sim::TimePoint>>();
  std::vector<std::pair<std::uint64_t, sim::TimePoint>> arrived;
};

// Protects a VM running a SequencedEmitter whose packets reach a client.
void protect_emitter(Testbed& bed, GuestLog& log, double load_percent) {
  hv::Vm& vm = bed.create_vm(nullptr);
  bed.protect(vm);
  const net::NodeId client =
      bed.add_client("client", [&bed, &log](const net::Packet& p) {
        if (p.kind == SequencedEmitter::kKind) {
          log.arrived.emplace_back(p.tag, bed.simulation().now());
        }
      });
  vm.attach_program(
      std::make_unique<SequencedEmitter>(client, load_percent, log.emitted));
  bed.run_until_seeded();
}

// Output commit and Algorithm 1's input rest on one rule: a committed epoch
// holds the guest paused from its capture to its resume. So no guest slice
// ends inside a committed pause, and every packet a commit released was
// emitted before that epoch's capture.
void expect_commits_held_the_guest(const EngineStats& stats,
                                   const GuestLog& log) {
  ASSERT_FALSE(stats.checkpoints.empty());
  const auto resumed = [](const CheckpointRecord& r) {
    return r.completed_at.ns() - r.ledger.background().count();
  };
  const auto captured = [&](const CheckpointRecord& r) {
    return resumed(r) - r.pause.count();
  };
  for (const CheckpointRecord& r : stats.checkpoints) {
    for (const sim::TimePoint t : *log.emitted) {
      EXPECT_FALSE(captured(r) < t.ns() && t.ns() < resumed(r))
          << "guest ran at " << t.ns() << " ns inside epoch " << r.epoch
          << "'s pause [" << captured(r) << ", " << resumed(r) << ")";
    }
  }
  ASSERT_FALSE(log.arrived.empty());
  for (const auto& [seq, at] : log.arrived) {
    // The releasing commit is the last one at or before the arrival.
    const CheckpointRecord* release = nullptr;
    for (const CheckpointRecord& r : stats.checkpoints) {
      if (r.completed_at <= at) release = &r;
    }
    ASSERT_NE(release, nullptr) << "packet " << seq << " left uncommitted";
    ASSERT_LT(seq, log.emitted->size());
    EXPECT_LE((*log.emitted)[seq].ns(), captured(*release))
        << "packet " << seq << " released by epoch " << release->epoch
        << " was emitted after that epoch's capture";
  }
}

void set_truncation(Testbed& bed, double fraction) {
  bed.fabric().set_link_truncation(bed.primary().ic_node(),
                                   bed.secondary().ic_node(), fraction);
}

TEST(AbortRetry, ExhaustedBudgetRetryStartsAfterTheResume) {
  Testbed bed(memload_config());
  GuestLog log;
  protect_emitter(bed, log, 30);
  bed.simulation().run_for(sim::from_seconds(3));

  // Truncate every frame until the first abort, then heal: the epoch pauses
  // ~150 ms before it gives up, the retry then commits.
  set_truncation(bed, 1.0);
  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().stats().epochs_aborted > 0; },
      sim::from_seconds(5), sim::from_millis(1)));
  set_truncation(bed, 0.0);
  const std::size_t before = bed.engine().stats().checkpoints.size();
  bed.simulation().run_for(sim::from_seconds(3));

  const EngineStats& stats = bed.engine().stats();
  EXPECT_EQ(stats.epochs_aborted, 1u);
  EXPECT_GT(stats.checkpoints.size(), before);
  expect_commits_held_the_guest(stats, log);
}

TEST(AbortRetry, TimeoutRetryStartsAfterTheResume) {
  // 64 GiB modelled (64 MiB real) scanned by one thread: 16.8 M pages at
  // 8 ns put ~134 ms of the pause before any byte moves, longer than the
  // 100 ms backoff — a timed-out epoch resumes the guest only then.
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("big", 2, 64ULL << 30, 1024);
  config.engine.checkpoint_threads = 1;
  config.engine.period.t_max = sim::from_seconds(1);
  config.engine.ft.checkpoint_timeout = sim::from_seconds(2);
  Testbed bed(config);
  GuestLog log;
  protect_emitter(bed, log, 1);
  bed.simulation().run_for(sim::from_seconds(3));
  ASSERT_EQ(bed.engine().stats().epochs_aborted, 0u);

  // A wedged copy thread projects the next epoch past its deadline.
  bed.engine().inject_migrator_stall(sim::from_seconds(5));
  ASSERT_TRUE(bed.run_until(
      [&] { return bed.engine().stats().epochs_aborted > 0; },
      sim::from_seconds(5), sim::from_millis(1)));
  const std::size_t before = bed.engine().stats().checkpoints.size();
  bed.simulation().run_for(sim::from_seconds(3));

  const EngineStats& stats = bed.engine().stats();
  EXPECT_EQ(stats.epochs_aborted, 1u);
  EXPECT_GT(stats.checkpoints.size(), before);
  expect_commits_held_the_guest(stats, log);
}

// A drain that lands while an aborted epoch still holds the guest retires
// that epoch too: a successor's hold on the guest is never undone by it.
TEST(AbortRetry, DrainBetweenAbortAndResumeLeavesNoEngineEvent) {
  Testbed bed(memload_config());
  GuestLog log;
  protect_emitter(bed, log, 30);
  bed.simulation().run_for(sim::from_seconds(3));
  hv::Vm& vm = *bed.engine().primary_vm();

  // The capture after the cut exhausts its budget; its guest resumes only
  // ~150 ms later. Drain past the first backoff, inside that window.
  set_truncation(bed, 1.0);
  ASSERT_TRUE(bed.run_until([&] { return vm.state() == hv::VmState::kPaused; },
                            sim::from_seconds(5), sim::from_millis(1)));
  bed.simulation().run_for(sim::from_millis(120));
  ASSERT_EQ(vm.state(), hv::VmState::kPaused);
  bed.engine().drain("re-place");
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);

  // A successor holds the guest for its own capture; nothing of the drained
  // generation is left to fire.
  bed.primary().hypervisor().pause(vm);
  bed.simulation().run_for(sim::from_millis(1));
  EXPECT_EQ(bed.simulation().pending_count(), 0u);
  bed.simulation().run_for(sim::from_seconds(1));
  EXPECT_EQ(vm.state(), hv::VmState::kPaused);
}

// Same window, engine destroyed: no event may call back into freed memory
// (run under ASan to see the difference).
TEST(AbortRetry, DestructionBetweenAbortAndResumeLeavesNoEngineEvent) {
  sim::Simulation sim;
  net::Fabric fabric(sim);
  sim::Rng root(42);
  hv::Host primary("host-a", fabric,
                   std::make_unique<xen::XenHypervisor>(sim, root.fork()));
  hv::Host secondary("host-b", fabric,
                     std::make_unique<kvm::KvmHypervisor>(sim, root.fork()));
  fabric.connect(primary.ic_node(), secondary.ic_node(),
                 sim::grid5000_host().interconnect);
  auto engine = std::make_unique<ReplicationEngine>(
      sim, fabric, primary, secondary, memload_config().engine);
  hv::Vm& vm = primary.hypervisor().create_vm(memload_config().vm_spec);
  vm.attach_program(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(30)));
  primary.hypervisor().start(vm);
  ASSERT_TRUE(engine->start_protection(vm).ok());
  while (!engine->seeded()) sim.run_for(sim::from_millis(50));
  sim.run_for(sim::from_seconds(3));

  fabric.set_link_truncation(primary.ic_node(), secondary.ic_node(), 1.0);
  while (vm.state() != hv::VmState::kPaused) sim.run_for(sim::from_millis(1));
  sim.run_for(sim::from_millis(120));
  ASSERT_EQ(vm.state(), hv::VmState::kPaused);
  engine.reset();

  sim.run_for(sim::from_millis(1));
  EXPECT_EQ(sim.pending_count(), 0u);
  sim.run_for(sim::from_seconds(1));
  EXPECT_EQ(vm.state(), hv::VmState::kPaused);

  // The destroyed engine took its callbacks with it, so the guest may run.
  primary.hypervisor().resume(vm);
  sim.run_for(sim::from_seconds(1));
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
}

// Guest that transmits to `client` and writes its disk every tick, so both
// device hooks an engine installs keep firing.
class ChattyGuest final : public hv::GuestProgram {
 public:
  explicit ChattyGuest(net::NodeId client) : client_(client) {}
  void start(hv::GuestEnv& env) override { inner_.start(env); }
  void tick(hv::GuestEnv& env, sim::Duration dt) override {
    inner_.tick(env, dt);
    env.send_packet(client_, 64, 0x5e1, ticks_);
    env.disk_write(ticks_ % 4096, 4, 0xC0FFEE00 + ticks_);
    ++ticks_;
  }
  [[nodiscard]] std::unique_ptr<GuestProgram> clone() const override {
    return std::make_unique<ChattyGuest>(*this);
  }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  wl::SyntheticProgram inner_{wl::memory_microbench(10)};
  net::NodeId client_;
  std::uint64_t ticks_ = 0;
};

// A destroyed engine leaves no callback behind: afterwards its guest keeps
// transmitting and writing its disk, a client keeps addressing its service
// node, and a neighbour engine on the same host pair keeps both hosts
// heartbeating and probing for 1 s. Under ASan, an engine that left its
// host handlers or device hooks registered is a heap-use-after-free here.
TEST(EngineLifetime, DestroyedEngineLeavesNoCallbackBehind) {
  sim::Simulation sim;
  net::Fabric fabric(sim);
  sim::Rng root(42);
  hv::Host primary("host-a", fabric,
                   std::make_unique<xen::XenHypervisor>(sim, root.fork()));
  hv::Host secondary("host-b", fabric,
                     std::make_unique<kvm::KvmHypervisor>(sim, root.fork()));
  const sim::HostProfile hardware = sim::grid5000_host();
  fabric.connect(primary.ic_node(), secondary.ic_node(), hardware.interconnect);
  fabric.connect(primary.eth_node(), secondary.eth_node(), hardware.ethernet);
  const ReplicationConfig config = integrity_config().engine;
  const net::NodeId client = fabric.add_node("client", {});

  auto protect = [&](ReplicationEngine& engine, const char* name) -> hv::Vm& {
    hv::Vm& vm = primary.hypervisor().create_vm(
        hv::make_vm_spec(name, 2, 32ULL << 20));
    vm.attach_program(std::make_unique<ChattyGuest>(client));
    primary.hypervisor().start(vm);
    EXPECT_TRUE(engine.start_protection(vm).ok());
    fabric.connect(engine.service_node(), client, hardware.ethernet);
    return vm;
  };
  auto doomed = std::make_unique<ReplicationEngine>(sim, fabric, primary,
                                                    secondary, config);
  ReplicationEngine neighbour(sim, fabric, primary, secondary, config);
  hv::Vm& vm = protect(*doomed, "doomed");
  protect(neighbour, "neighbour");
  while (!doomed->seeded() || !neighbour.seeded()) {
    sim.run_for(sim::from_millis(50));
  }
  sim.run_for(sim::from_seconds(1));
  const std::uint64_t beats = neighbour.stats().heartbeats_sent;
  const net::NodeId service = doomed->service_node();
  if (vm.state() == hv::VmState::kPaused) primary.hypervisor().resume(vm);
  doomed.reset();

  const auto& guest = static_cast<const ChattyGuest&>(*vm.program());
  const std::uint64_t ticks = guest.ticks();
  const std::uint64_t written = primary.hypervisor().disk(vm).sectors_written();
  for (int i = 0; i < 10; ++i) {
    fabric.send({.src = client, .dst = service, .size_bytes = 64});
    sim.run_for(sim::from_millis(100));
  }
  EXPECT_EQ(vm.state(), hv::VmState::kRunning);
  EXPECT_GT(guest.ticks(), ticks);
  EXPECT_GT(neighbour.stats().heartbeats_sent, beats);
  // Unprotected again, the guest's writes land on its local disk.
  EXPECT_GT(primary.hypervisor().disk(vm).sectors_written(), written);
  EXPECT_TRUE(neighbour.seeded());
}

}  // namespace
}  // namespace here::rep
