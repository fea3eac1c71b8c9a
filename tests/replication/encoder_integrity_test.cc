// The PR 3 corruption suite, re-run with the content-aware encoders on
// (ctest -L replication):
//   * a seeded bit-flip plan against the *encoded* stream is detected and
//     never committed; the failover digest invariant holds, and the same
//     seed replays byte-identically;
//   * selective retransmission resends the sealed *encoded* frames and
//     repairs a noisy wire without epoch aborts;
//   * total truncation exhausts the budget and falls back to
//     abort-and-retry; duplication and reordering are absorbed;
//   * background scrubbing still detects and repairs post-commit divergence
//     — the repair ships raw (the encoder invalidates the region's
//     references), so the replica never refuses a repair epoch;
//   * refuse-before-apply covers stale encoder bases: a delta or skip frame
//     whose base hash disagrees with the committed image is refused at
//     commit, image untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/encoder.h"
#include "replication/staging.h"
#include "replication/testbed.h"
#include "replication/wire.h"
#include "workload/synthetic.h"

namespace here::rep {
namespace {

using common::kPageSize;

TestbedConfig encoded_integrity_config() {
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("vm", 2, 32ULL << 20);
  config.engine.mode = EngineMode::kHere;
  config.engine.checkpoint_threads = 2;
  config.engine.period.t_max = sim::from_millis(200);
  config.engine.ft.checkpoint_timeout = sim::from_seconds(5);
  config.engine.encoders = EncoderConfig::all();
  return config;
}

// --- Seeded bit-flip plan against the encoded stream --------------------------

struct CorruptionArtifacts {
  std::string trace_jsonl;
  std::uint64_t regions_corrupted = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t commits_rejected = 0;
  std::uint64_t epochs_aborted = 0;
  EncodeStats encode;
  bool failed_over = false;
  std::uint64_t replica_digest = 0;
  std::uint64_t committed_digest = 0;
};

// Protect with every encoder on, arm a seeded bit-error plan on the
// interconnect, crash the primary mid-corruption. The encoded payloads are a
// fraction of the raw stream, so the per-bit rate is cranked well above the
// raw suite's to land a comparable number of frame corruptions.
CorruptionArtifacts run_encoded_corruption_chaos(std::uint64_t seed) {
  obs::RingBufferRecorder recorder(1u << 18);
  obs::Tracer tracer(&recorder);
  obs::MetricsRegistry metrics;

  TestbedConfig config = encoded_integrity_config();
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
  plan.link_bit_errors("ic", t0 + sim::from_millis(100), 1e-4,
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
  out.encode = stats.encode;
  out.failed_over = bed.engine().failed_over();
  out.replica_digest = stats.replica_digest_at_activation;
  out.committed_digest = stats.committed_digest_at_activation;
  EXPECT_EQ(recorder.overwritten(), 0u) << "ring too small for the scenario";
  return out;
}

TEST(EncodedStreamIntegrity, BitFlipsOnEncodedStreamDetectedNeverCommitted) {
  const CorruptionArtifacts run = run_encoded_corruption_chaos(42);
  // The stream really was encoded, and the CRCs caught the flips anyway.
  EXPECT_GT(run.encode.pages_in, 0u);
  EXPECT_LT(run.encode.bytes_out, run.encode.bytes_in);
  EXPECT_GT(run.regions_corrupted, 0u);
  EXPECT_GT(run.retransmits, 0u);
  // Primary died mid-corruption; the replica activated an image bit-for-bit
  // equal to the last committed (decoded) checkpoint.
  ASSERT_TRUE(run.failed_over);
  EXPECT_EQ(run.replica_digest, run.committed_digest);
}

TEST(EncodedStreamIntegrity, SameSeedEncodedCorruptionRunIsByteIdentical) {
  const CorruptionArtifacts a = run_encoded_corruption_chaos(7);
  const CorruptionArtifacts b = run_encoded_corruption_chaos(7);
  EXPECT_EQ(a.trace_jsonl, b.trace_jsonl);
  EXPECT_EQ(a.regions_corrupted, b.regions_corrupted);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.commits_rejected, b.commits_rejected);
  EXPECT_EQ(a.epochs_aborted, b.epochs_aborted);
  EXPECT_EQ(a.encode.bytes_out, b.encode.bytes_out);
  EXPECT_EQ(a.failed_over, b.failed_over);
  EXPECT_EQ(a.replica_digest, b.replica_digest);
}

// --- Selective retransmission resends the sealed encoded frames ---------------

TEST(EncodedStreamIntegrity, NoisyWireRepairedByRetransmitWithoutAborts) {
  TestbedConfig config = encoded_integrity_config();
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();
  const std::size_t seeded_checkpoints = bed.engine().stats().checkpoints.size();

  // The encoded payloads are small, so the per-bit rate sits higher than the
  // raw suite's to make frames actually fail CRC now and then. Every repair
  // is a resend of the already-sealed encoded frame; one round lands clean.
  bed.fabric().set_link_bit_error_rate(bed.primary().ic_node(),
                                       bed.secondary().ic_node(), 1e-4);
  bed.simulation().run_for(sim::from_seconds(8));
  bed.fabric().set_link_bit_error_rate(bed.primary().ic_node(),
                                       bed.secondary().ic_node(), 0.0);

  const EngineStats& stats = bed.engine().stats();
  EXPECT_GT(stats.encode.pages_in, 0u);
  EXPECT_LT(stats.encode.bytes_out, stats.encode.bytes_in);
  EXPECT_GT(stats.regions_corrupted, 0u);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_EQ(stats.epochs_aborted, 0u);
  EXPECT_EQ(stats.commits_rejected, 0u);
  EXPECT_GT(stats.checkpoints.size(), seeded_checkpoints);
  EXPECT_FALSE(bed.engine().failed_over());
}

// --- Truncation / duplication / reordering with encoders ----------------------

TEST(EncodedStreamIntegrity, TotalTruncationFallsBackToAbortAndRetry) {
  TestbedConfig config = encoded_integrity_config();
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();

  // Cut every encoded frame's tail off: no retransmission round can repair,
  // so epochs exhaust the budget and fall back to abort-and-retry — with the
  // encoder's staged references dropped alongside the staging buffers.
  bed.fabric().set_link_truncation(bed.primary().ic_node(),
                                   bed.secondary().ic_node(), 1.0);
  bed.simulation().run_for(sim::from_seconds(2));
  const EngineStats& mid = bed.engine().stats();
  EXPECT_GT(mid.epochs_aborted, 0u);
  const std::size_t checkpoints_during_outage = mid.checkpoints.size();

  // Heal the wire: checkpointing resumes, and the retried epochs (whose
  // reference updates were discarded on abort) still decode and commit —
  // nothing was promoted that the replica never committed.
  bed.fabric().set_link_truncation(bed.primary().ic_node(),
                                   bed.secondary().ic_node(), 0.0);
  bed.simulation().run_for(sim::from_seconds(3));

  const EngineStats& stats = bed.engine().stats();
  EXPECT_GT(stats.checkpoints.size(), checkpoints_during_outage);
  EXPECT_EQ(stats.commits_rejected, 0u);
  EXPECT_FALSE(bed.engine().failed_over());
  EXPECT_TRUE(bed.engine().service_available());
}

TEST(EncodedStreamIntegrity, DuplicationAndReorderingAbsorbedWithEncoders) {
  TestbedConfig config = encoded_integrity_config();
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
  bed.protect(vm);
  bed.run_until_seeded();
  const std::size_t seeded_checkpoints = bed.engine().stats().checkpoints.size();

  bed.fabric().set_link_duplication(bed.primary().ic_node(),
                                    bed.secondary().ic_node(), 0.3);
  bed.fabric().set_link_reordering(bed.primary().ic_node(),
                                   bed.secondary().ic_node(), 0.3);
  bed.simulation().run_for(sim::from_seconds(5));

  // Duplicates and late frames are absorbed by the staging map; nothing is
  // corrupt, nothing aborts, nothing is refused.
  const EngineStats& stats = bed.engine().stats();
  EXPECT_GT(stats.checkpoints.size(), seeded_checkpoints);
  EXPECT_EQ(stats.epochs_aborted, 0u);
  EXPECT_EQ(stats.commits_rejected, 0u);
  EXPECT_FALSE(bed.engine().failed_over());
}

// --- Scrub + encoders: the repair ships raw -----------------------------------

TEST(EncodedStreamIntegrity, ScrubRepairConvergesWithEncodersOn) {
  TestbedConfig config = encoded_integrity_config();
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
  const common::Gfn gfn = vm.memory().pages() - 1;

  // Post-commit bit rot in the replica image. With encoders on this is the
  // dangerous case: the primary's delta/skip references now describe content
  // the replica no longer holds. The scrubber must invalidate the region's
  // references so the repair ships raw — a delta against the rotten base
  // would be refused at every retry and the region would never converge.
  staging->memory().page_mut(gfn)[0] ^= 0xff;
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
  // The repair epoch was never refused: raw frames need no base.
  EXPECT_EQ(bed.engine().stats().commits_rejected, 0u);
  EXPECT_FALSE(bed.engine().failed_over());
}

// --- Refuse-before-apply covers stale encoder bases ---------------------------

std::vector<std::uint8_t> patterned_page(std::uint8_t fill) {
  std::vector<std::uint8_t> page(kPageSize, fill);
  page[17] = static_cast<std::uint8_t>(fill ^ 0x55);
  return page;
}

// A delta frame built against a base the replica never committed must be
// refused at commit — CRC-intact frames are not enough; the decode pass
// verifies the base hash against the committed image before anything lands.
TEST(EncodedStreamIntegrity, StaleDeltaBaseRefusedBeforeApply) {
  hv::VmSpec spec = hv::make_vm_spec("t", 1, 8ULL << 20);
  ReplicaStaging staging(spec, 1);
  const std::vector<std::uint8_t> committed = patterned_page(0xa1);
  staging.install_seed_page(5, committed);
  staging.begin_epoch(0);
  ASSERT_TRUE(staging.commit().ok());
  const std::uint64_t image_before = staging.memory().page_digest(5);

  // The attacker's (or rotten primary's) view of the base differs from what
  // the replica committed; the delta and its aux hash are self-consistent —
  // a sparse, perfectly well-formed delta against the wrong base.
  const std::vector<std::uint8_t> stale_base = patterned_page(0xb2);
  std::vector<std::uint8_t> target = stale_base;
  target[100] ^= 0x01;
  target[2000] ^= 0x80;
  const std::vector<std::uint8_t> delta = xor_rle_encode(target, stale_base);
  ASSERT_LT(delta.size(), kPageSize);

  wire::RegionFrame f;
  f.epoch = 1;
  f.seq = 0;
  f.region = 0;
  f.version = wire::kWireVersionEncoded;
  f.gfns = {5};
  f.pages = {{wire::PageEncoding::kDelta,
              static_cast<std::uint32_t>(delta.size()),
              hv::page_digest(stale_base)}};
  f.bytes = delta;
  wire::seal_frame(f);
  ASSERT_TRUE(wire::frame_intact(f));

  staging.begin_epoch(1);
  staging.expect_epoch({1, 1, wire::digest_fold(wire::digest_init(), f),
                        wire::kWireVersionEncoded});
  ASSERT_EQ(staging.receive_frame(f), FrameVerdict::kOk);

  const auto result = staging.commit();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), StatusCode::kDataLoss);
  // Refused *before* apply: the image is untouched.
  EXPECT_EQ(staging.memory().page_digest(5), image_before);
}

TEST(EncodedStreamIntegrity, StaleSkipBaseRefusedBeforeApply) {
  hv::VmSpec spec = hv::make_vm_spec("t", 1, 8ULL << 20);
  ReplicaStaging staging(spec, 1);
  const std::vector<std::uint8_t> committed = patterned_page(0xa1);
  staging.install_seed_page(5, committed);
  staging.begin_epoch(0);
  ASSERT_TRUE(staging.commit().ok());
  const std::uint64_t image_before = staging.memory().page_digest(5);

  // A skip frame claims "the replica already holds this content" with a
  // content hash that does not match the committed page.
  wire::RegionFrame f;
  f.epoch = 1;
  f.seq = 0;
  f.region = 0;
  f.version = wire::kWireVersionEncoded;
  f.gfns = {5};
  f.pages = {{wire::PageEncoding::kSkip, 0,
              hv::page_digest(patterned_page(0xd4))}};
  wire::seal_frame(f);
  ASSERT_TRUE(wire::frame_intact(f));

  staging.begin_epoch(1);
  staging.expect_epoch({1, 1, wire::digest_fold(wire::digest_init(), f),
                        wire::kWireVersionEncoded});
  ASSERT_EQ(staging.receive_frame(f), FrameVerdict::kOk);

  const auto result = staging.commit();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.code(), StatusCode::kDataLoss);
  EXPECT_EQ(staging.memory().page_digest(5), image_before);
}

}  // namespace
}  // namespace here::rep
