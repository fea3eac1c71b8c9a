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
//     commit, image untouched;
//   * the in-place commit verifies the whole epoch first: a malformed delta
//     or a stale base in any frame, the last one included, refuses the
//     epoch with the bytes, backed flags and digest cache unchanged, and
//     sharded on the migrator pool it is refused with the serial text; among
//     deltas for one gfn the highest seq lands; an empty delta leaves an
//     unbacked page unbacked; the digests cached as pages land keep rot
//     visible to the scrub.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fnv.h"
#include "common/status.h"
#include "common/units.h"
#include "common/xxh64.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/encoder.h"
#include "replication/migrator_pool.h"
#include "replication/staging.h"
#include "replication/testbed.h"
#include "replication/wire.h"
#include "sim/event_queue.h"
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
// refused at commit — CRC-intact frames are not enough; the verify phase
// checks the base hash against the committed image before anything lands.
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

// --- The in-place commit: verify the whole epoch, then apply --------------

// An 8 MiB replica (4 regions) whose committed image holds patterned pages
// 5 and 600 (regions 0 and 1); every other page is unbacked. `shards`
// attaches a migrator pool.
struct DeltaBed {
  ReplicaStaging staging{hv::make_vm_spec("t", 1, 8ULL << 20), 4};
  std::uint64_t next_epoch = 1;

  explicit DeltaBed(const PoolShards& shards = {}) {
    staging.attach_pool(shards);
    staging.install_seed_page(5, patterned_page(0xa1));
    staging.install_seed_page(600, patterned_page(0xc3));
    staging.begin_epoch(0);
    EXPECT_TRUE(staging.commit().ok());
  }

  // The committed page, for encoding deltas against.
  [[nodiscard]] std::vector<std::uint8_t> page(common::Gfn gfn) const {
    const auto p = staging.memory().page(gfn);
    return {p.begin(), p.end()};
  }

  // Offers `frames` (sealed here, seqs in order) as one v1 epoch and
  // commits it.
  Expected<std::uint64_t> commit(std::vector<wire::RegionFrame> frames) {
    const std::uint64_t epoch = next_epoch++;
    std::uint64_t digest = wire::digest_init();
    for (wire::RegionFrame& f : frames) {
      f.epoch = epoch;
      wire::seal_frame(f);
      digest = wire::digest_fold(digest, f);
    }
    staging.begin_epoch(epoch);
    staging.expect_epoch(
        {epoch, frames.size(), digest, wire::kWireVersionEncoded});
    for (const wire::RegionFrame& f : frames) {
      EXPECT_EQ(staging.receive_frame(f), FrameVerdict::kOk);
    }
    return staging.commit();
  }
};

// A v1 frame of one page (no seal, no epoch yet: DeltaBed::commit stamps
// both).
wire::RegionFrame one_page_frame(std::uint64_t seq, common::Gfn gfn,
                                 wire::PageEncoding enc, std::uint64_t aux,
                                 std::vector<std::uint8_t> payload = {}) {
  wire::RegionFrame f;
  f.seq = seq;
  f.region = static_cast<std::uint32_t>(gfn / common::kPagesPerRegion);
  f.version = wire::kWireVersionEncoded;
  f.gfns = {gfn};
  f.pages = {{enc, static_cast<std::uint32_t>(payload.size()), aux}};
  f.bytes = std::move(payload);
  return f;
}

// A well-formed delta turning committed page `gfn` into `target`.
wire::RegionFrame delta_frame(const DeltaBed& bed, std::uint64_t seq,
                              common::Gfn gfn,
                              const std::vector<std::uint8_t>& target) {
  const std::vector<std::uint8_t> base = bed.page(gfn);
  return one_page_frame(seq, gfn, wire::PageEncoding::kDelta,
                        hv::page_digest(base), xor_rle_encode(target, base));
}

std::vector<std::uint8_t> with_byte(std::vector<std::uint8_t> page,
                                    std::size_t offset, std::uint8_t value) {
  page[offset] = value;
  return page;
}

// Everything a refused epoch must leave as it was: the bytes and backed
// flags of the pages it names, and every region reference.
struct ImageProbe {
  std::vector<std::uint64_t> digests;
  std::vector<bool> backed;
  std::vector<std::uint64_t> references;
};

ImageProbe probe(const ReplicaStaging& staging,
                 const std::vector<common::Gfn>& gfns) {
  ImageProbe p;
  for (const common::Gfn g : gfns) {
    p.digests.push_back(staging.memory().page_digest(g));
    p.backed.push_back(staging.memory().backed(g));
  }
  for (std::uint32_t r = 0; r < staging.region_count(); ++r) {
    p.references.push_back(staging.committed_region_digest(r));
  }
  return p;
}

// Checks a refused epoch changed nothing. The digest cache is private, so
// it is probed through its effect: a later honest raw epoch that touches
// every region must fold references equal to the live bytes — an entry the
// refused epoch had overwritten would fold a digest of bytes never landed.
void expect_refused_untouched(DeltaBed& bed, const Expected<std::uint64_t>& r,
                              const ImageProbe& before,
                              const std::vector<common::Gfn>& gfns) {
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), StatusCode::kDataLoss);
  const ImageProbe after = probe(bed.staging, gfns);
  EXPECT_EQ(after.digests, before.digests);
  EXPECT_EQ(after.backed, before.backed);
  EXPECT_EQ(after.references, before.references);
  std::vector<wire::RegionFrame> honest;
  for (std::uint32_t r = 0; r < bed.staging.region_count(); ++r) {
    honest.push_back(
        one_page_frame(r, std::uint64_t{r} * common::kPagesPerRegion + 300,
                       wire::PageEncoding::kRaw, 0,
                       std::vector<std::uint8_t>(kPageSize, 0x3c)));
  }
  ASSERT_TRUE(bed.commit(std::move(honest)).ok());
  for (std::uint32_t r = 0; r < bed.staging.region_count(); ++r) {
    EXPECT_EQ(bed.staging.committed_region_digest(r),
              bed.staging.live_region_digest(r))
        << "region " << r;
  }
}

// The malformed epochs below, each refused whole.
enum class Malformed : std::uint8_t {
  // Honest deltas for a backed and an unbacked page come first; the last
  // frame's delta ends three bytes into a record header.
  kTruncatedHeaderInLastFrame,
  // The last frame's delta is a zero-run of 4000 then 200 literal bytes:
  // past the end of the page.
  kOverrunInLastFrame,
  // The middle frame's delta is well formed but against a base the replica
  // never committed.
  kStaleBaseInMiddleFrame,
  // Two bad frames in two regions: a stale base at seq 1 (region 1) and a
  // truncated delta at seq 2 (region 2). The epoch's refusal names seq 1.
  kTwoBadFramesInTwoRegions,
};

std::vector<common::Gfn> malformed_gfns(Malformed which) {
  if (which == Malformed::kStaleBaseInMiddleFrame) return {5, 7, 600, 1100};
  if (which == Malformed::kTwoBadFramesInTwoRegions) return {5, 600, 1100};
  return {5, 7, 600};
}

std::vector<wire::RegionFrame> malformed_frames(const DeltaBed& bed,
                                                Malformed which) {
  switch (which) {
    case Malformed::kTruncatedHeaderInLastFrame:
      return {delta_frame(bed, 0, 5, with_byte(bed.page(5), 9, 0x77)),
              delta_frame(bed, 1, 7, with_byte(bed.page(7), 9, 0x77)),
              one_page_frame(2, 600, wire::PageEncoding::kDelta,
                             hv::page_digest(bed.page(600)), {0x01, 0x00, 0x01})};
    case Malformed::kOverrunInLastFrame: {
      std::vector<std::uint8_t> overrun = {0xa0, 0x0f, 0xc8, 0x00};
      overrun.resize(4 + 200, 0xee);
      return {delta_frame(bed, 0, 5, with_byte(bed.page(5), 9, 0x77)),
              delta_frame(bed, 1, 7, with_byte(bed.page(7), 9, 0x77)),
              one_page_frame(2, 600, wire::PageEncoding::kDelta,
                             hv::page_digest(bed.page(600)), std::move(overrun))};
    }
    case Malformed::kStaleBaseInMiddleFrame: {
      const std::vector<std::uint8_t> stale = patterned_page(0xb2);
      return {delta_frame(bed, 0, 5, with_byte(bed.page(5), 9, 0x77)),
              one_page_frame(1, 600, wire::PageEncoding::kDelta,
                             hv::page_digest(stale),
                             xor_rle_encode(with_byte(stale, 40, 0x01), stale)),
              delta_frame(bed, 2, 1100, with_byte(bed.page(1100), 9, 0x77))};
    }
    case Malformed::kTwoBadFramesInTwoRegions: {
      const std::vector<std::uint8_t> stale = patterned_page(0xb2);
      return {delta_frame(bed, 0, 5, with_byte(bed.page(5), 9, 0x77)),
              one_page_frame(1, 600, wire::PageEncoding::kDelta,
                             hv::page_digest(stale),
                             xor_rle_encode(with_byte(stale, 40, 0x01), stale)),
              one_page_frame(2, 1100, wire::PageEncoding::kDelta,
                             hv::page_digest(bed.page(1100)), {0x01, 0x00, 0x01})};
    }
  }
  return {};
}

void expect_malformed_refused(Malformed which) {
  DeltaBed bed;
  const std::vector<common::Gfn> gfns = malformed_gfns(which);
  const ImageProbe before = probe(bed.staging, gfns);
  expect_refused_untouched(bed, bed.commit(malformed_frames(bed, which)), before,
                           gfns);
}

TEST(InPlaceCommit, TruncatedDeltaHeaderInLastFrameRefusesTheEpoch) {
  expect_malformed_refused(Malformed::kTruncatedHeaderInLastFrame);
}

TEST(InPlaceCommit, DeltaOverrunningThePageInLastFrameRefusesTheEpoch) {
  expect_malformed_refused(Malformed::kOverrunInLastFrame);
}

TEST(InPlaceCommit, StaleBaseInOneFrameOfSeveralRefusesTheEpoch) {
  expect_malformed_refused(Malformed::kStaleBaseInMiddleFrame);
}

TEST(InPlaceCommit, TwoBadFramesRefuseTheEpochAtTheLowerSeq) {
  DeltaBed bed;
  const Expected<std::uint64_t> refused = bed.commit(
      malformed_frames(bed, Malformed::kTwoBadFramesInTwoRegions));
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().message().find("frame seq 1 refused"),
            std::string::npos)
      << refused.status().message();
  expect_malformed_refused(Malformed::kTwoBadFramesInTwoRegions);
}

// Each malformed epoch again, padded past the sharding gate with a skip
// frame over every page of region 3 (after the case's frames) and committed
// on a migrator pool at P = 1, 2 and 4: the refusal's text is the serial
// one, the image is untouched, and the padded epochs did shard. With two
// bad frames the shards refuse at different seqs, and the lower one wins.
TEST(InPlaceCommit, ShardedRefusalTextMatchesTheSerialOne) {
  sim::Simulation sim;
  MigratorPool pool(sim, 4);
  const auto padded = [](const DeltaBed& bed, Malformed which) {
    std::vector<wire::RegionFrame> frames = malformed_frames(bed, which);
    wire::RegionFrame pad;
    pad.seq = frames.size();
    pad.region = 3;
    pad.version = wire::kWireVersionEncoded;
    for (common::Gfn g = 3 * common::kPagesPerRegion;
         g < 4 * common::kPagesPerRegion; ++g) {
      pad.gfns.push_back(g);
      pad.pages.push_back({wire::PageEncoding::kSkip, 0, hv::kZeroPageDigest});
    }
    frames.push_back(std::move(pad));
    return frames;
  };
  for (const Malformed which :
       {Malformed::kTruncatedHeaderInLastFrame, Malformed::kOverrunInLastFrame,
        Malformed::kStaleBaseInMiddleFrame,
        Malformed::kTwoBadFramesInTwoRegions}) {
    DeltaBed serial;
    const Expected<std::uint64_t> want = serial.commit(padded(serial, which));
    ASSERT_FALSE(want.ok());
    for (const std::uint32_t p : {1u, 2u, 4u}) {
      const MigratorPool::ClientId client = pool.register_client("replica", p);
      DeltaBed bed({&pool, client, p});
      const std::uint64_t baseline_shards =
          pool.client_stats(client).commit_shards_run;
      const std::vector<common::Gfn> gfns = malformed_gfns(which);
      const ImageProbe before = probe(bed.staging, gfns);
      const Expected<std::uint64_t> got = bed.commit(padded(bed, which));
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.status().to_string(), want.status().to_string())
          << "P " << p;
      if (p > 1) {
        EXPECT_GT(pool.client_stats(client).commit_shards_run, baseline_shards);
      }
      expect_refused_untouched(bed, got, before, gfns);
    }
  }
}

// Two encoded frames carry deltas for one gfn against the same committed
// base (a retransmit under a higher seq): the higher seq lands, and the
// lower one's delta is never applied on top of it.
TEST(InPlaceCommit, HighestSeqDeltaWinsForOneGfn) {
  DeltaBed bed;
  const std::vector<std::uint8_t> first = with_byte(bed.page(5), 100, 0x01);
  const std::vector<std::uint8_t> second = with_byte(bed.page(5), 200, 0x02);
  std::vector<wire::RegionFrame> frames = {delta_frame(bed, 0, 5, first),
                                           delta_frame(bed, 1, 5, second)};
  const auto applied = bed.commit(std::move(frames));
  ASSERT_TRUE(applied.ok()) << applied.status().to_string();
  EXPECT_EQ(*applied, 2u);
  EXPECT_EQ(bed.page(5), second);
  EXPECT_EQ(bed.staging.committed_region_digest(0),
            bed.staging.live_region_digest(0));
}

TEST(InPlaceCommit, EmptyDeltaLeavesAnUnbackedPageUnbacked) {
  DeltaBed bed;
  ASSERT_FALSE(bed.staging.memory().backed(7));
  std::vector<wire::RegionFrame> frames = {one_page_frame(
      0, 7, wire::PageEncoding::kDelta, hv::kZeroPageDigest)};
  ASSERT_TRUE(bed.commit(std::move(frames)).ok());
  EXPECT_FALSE(bed.staging.memory().backed(7));
  EXPECT_EQ(bed.staging.memory().page_digest(7), hv::kZeroPageDigest);
  EXPECT_EQ(bed.staging.committed_region_digest(0),
            bed.staging.live_region_digest(0));
}

// The region reference folds the digests cached as pages landed. Rot on a
// page the commit did not touch must stay visible after a delta lands on
// its neighbour.
TEST(InPlaceCommit, DeltaOnANeighbourDoesNotLaunderRot) {
  DeltaBed bed;
  ASSERT_TRUE(bed.commit({delta_frame(bed, 0, 600,
                                      with_byte(bed.page(600), 8, 0x42))})
                  .ok());
  bed.staging.memory().page_mut(600)[1000] ^= 0x10;  // rot after commit
  bed.staging.install_seed_page(601, patterned_page(0x99));
  ASSERT_TRUE(bed.commit({delta_frame(bed, 0, 601,
                                      with_byte(bed.page(601), 8, 0x43))})
                  .ok());
  EXPECT_NE(bed.staging.committed_region_digest(1),
            bed.staging.live_region_digest(1));
  bed.staging.memory().page_mut(600)[1000] ^= 0x10;  // undo the rot
  EXPECT_EQ(bed.staging.committed_region_digest(1),
            bed.staging.live_region_digest(1));
}

// A skip page is not rehashed at commit: its cached digest is the `aux`
// the verify phase matched against its bytes, which is XXH64 of them. The
// page is seed-installed first, so the commit is what fills its entry.
TEST(InPlaceCommit, SkipPageCachesTheXxh64OfItsBytes) {
  DeltaBed bed;
  bed.staging.install_seed_page(601, patterned_page(0x99));
  ASSERT_TRUE(bed.commit({one_page_frame(0, 601, wire::PageEncoding::kSkip,
                                         common::xxh64(bed.page(601)))})
                  .ok());
  std::uint64_t expected = common::kFnvStreamOffset;
  for (common::Gfn g = common::kPagesPerRegion;
       g < 2 * common::kPagesPerRegion; ++g) {
    expected = common::fnv1a_u64(
        expected, common::xxh64(bed.staging.memory().page(g)));
  }
  EXPECT_EQ(bed.staging.committed_region_digest(1), expected);
}

}  // namespace
}  // namespace here::rep
