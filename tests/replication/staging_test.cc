// ReplicaStaging edge cases on the verified frame path: last-writer-wins
// across out-of-order seqs, abort leaving no residue, duplicate/corrupt
// frames and NACK bookkeeping, frames that do not fit their region or the
// VM, commit refusal on missing frames, digest mismatch or an unarmed
// header, and per-region digest references for the scrubber, which
// post-commit rot must never enter; the scrub's audit digest of a region
// with no backed page, answered from the flags, equals the digest of its
// bytes; a seeded replica backs only the pages its guest wrote. Region
// references refold from the first changed page and equal the full fold of
// the per-page digests each commit installed; a commit sharded on the
// migrator pool leaves the same image, backed flags and references as the
// serial one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/fnv.h"
#include "common/status.h"
#include "common/units.h"
#include "hv/hypervisor.h"
#include "replication/encoder.h"
#include "replication/migrator_pool.h"
#include "replication/seeder.h"
#include "replication/staging.h"
#include "replication/testbed.h"
#include "replication/wire.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "tests/resident_memory.h"

namespace here::rep {
namespace {

// 8 MiB VM: 2048 pages, 4 regions of 512 pages each.
hv::VmSpec small_spec() { return hv::make_vm_spec("t", 1, 8ULL << 20); }

std::vector<std::uint8_t> filled_page(std::uint8_t value) {
  return std::vector<std::uint8_t>(common::kPageSize, value);
}

// A sealed frame carrying `gfns` (all in one region), each page filled with
// `value`.
wire::RegionFrame make_frame(std::uint64_t epoch, std::uint64_t seq,
                             std::vector<common::Gfn> gfns,
                             std::uint8_t value) {
  wire::RegionFrame frame;
  frame.epoch = epoch;
  frame.seq = seq;
  frame.region =
      static_cast<std::uint32_t>(gfns.front() / common::kPagesPerRegion);
  frame.gfns = std::move(gfns);
  frame.bytes.assign(frame.gfns.size() * common::kPageSize, value);
  wire::seal_frame(frame);
  return frame;
}

wire::EpochHeader header_for(std::uint64_t epoch,
                             const std::vector<wire::RegionFrame>& frames) {
  std::uint64_t digest = wire::digest_init();
  for (const wire::RegionFrame& f : frames) digest = wire::digest_fold(digest, f);
  return {epoch, frames.size(), digest};
}

// Seed-installs one page and commits the seed epoch (no header, no frames),
// which baselines every region reference.
void seed_commit(ReplicaStaging& staging, common::Gfn gfn, std::uint8_t value) {
  staging.install_seed_page(gfn, filled_page(value));
  staging.begin_epoch(1);
  ASSERT_TRUE(staging.commit().ok());
}

// Arms `epoch` for `frames`, offers them all and commits.
Expected<std::uint64_t> commit_frames(
    ReplicaStaging& staging, std::uint64_t epoch,
    const std::vector<wire::RegionFrame>& frames) {
  staging.begin_epoch(epoch);
  staging.expect_epoch(header_for(epoch, frames));
  for (const wire::RegionFrame& f : frames) {
    EXPECT_EQ(staging.receive_frame(f), FrameVerdict::kOk);
  }
  return staging.commit();
}

// --- Epoch semantics ---------------------------------------------------------

TEST(ReplicaStagingEdge, SameGfnBufferedTwiceLastWriterWins) {
  ReplicaStaging staging(small_spec(), 1);
  const std::vector<wire::RegionFrame> frames = {
      make_frame(1, 0, {7}, 0x01), make_frame(1, 1, {7}, 0x02),
      make_frame(1, 2, {7}, 0x03)};
  staging.begin_epoch(1);
  staging.expect_epoch(header_for(1, frames));
  // Arrival order does not matter: the highest seq applies last.
  for (const std::size_t i : {2, 0, 1}) {
    ASSERT_EQ(staging.receive_frame(frames[i]), FrameVerdict::kOk);
  }
  const auto applied = staging.commit();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(staging.memory().page(7)[0], 0x03);
}

TEST(ReplicaStagingEdge, BeginEpochAfterAbortDiscardsStaleBuffers) {
  ReplicaStaging staging(small_spec(), 1);
  staging.begin_epoch(1);
  const wire::RegionFrame frame = make_frame(1, 0, {4}, 0xcc);
  staging.expect_epoch(header_for(1, {frame}));
  EXPECT_TRUE(staging.expectation_armed());
  ASSERT_EQ(staging.receive_frame(frame), FrameVerdict::kOk);
  staging.abort_epoch();
  EXPECT_FALSE(staging.expectation_armed());
  EXPECT_EQ(staging.frames_verified(), 0u);

  const auto applied =
      commit_frames(staging, 2, {make_frame(2, 0, {5}, 0xbb)});
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);
  // Only the new epoch's page landed; the aborted epoch left no residue.
  EXPECT_EQ(staging.memory().page(4)[0], 0x00);
  EXPECT_EQ(staging.memory().page(5)[0], 0xbb);
}

TEST(ReplicaStagingEdge, NextEpochReusesPayloadBuffersWithoutResidue) {
  ReplicaStaging staging(small_spec(), 1);
  ASSERT_TRUE(
      commit_frames(staging, 1, {make_frame(1, 0, {8, 9, 10}, 0xaa)}).ok());
  // The one-page frame lands in the three-page frame's dropped buffer: only
  // its own page applies, and the buffered size is its own.
  const auto applied = commit_frames(staging, 2, {make_frame(2, 0, {20}, 0xbb)});
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);
  EXPECT_EQ(staging.memory().page(20)[0], 0xbb);
  EXPECT_EQ(staging.memory().page(21)[0], 0x00);
  EXPECT_EQ(staging.memory().page(9)[0], 0xaa);
  EXPECT_EQ(staging.peak_buffered_bytes(), 3 * common::kPageSize);
  // A frame larger than any spare grows it.
  ASSERT_TRUE(commit_frames(staging, 3,
                            {make_frame(3, 0, {30, 31, 32, 33}, 0xcc)})
                  .ok());
  EXPECT_EQ(staging.memory().page(33)[0], 0xcc);
  EXPECT_EQ(staging.peak_buffered_bytes(), 4 * common::kPageSize);
}

TEST(ReplicaStagingEdge, UnarmedCommitRefusesFrames) {
  ReplicaStaging staging(small_spec(), 1);
  staging.begin_epoch(1);
  ASSERT_EQ(staging.receive_frame(make_frame(1, 0, {3}, 0xaa)),
            FrameVerdict::kOk);
  // No header announced the epoch, so nothing vouches for the frame.
  const auto refused = staging.commit();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kDataLoss);
  EXPECT_EQ(staging.memory().page(3)[0], 0x00);
  EXPECT_EQ(staging.committed_epoch(), 0u);
}

// --- Verified frame path ------------------------------------------------------

TEST(ReplicaStagingEdge, WrongEpochFrameIgnored) {
  ReplicaStaging staging(small_spec(), 1);
  staging.begin_epoch(3);
  const wire::RegionFrame stale = make_frame(2, 0, {1}, 0x11);
  EXPECT_EQ(staging.receive_frame(stale), FrameVerdict::kWrongEpoch);
  EXPECT_EQ(staging.frames_verified(), 0u);
  EXPECT_TRUE(staging.corrupt_regions().empty());
}

TEST(ReplicaStagingEdge, DuplicateSeqIgnored) {
  ReplicaStaging staging(small_spec(), 1);
  staging.begin_epoch(1);
  const wire::RegionFrame frame = make_frame(1, 0, {1, 2}, 0x11);
  EXPECT_EQ(staging.receive_frame(frame), FrameVerdict::kOk);
  EXPECT_EQ(staging.receive_frame(frame), FrameVerdict::kDuplicate);
  EXPECT_EQ(staging.frames_verified(), 1u);
}

TEST(ReplicaStagingEdge, CorruptFrameNacksRegionAndRetransmitRepairs) {
  ReplicaStaging staging(small_spec(), 1);
  staging.begin_epoch(1);
  const wire::RegionFrame pristine = make_frame(1, 0, {600}, 0x42);  // region 1
  staging.expect_epoch(header_for(1, {pristine}));

  wire::RegionFrame corrupt = pristine;
  corrupt.bytes[100] ^= 0x80;  // bit flip in flight; CRC no longer matches
  EXPECT_EQ(staging.receive_frame(corrupt), FrameVerdict::kCorrupt);
  ASSERT_EQ(staging.corrupt_regions().size(), 1u);
  EXPECT_TRUE(staging.corrupt_regions().contains(1u));

  // A retransmitted pristine copy repairs the region.
  EXPECT_EQ(staging.receive_frame(pristine), FrameVerdict::kOk);
  EXPECT_TRUE(staging.corrupt_regions().empty());

  const auto applied = staging.commit();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(staging.memory().page(600)[0], 0x42);
}

TEST(ReplicaStagingEdge, TruncatedFrameMarksRegionCorrupt) {
  ReplicaStaging staging(small_spec(), 1);
  staging.begin_epoch(1);
  wire::RegionFrame frame = make_frame(1, 0, {0, 1}, 0x55);
  frame.bytes.resize(frame.bytes.size() - 7);  // tail cut mid-payload
  EXPECT_EQ(staging.receive_frame(frame), FrameVerdict::kCorrupt);
  EXPECT_TRUE(staging.corrupt_regions().contains(0u));
}

TEST(ReplicaStagingEdge, CommitRefusedWhenFramesMissing) {
  ReplicaStaging staging(small_spec(), 1);
  staging.begin_epoch(1);
  const wire::RegionFrame a = make_frame(1, 0, {1}, 0x11);
  const wire::RegionFrame b = make_frame(1, 1, {512}, 0x22);
  staging.expect_epoch(header_for(1, {a, b}));
  EXPECT_EQ(staging.receive_frame(a), FrameVerdict::kOk);  // b was lost

  const auto refused = staging.commit();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kDataLoss);
  // Refuse-before-apply: nothing touched the image, no epoch committed.
  EXPECT_EQ(staging.memory().page(1)[0], 0x00);
  EXPECT_EQ(staging.committed_epoch(), 0u);

  // The epoch is still recoverable the normal way: abort and go again.
  staging.abort_epoch();
  staging.begin_epoch(2);
  const wire::RegionFrame retry = make_frame(2, 0, {1}, 0x33);
  staging.expect_epoch(header_for(2, {retry}));
  EXPECT_EQ(staging.receive_frame(retry), FrameVerdict::kOk);
  ASSERT_TRUE(staging.commit().ok());
  EXPECT_EQ(staging.memory().page(1)[0], 0x33);
  EXPECT_EQ(staging.committed_epoch(), 2u);
}

TEST(ReplicaStagingEdge, CommitRefusedOnDigestMismatch) {
  ReplicaStaging staging(small_spec(), 1);
  staging.begin_epoch(1);
  const wire::RegionFrame announced = make_frame(1, 0, {9}, 0x11);
  staging.expect_epoch(header_for(1, {announced}));

  // A substituted frame: individually intact (valid CRC over its own bytes)
  // but not the frame the header committed to.
  const wire::RegionFrame substituted = make_frame(1, 0, {9}, 0x99);
  EXPECT_EQ(staging.receive_frame(substituted), FrameVerdict::kOk);

  const auto refused = staging.commit();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kDataLoss);
  EXPECT_EQ(staging.memory().page(9)[0], 0x00);
}

TEST(ReplicaStagingEdge, CommitRecordsRegionDigestReferences) {
  ReplicaStaging staging(small_spec(), 1);
  ASSERT_EQ(staging.region_count(), 4u);
  seed_commit(staging, 600, 0x42);  // region 1

  // The first commit baselines every region; references match the image.
  for (std::uint32_t r = 0; r < staging.region_count(); ++r) {
    EXPECT_EQ(staging.committed_region_digest(r), staging.live_region_digest(r))
        << "region " << r;
  }

  // Post-commit divergence (bit rot / stray write) shows up as a live-vs-
  // reference mismatch — exactly what the background scrubber looks for.
  auto page = staging.memory().page_mut(600);
  page[0] ^= 0xff;
  EXPECT_NE(staging.committed_region_digest(1), staging.live_region_digest(1));
  EXPECT_EQ(staging.committed_region_digest(0), staging.live_region_digest(0));
}

TEST(ReplicaStagingEdge, LaterCommitInSameRegionDoesNotLaunderRot) {
  ReplicaStaging staging(small_spec(), 1);
  seed_commit(staging, 600, 0x42);  // region 1

  // Page 600 rots after commit; the next epoch installs its neighbour 601
  // through the verified frame path, which re-references region 1.
  staging.memory().page_mut(600)[0] ^= 0xff;
  ASSERT_TRUE(commit_frames(staging, 2, {make_frame(2, 0, {601}, 0x43)}).ok());

  // The new reference covers page 601's committed bytes and page 600's
  // committed bytes, not the rot: the scrubber still sees the divergence.
  EXPECT_NE(staging.committed_region_digest(1), staging.live_region_digest(1));
  staging.memory().page_mut(600)[0] ^= 0xff;  // undo the rot
  EXPECT_EQ(staging.committed_region_digest(1), staging.live_region_digest(1));
}

TEST(ReplicaStagingEdge, SeedInstallAfterCommitEntersNextRegionReference) {
  ReplicaStaging staging(small_spec(), 1);
  seed_commit(staging, 600, 0x42);

  // A rejoin resync installs a divergent page outside any epoch; the next
  // commit touching the region folds the installed bytes in.
  staging.install_seed_page(700, filled_page(0x17));
  ASSERT_TRUE(commit_frames(staging, 2, {make_frame(2, 0, {601}, 0x43)}).ok());
  for (std::uint32_t r = 0; r < staging.region_count(); ++r) {
    EXPECT_EQ(staging.committed_region_digest(r), staging.live_region_digest(r))
        << "region " << r;
  }
}

// --- The scrub's audit digest ------------------------------------------------

// live_region_digest as its definition reads: every page of the region
// hashed from its bytes, the digests folded in gfn order.
std::uint64_t region_digest_of_bytes(const ReplicaStaging& staging,
                                     std::uint32_t region) {
  const hv::GuestMemory& memory = staging.memory();
  const std::uint64_t first = std::uint64_t{region} * common::kPagesPerRegion;
  const std::uint64_t last =
      std::min<std::uint64_t>(first + common::kPagesPerRegion, memory.pages());
  std::uint64_t acc = common::kFnvStreamOffset;
  for (common::Gfn g = first; g < last; ++g) {
    acc = common::fnv1a_u64(acc, hv::page_digest(memory.page(g)));
  }
  return acc;
}

TEST(ReplicaStagingScrub, AuditDigestEqualsTheBytesWithAndWithoutBackedPages) {
  // 8 MiB plus 100 pages: four full regions and a 100-page last one.
  ReplicaStaging staging(
      hv::make_vm_spec("t", 1, (8ULL << 20) + 100 * common::kPageSize), 1);
  ASSERT_EQ(staging.region_count(), 5u);
  // Nothing backed: full regions and the partial last one.
  for (std::uint32_t r = 0; r < staging.region_count(); ++r) {
    EXPECT_EQ(staging.live_region_digest(r), region_digest_of_bytes(staging, r))
        << "region " << r;
  }
  EXPECT_EQ(staging.live_region_digest(0), staging.live_region_digest(3));
  EXPECT_NE(staging.live_region_digest(4), staging.live_region_digest(0));

  // One backed page in region 1 and one in the partial region 4; region 2
  // gets a backed page that still holds zeros.
  staging.install_seed_page(700, filled_page(0x5a));
  staging.install_seed_page(2100, filled_page(0x5b));
  (void)staging.memory().page_mut(1100);
  ASSERT_TRUE(staging.memory().backed(1100));
  for (std::uint32_t r = 0; r < staging.region_count(); ++r) {
    EXPECT_EQ(staging.live_region_digest(r), region_digest_of_bytes(staging, r))
        << "region " << r;
  }
  EXPECT_NE(staging.live_region_digest(1), staging.live_region_digest(0));
  EXPECT_EQ(staging.live_region_digest(2), staging.live_region_digest(0));
}

// --- Frames that do not fit the VM -------------------------------------------
//
// Each frame below is intact (its CRC matches) but describes pages the image
// or the region cannot hold. receive_frame NACKs it like in-flight damage,
// and the commit refuses before anything is applied.

// Offers `bad` next to an honest frame for region 0 and checks that the bad
// frame is NACKed and the epoch refused with the image untouched.
void expect_frame_refused(ReplicaStaging& staging, wire::RegionFrame bad) {
  wire::seal_frame(bad);
  const wire::RegionFrame good = make_frame(1, 0, {5}, 0x11);
  staging.begin_epoch(1);
  staging.expect_epoch(header_for(1, {good, bad}));
  ASSERT_EQ(staging.receive_frame(good), FrameVerdict::kOk);
  ASSERT_EQ(staging.receive_frame(bad), FrameVerdict::kCorrupt);
  EXPECT_TRUE(staging.corrupt_regions().contains(bad.region));
  const auto refused = staging.commit();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kDataLoss);
  EXPECT_EQ(staging.memory().page(5)[0], 0x00);
  EXPECT_EQ(staging.committed_epoch(), 0u);
}

TEST(ReplicaStagingEdge, FrameForRegionBeyondVmRefused) {
  ReplicaStaging staging(small_spec(), 1);
  wire::RegionFrame bad = make_frame(1, 1, {600}, 0x22);
  bad.region = staging.region_count();  // one past the last region
  bad.gfns = {bad.region * common::kPagesPerRegion - 1};  // in the VM
  expect_frame_refused(staging, bad);
}

TEST(ReplicaStagingEdge, FramePageBeyondVmRefused) {
  // 2032 pages: the last region (3) is partial, so a gfn can sit inside
  // region 3's span yet past the end of the image.
  ReplicaStaging staging(hv::make_vm_spec("t", 1, (8ULL << 20) - (64ULL << 10)),
                         1);
  ASSERT_EQ(staging.spec().pages, 2032u);
  expect_frame_refused(staging, make_frame(1, 1, {2000, 2040}, 0x22));
}

TEST(ReplicaStagingEdge, FramePageOutsideItsRegionRefused) {
  ReplicaStaging staging(small_spec(), 1);
  wire::RegionFrame bad = make_frame(1, 1, {1200}, 0x22);  // region 2
  bad.gfns = {1200, 600};  // 600 lives in region 1
  bad.bytes.assign(2 * common::kPageSize, 0x22);
  expect_frame_refused(staging, bad);
  EXPECT_EQ(staging.memory().page(600)[0], 0x00);
}

// Seeding copies every page of a 256 MiB VM whose guest wrote 5 % of them.
// The zero pages stay unbacked on both sides, so resident memory grows by
// about twice the written bytes (primary and replica), not by two images.
TEST(ReplicaStaging, SeedKeepsZeroPagesUnbacked) {
  if (const std::string why = test::residency_unmeasurable(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("sparse", 1, 256ULL << 20);
  config.engine.mode = EngineMode::kRemus;  // hosts only; engine unused
  Testbed bed(config);
  const std::uint64_t before = test::rss_anon_bytes().value();
  hv::Vm& vm = bed.create_vm(nullptr);
  const std::uint64_t pages = vm.memory().pages();
  const std::vector<std::uint8_t> content = filled_page(0x6b);
  std::uint64_t written = 0;
  for (common::Gfn g = 0; g < pages; g += 20) {
    vm.memory().write(0, g, 0, content);
    written += common::kPageSize;
  }
  common::ThreadPool pool(1);
  TimeModel model;
  ReplicaStaging staging(config.vm_spec, 1);
  Seeder seeder(bed.simulation(), model, pool, bed.xen(), vm, staging, {});
  bool done = false;
  seeder.start([&](const SeedResult&) { done = true; });
  ASSERT_TRUE(bed.run_until([&] { return done; }));
  EXPECT_EQ(staging.memory().full_digest(), vm.memory().full_digest());
  EXPECT_LT(test::rss_anon_bytes().value() - before, 3 * written);
}

// --- Region references fold from the first changed page ---------------------

// The test's own model of the reference: per page, the digest the page had
// when a commit last landed it or refreshed its region after a seed
// install; a region's reference is the full 512-page fold of those.
struct ReferenceModel {
  explicit ReferenceModel(const ReplicaStaging& staging)
      : digests(staging.spec().pages), pending(staging.spec().pages, true) {}

  std::uint64_t fold(std::uint32_t region) const {
    std::uint64_t acc = common::kFnvStreamOffset;
    const std::uint64_t first = std::uint64_t{region} * common::kPagesPerRegion;
    const std::uint64_t last =
        std::min<std::uint64_t>(first + common::kPagesPerRegion, digests.size());
    for (std::uint64_t g = first; g < last; ++g) {
      acc = common::fnv1a_u64(acc, digests[g]);
    }
    return acc;
  }

  // A commit landed `landed` and refreshed `regions`.
  void committed(const ReplicaStaging& staging,
                 const std::vector<common::Gfn>& landed,
                 const std::set<std::uint32_t>& regions) {
    for (const common::Gfn g : landed) {
      digests[g] = staging.memory().page_digest(g);
      pending[g] = false;
    }
    for (const std::uint32_t r : regions) {
      const std::uint64_t first = std::uint64_t{r} * common::kPagesPerRegion;
      for (std::uint64_t g = first;
           g < std::min<std::uint64_t>(first + common::kPagesPerRegion,
                                       digests.size());
           ++g) {
        if (pending[g]) digests[g] = staging.memory().page_digest(g);
        pending[g] = false;
      }
    }
  }

  std::vector<std::uint64_t> digests;
  std::vector<bool> pending;  // seed-installed, not yet in a reference
};

// Seeded random rounds of raw commits, seed installs and post-commit rot on
// a 2.5-region image (a short last region included): after every commit,
// every region's reference equals the model's full fold — the prefix
// refold is bit-identical to folding all 512 page digests, rot stays out,
// and seed installs enter only when their region is next refreshed.
TEST(RegionReference, PrefixRefoldMatchesTheFullFold) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    sim::Rng rng(seed);
    ReplicaStaging staging(hv::make_vm_spec("t", 1, 5ULL << 20), 1);
    const std::uint64_t pages = staging.spec().pages;  // 1280
    ReferenceModel model(staging);
    for (int i = 0; i < 40; ++i) {
      staging.install_seed_page(rng.uniform(pages), filled_page(0x11));
    }
    staging.begin_epoch(0);
    ASSERT_TRUE(staging.commit().ok());
    std::set<std::uint32_t> all;
    for (std::uint32_t r = 0; r < staging.region_count(); ++r) all.insert(r);
    model.committed(staging, {}, all);
    for (std::uint64_t epoch = 1; epoch <= 30; ++epoch) {
      // Seed installs (a rejoin resync) and rot on a committed page.
      for (std::uint64_t n = rng.uniform(3); n > 0; --n) {
        const common::Gfn g = rng.uniform(pages);
        staging.install_seed_page(
            g, filled_page(static_cast<std::uint8_t>(rng.uniform(256))));
        model.pending[g] = true;
      }
      if (rng.bernoulli(0.5)) {
        const common::Gfn g = rng.uniform(pages);
        if (!model.pending[g]) staging.memory().page_mut(g)[rng.uniform(4096)] ^= 0x20;
      }
      // One frame per chosen region; gfns drawn near the region's edges
      // as often as its middle.
      std::vector<wire::RegionFrame> frames;
      std::vector<common::Gfn> landed;
      std::set<std::uint32_t> regions;
      for (std::uint64_t n = 1 + rng.uniform(3); n > 0; --n) {
        const auto r = static_cast<std::uint32_t>(rng.uniform(staging.region_count()));
        if (!regions.insert(r).second) continue;
        const std::uint64_t first = std::uint64_t{r} * common::kPagesPerRegion;
        const std::uint64_t span =
            std::min<std::uint64_t>(common::kPagesPerRegion, pages - first);
        std::vector<common::Gfn> gfns;
        for (std::uint64_t k = 1 + rng.uniform(4); k > 0; --k) {
          const std::uint64_t at = rng.uniform(3) == 0   ? rng.uniform(span)
                                   : rng.bernoulli(0.5) ? rng.uniform(4)
                                                         : span - 1 - rng.uniform(4);
          gfns.push_back(first + at);
        }
        landed.insert(landed.end(), gfns.begin(), gfns.end());
        frames.push_back(make_frame(epoch, frames.size(), gfns,
                                    static_cast<std::uint8_t>(rng.uniform(256))));
      }
      ASSERT_TRUE(commit_frames(staging, epoch, frames).ok());
      model.committed(staging, landed, regions);
      for (std::uint32_t r = 0; r < staging.region_count(); ++r) {
        ASSERT_EQ(staging.committed_region_digest(r), model.fold(r))
            << "seed " << seed << " epoch " << epoch << " region " << r;
      }
    }
  }
}

// --- The commit sharded on the migrator pool ----------------------------------

// One seeded random encoded epoch against `base`'s committed image: frames
// for several regions mixing raw, zero, delta and skip pages, some regions
// sent twice under a higher seq, a repeated gfn inside a frame. Large
// enough and light enough on payload to pass the sharding gate.
std::vector<wire::RegionFrame> random_encoded_epoch(const ReplicaStaging& base,
                                                    std::uint64_t epoch,
                                                    sim::Rng& rng) {
  std::vector<wire::RegionFrame> frames;
  const std::uint32_t regions = base.region_count();
  for (std::uint32_t r = 0; r < regions; ++r) {
    if (rng.bernoulli(0.3)) continue;
    for (int copy = 0; copy < (rng.bernoulli(0.25) ? 2 : 1); ++copy) {
      wire::RegionFrame f;
      f.epoch = epoch;
      f.region = r;
      f.version = wire::kWireVersionEncoded;
      for (int k = 0; k < 160; ++k) {
        const common::Gfn g =
            std::uint64_t{r} * common::kPagesPerRegion + rng.uniform(common::kPagesPerRegion);
        const auto committed = base.memory().page(g);
        const std::vector<std::uint8_t> before(committed.begin(), committed.end());
        const std::uint64_t pick = rng.uniform(10);
        f.gfns.push_back(g);
        if (pick == 0) {  // raw
          std::vector<std::uint8_t> page(common::kPageSize);
          for (auto& b : page) b = static_cast<std::uint8_t>(rng.uniform(256));
          f.pages.push_back({wire::PageEncoding::kRaw,
                             static_cast<std::uint32_t>(common::kPageSize), 0});
          f.bytes.insert(f.bytes.end(), page.begin(), page.end());
        } else if (pick <= 2) {  // zero
          f.pages.push_back({wire::PageEncoding::kZero, 0, 0});
        } else if (pick <= 6) {  // delta of a few bytes
          std::vector<std::uint8_t> target = before;
          for (std::uint64_t n = 1 + rng.uniform(6); n > 0; --n) {
            target[rng.uniform(common::kPageSize)] ^=
                static_cast<std::uint8_t>(1 + rng.uniform(255));
          }
          const std::vector<std::uint8_t> delta = xor_rle_encode(target, before);
          f.pages.push_back({wire::PageEncoding::kDelta,
                             static_cast<std::uint32_t>(delta.size()),
                             hv::page_digest(before)});
          f.bytes.insert(f.bytes.end(), delta.begin(), delta.end());
        } else {  // skip
          f.pages.push_back(
              {wire::PageEncoding::kSkip, 0, hv::page_digest(before)});
        }
      }
      if (rng.bernoulli(0.5)) {  // the later entry of a repeated gfn wins
        f.gfns.push_back(f.gfns.front());
        f.pages.push_back({wire::PageEncoding::kZero, 0, 0});
      }
      frames.push_back(std::move(f));
    }
  }
  // Seqs ascend with the order built: a region's second frame follows it.
  for (std::size_t i = 0; i < frames.size(); ++i) {
    frames[i].seq = i;
    wire::seal_frame(frames[i]);
  }
  return frames;
}

Expected<std::uint64_t> commit_encoded(ReplicaStaging& staging,
                                       std::uint64_t epoch,
                                       const std::vector<wire::RegionFrame>& frames) {
  std::uint64_t digest = wire::digest_init();
  for (const wire::RegionFrame& f : frames) digest = wire::digest_fold(digest, f);
  staging.begin_epoch(epoch);
  staging.expect_epoch({epoch, frames.size(), digest, wire::kWireVersionEncoded});
  for (const wire::RegionFrame& f : frames) {
    EXPECT_EQ(staging.receive_frame(f), FrameVerdict::kOk);
  }
  return staging.commit();
}

// A serial staging (no pool) and one sharded at P = 1, 2 and 4 take the
// same seeded seed image and encoded epochs: after every commit the image
// bytes, the backed flags and every region reference agree. The references
// fold the digest cache, so a cache entry that differed would show there;
// a final honest epoch over every page of every region re-checks the cache
// of pages the random epochs left alone.
TEST(ShardedCommit, MatchesSerialAtOneTwoAndFourShards) {
  const hv::VmSpec spec = hv::make_vm_spec("t", 1, 16ULL << 20);  // 8 regions
  sim::Simulation sim;
  MigratorPool pool(sim, 4);
  for (const std::uint32_t p : {1u, 2u, 4u}) {
    const MigratorPool::ClientId client = pool.register_client("replica", p);
    ReplicaStaging serial(spec, 4);
    ReplicaStaging sharded(spec, 4);
    sharded.attach_pool({&pool, client, p});
    sim::Rng seed_rng(7);
    for (common::Gfn g = 0; g < spec.pages; ++g) {
      if (!seed_rng.bernoulli(0.3)) continue;
      std::vector<std::uint8_t> page(common::kPageSize);
      for (auto& b : page) b = static_cast<std::uint8_t>(seed_rng.uniform(256));
      serial.install_seed_page(g, page);
      sharded.install_seed_page(g, page);
    }
    for (ReplicaStaging* s : {&serial, &sharded}) {
      s->begin_epoch(0);
      ASSERT_TRUE(s->commit().ok());
    }
    sim::Rng rng(11);
    for (std::uint64_t epoch = 1; epoch <= 6; ++epoch) {
      const std::vector<wire::RegionFrame> frames =
          random_encoded_epoch(serial, epoch, rng);
      const Expected<std::uint64_t> a = commit_encoded(serial, epoch, frames);
      const Expected<std::uint64_t> b = commit_encoded(sharded, epoch, frames);
      ASSERT_TRUE(a.ok()) << a.status().to_string();
      ASSERT_TRUE(b.ok()) << b.status().to_string();
      EXPECT_EQ(*a, *b);
      for (common::Gfn g = 0; g < spec.pages; ++g) {
        ASSERT_TRUE(std::ranges::equal(serial.memory().page(g),
                                       sharded.memory().page(g)))
            << "P " << p << " epoch " << epoch << " gfn " << g;
        ASSERT_EQ(serial.memory().backed(g), sharded.memory().backed(g))
            << "P " << p << " epoch " << epoch << " gfn " << g;
      }
      for (std::uint32_t r = 0; r < serial.region_count(); ++r) {
        ASSERT_EQ(serial.committed_region_digest(r),
                  sharded.committed_region_digest(r))
            << "P " << p << " epoch " << epoch << " region " << r;
        EXPECT_EQ(sharded.committed_region_digest(r),
                  sharded.live_region_digest(r));
      }
    }
    const std::uint64_t shards_run = pool.client_stats(client).commit_shards_run;
    if (p > 1) {
      EXPECT_GT(shards_run, 0u) << "the epochs passed the sharding gate";
    } else {
      EXPECT_EQ(shards_run, 0u) << "one shard runs on the caller's thread";
    }
  }
}

// The gate. A baseline shards by the pages it rehashes, the backed ones: a
// nearly empty image's stays on the caller's thread, a written one's
// shards. A raw epoch (payload equal to the landed bytes) stays on the
// caller's thread even when it lands 800 pages in 4 regions.
TEST(ShardedCommit, GateKeepsSmallBaselinesAndRawEpochsOnTheCallersThread) {
  const hv::VmSpec spec = hv::make_vm_spec("t", 1, 16ULL << 20);
  sim::Simulation sim;
  MigratorPool pool(sim, 4);
  const MigratorPool::ClientId client = pool.register_client("replica", 4);
  {
    ReplicaStaging sparse(spec, 4);
    sparse.attach_pool({&pool, client, 4});
    for (common::Gfn g = 0; g < 511; ++g) {
      sparse.install_seed_page(g * 8, filled_page(0x5a));
    }
    sparse.begin_epoch(0);
    ASSERT_TRUE(sparse.commit().ok());
    EXPECT_EQ(pool.client_stats(client).commit_shards_run, 0u);
  }
  ReplicaStaging staging(spec, 4);
  staging.attach_pool({&pool, client, 4});
  for (common::Gfn g = 0; g < 512; ++g) {
    staging.install_seed_page(g * 8, filled_page(0x5a));
  }
  staging.begin_epoch(0);
  ASSERT_TRUE(staging.commit().ok());
  const std::uint64_t after_baseline = pool.client_stats(client).commit_shards_run;
  EXPECT_GT(after_baseline, 0u);
  std::vector<wire::RegionFrame> raw;
  for (std::uint32_t r = 0; r < 4; ++r) {
    std::vector<common::Gfn> gfns;
    for (common::Gfn g = 0; g < 200; ++g) gfns.push_back(r * common::kPagesPerRegion + g);
    raw.push_back(make_frame(1, r, gfns, static_cast<std::uint8_t>(r + 1)));
  }
  ASSERT_TRUE(commit_frames(staging, 1, raw).ok());  // 800 raw pages
  EXPECT_EQ(pool.client_stats(client).commit_shards_run, after_baseline);
  for (std::uint32_t r = 0; r < staging.region_count(); ++r) {
    EXPECT_EQ(staging.committed_region_digest(r), staging.live_region_digest(r));
  }
}

}  // namespace
}  // namespace here::rep
