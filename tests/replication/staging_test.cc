// ReplicaStaging edge cases: worker-buffer semantics (last-writer-wins,
// cross-worker region sharing, abort discarding stale buffers) and the
// verified frame path (duplicate/reordered/corrupt frames, NACK bookkeeping,
// commit refusal on missing frames or digest mismatch, per-region digest
// references for the scrubber, which post-commit rot must never enter).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "hv/hypervisor.h"
#include "replication/staging.h"
#include "replication/wire.h"

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

// --- Worker-buffer semantics --------------------------------------------------

TEST(ReplicaStagingEdge, SameGfnBufferedTwiceLastWriterWins) {
  ReplicaStaging staging(small_spec(), 2);
  staging.begin_epoch(1);
  staging.buffer_page(0, 7, filled_page(0x01));
  staging.buffer_page(0, 7, filled_page(0x02));
  // A later worker's buffer applies after an earlier worker's.
  staging.buffer_page(1, 7, filled_page(0x03));
  const auto applied = staging.commit();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(staging.memory().page(7)[0], 0x03);
}

TEST(ReplicaStagingEdge, DistinctWorkersSameRegionAllApplied) {
  ReplicaStaging staging(small_spec(), 2);
  staging.begin_epoch(1);
  // Both gfns live in region 0; each worker owns its own buffer.
  staging.buffer_page(0, 10, filled_page(0xaa));
  staging.buffer_page(1, 11, filled_page(0xbb));
  const auto applied = staging.commit();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 2u);
  EXPECT_EQ(staging.memory().page(10)[0], 0xaa);
  EXPECT_EQ(staging.memory().page(11)[0], 0xbb);
}

TEST(ReplicaStagingEdge, BeginEpochAfterAbortDiscardsStaleBuffers) {
  ReplicaStaging staging(small_spec(), 1);
  staging.begin_epoch(1);
  staging.buffer_page(0, 3, filled_page(0xaa));
  const wire::RegionFrame frame = make_frame(1, 0, {4}, 0xcc);
  staging.expect_epoch(header_for(1, {frame}));
  EXPECT_TRUE(staging.expectation_armed());
  staging.abort_epoch();
  EXPECT_FALSE(staging.expectation_armed());
  EXPECT_EQ(staging.frames_verified(), 0u);

  staging.begin_epoch(2);
  staging.buffer_page(0, 5, filled_page(0xbb));
  const auto applied = staging.commit();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);
  // Only the new epoch's page landed; the aborted epoch left no residue.
  EXPECT_EQ(staging.memory().page(3)[0], 0x00);
  EXPECT_EQ(staging.memory().page(4)[0], 0x00);
  EXPECT_EQ(staging.memory().page(5)[0], 0xbb);
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
  staging.begin_epoch(1);
  staging.buffer_page(0, 600, filled_page(0x42));  // region 1
  ASSERT_TRUE(staging.commit().ok());

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
  staging.begin_epoch(1);
  staging.buffer_page(0, 600, filled_page(0x42));  // region 1
  ASSERT_TRUE(staging.commit().ok());

  // Page 600 rots after commit; the next epoch installs its neighbour 601
  // through the verified frame path, which re-references region 1.
  staging.memory().page_mut(600)[0] ^= 0xff;
  staging.begin_epoch(2);
  const wire::RegionFrame frame = make_frame(2, 0, {601}, 0x43);
  staging.expect_epoch(header_for(2, {frame}));
  ASSERT_EQ(staging.receive_frame(frame), FrameVerdict::kOk);
  ASSERT_TRUE(staging.commit().ok());

  // The new reference covers page 601's committed bytes and page 600's
  // committed bytes, not the rot: the scrubber still sees the divergence.
  EXPECT_NE(staging.committed_region_digest(1), staging.live_region_digest(1));
  staging.memory().page_mut(600)[0] ^= 0xff;  // undo the rot
  EXPECT_EQ(staging.committed_region_digest(1), staging.live_region_digest(1));
}

TEST(ReplicaStagingEdge, SeedInstallAfterCommitEntersNextRegionReference) {
  ReplicaStaging staging(small_spec(), 1);
  staging.begin_epoch(1);
  staging.buffer_page(0, 600, filled_page(0x42));
  ASSERT_TRUE(staging.commit().ok());

  // A rejoin resync installs a divergent page outside any epoch; the next
  // commit touching the region folds the installed bytes in.
  staging.install_seed_page(700, filled_page(0x17));
  staging.begin_epoch(2);
  staging.buffer_page(0, 601, filled_page(0x43));
  ASSERT_TRUE(staging.commit().ok());
  for (std::uint32_t r = 0; r < staging.region_count(); ++r) {
    EXPECT_EQ(staging.committed_region_digest(r), staging.live_region_digest(r))
        << "region " << r;
  }
}

}  // namespace
}  // namespace here::rep
