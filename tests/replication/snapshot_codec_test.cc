// The durable snapshot codec (encode_snapshot / decode_snapshot):
//   * golden format — encode_snapshot matches, byte for byte, a reference
//     serializer that pushes little-endian bytes one at a time over a
//     std::map of stamps, across zero and non-zero pages, chunk-straddling
//     writes, sector 0, the last sector, a clamped write, a sector written
//     with stamp 0 and an empty disk;
//   * reused buffers — encode_snapshot_into a buffer that last held a
//     longer record, a shorter one or nothing writes the same bytes as a
//     fresh encode, keeps a large enough buffer's storage and leaves no
//     stale tail;
//   * round trip — decode_snapshot gives back the pages and the disk;
//   * forged records — CRC-valid payloads with lying counts, out-of-order
//     stamps or stamps past the disk end are refused with kDataLoss, never
//     thrown on;
//   * the sharded writer — on the migrator pool, at shard counts from 2 to
//     more than the disk has chunks, it writes the serial writer's bytes,
//     and crc32c_combine, which joins its shards' CRCs, matches a one-shot
//     CRC at every split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/crc32c.h"
#include "common/status.h"
#include "common/units.h"
#include "hv/disk.h"
#include "hv/guest_memory.h"
#include "replication/durable_store.h"
#include "replication/migrator_pool.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace here::rep {
namespace {

using Stamps = std::map<std::uint64_t, std::uint64_t>;

void push_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

void push_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
}

// Frames a payload as a kind-1 record with a valid CRC.
std::vector<std::uint8_t> frame_snapshot(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> record;
  push_u32(record, 0x31534448);  // 'HDS1'
  push_u32(record, 1);           // snapshot
  push_u64(record, payload.size());
  record.insert(record.end(), payload.begin(), payload.end());
  push_u32(record, common::crc32c(payload));
  return record;
}

// The reference serializer: the snapshot format written byte by byte.
std::vector<std::uint8_t> reference_snapshot(std::uint64_t epoch,
                                             const hv::GuestMemory& memory,
                                             std::uint64_t total_sectors,
                                             const Stamps& stamps) {
  std::vector<std::uint8_t> payload;
  push_u64(payload, epoch);
  std::vector<common::Gfn> stored;
  for (common::Gfn gfn = 0; gfn < memory.pages(); ++gfn) {
    const auto page = memory.page(gfn);
    if (std::any_of(page.begin(), page.end(), [](std::uint8_t b) { return b != 0; })) {
      stored.push_back(gfn);
    }
  }
  push_u64(payload, stored.size());
  for (const common::Gfn gfn : stored) {
    push_u64(payload, gfn);
    const auto page = memory.page(gfn);
    payload.insert(payload.end(), page.begin(), page.end());
  }
  push_u64(payload, total_sectors);
  push_u64(payload, stamps.size());
  for (const auto& [sector, stamp] : stamps) {
    push_u64(payload, sector);
    push_u64(payload, stamp);
  }
  return frame_snapshot(payload);
}

std::vector<std::uint8_t> bytes(const SnapshotSegment& segment) {
  return {segment.begin(), segment.end()};
}

// Applies a write to the disk and to its reference map, clamping alike.
void write_both(hv::VirtualDisk& disk, Stamps& reference, hv::DiskWrite write) {
  disk.apply(write);
  for (std::uint32_t i = 0; i < write.sectors; ++i) {
    if (write.sector + i >= disk.total_sectors()) break;
    reference[write.sector + i] = write.stamp + i;
  }
}

TEST(SnapshotCodec, MatchesReferenceSerializerByteForByte) {
  constexpr std::uint64_t kChunk = hv::VirtualDisk::kChunkSectors;
  constexpr std::uint64_t kSectors = 4 * kChunk + 17;
  hv::GuestMemory memory(64, 1);
  std::vector<std::uint8_t> page(common::kPageSize, 0);
  page[0] = 0x01;
  memory.install_page(0, page);  // non-zero in the first byte only
  page[0] = 0;
  page[common::kPageSize - 1] = 0x80;
  memory.install_page(9, page);  // non-zero in the last byte only
  sim::Rng rng(3);
  for (auto& b : page) b = static_cast<std::uint8_t>(rng.uniform(256));
  memory.install_page(63, page);  // and the last page; the rest stay zero

  hv::VirtualDisk disk(kSectors);
  Stamps reference;
  write_both(disk, reference, {.sector = 0, .sectors = 1, .stamp = 5});
  write_both(disk, reference, {.sector = kChunk - 3, .sectors = 7, .stamp = 40});
  write_both(disk, reference, {.sector = 2 * kChunk, .sectors = 1, .stamp = 0});
  write_both(disk, reference, {.sector = kSectors - 1, .sectors = 1, .stamp = 77});
  write_both(disk, reference, {.sector = kSectors - 4, .sectors = 10, .stamp = 90});
  for (int i = 0; i < 200; ++i) {
    write_both(disk, reference,
               {.sector = rng.uniform(kSectors),
                .sectors = 1 + static_cast<std::uint32_t>(rng.uniform(64)),
                .stamp = rng.uniform(1u << 30)});
  }
  ASSERT_EQ(reference.count(2 * kChunk), 1u);  // the stamp-0 sector survives

  EXPECT_EQ(bytes(encode_snapshot(12, memory, disk)),
            reference_snapshot(12, memory, kSectors, reference));
}

// An image with `pages` pages of which every `stride`-th is non-zero, and a
// disk with `sectors` written sectors from sector 5 on.
struct Image {
  Image(std::uint64_t pages, std::uint64_t stride, std::uint64_t sectors)
      : memory(pages, 1), disk(4 * hv::VirtualDisk::kChunkSectors) {
    sim::Rng rng(pages + stride);
    std::vector<std::uint8_t> page(common::kPageSize);
    for (common::Gfn gfn = 0; gfn < pages; gfn += stride) {
      for (auto& b : page) b = static_cast<std::uint8_t>(1 + rng.uniform(255));
      memory.install_page(gfn, page);
    }
    for (std::uint64_t s = 5; s < 5 + sectors; ++s) {
      write_both(disk, stamps, {.sector = s, .sectors = 1, .stamp = s * 3 + 1});
    }
  }
  hv::GuestMemory memory;
  hv::VirtualDisk disk;
  Stamps stamps;
};

TEST(SnapshotCodec, EncodeIntoReusedBufferMatchesFreshAndReference) {
  const Image image(64, 3, 3000);  // 22 pages, 3,000 stamps: ~138 KB
  const std::vector<std::uint8_t> golden = reference_snapshot(
      7, image.memory, image.disk.total_sectors(), image.stamps);
  ASSERT_EQ(bytes(encode_snapshot(7, image.memory, image.disk)), golden);

  const Image longer(64, 1, 9000);  // every page, 9,000 stamps
  const Image shorter(64, 16, 100);
  const SnapshotSegment priors[] = {
      encode_snapshot(1, longer.memory, longer.disk),
      encode_snapshot(2, shorter.memory, shorter.disk),
      SnapshotSegment{},
  };
  ASSERT_GT(priors[0].size(), golden.size());
  ASSERT_LT(priors[1].size(), golden.size());
  for (const SnapshotSegment& prior : priors) {
    SnapshotSegment buffer = prior;
    const std::uint8_t* const storage = buffer.data();
    const bool fits = buffer.capacity() >= golden.size();
    encode_snapshot_into(buffer, 7, image.memory, image.disk);
    EXPECT_EQ(bytes(buffer), golden) << "prior of " << prior.size() << " bytes";
    if (fits) {
      EXPECT_EQ(buffer.data(), storage) << "a large enough buffer is reused";
    } else {
      EXPECT_EQ(buffer.capacity(), golden.size()) << "a new buffer is exact";
    }
    // And the buffer keeps serving: back to a longer record, then this one.
    encode_snapshot_into(buffer, 1, longer.memory, longer.disk);
    EXPECT_EQ(buffer, priors[0]);
    encode_snapshot_into(buffer, 7, image.memory, image.disk);
    EXPECT_EQ(bytes(buffer), golden);
  }
}

TEST(SnapshotCodec, EmptyDiskAndZeroImageMatchReference) {
  hv::GuestMemory memory(16, 1);
  hv::VirtualDisk disk(1000);
  const std::vector<std::uint8_t> encoded = bytes(encode_snapshot(0, memory, disk));
  EXPECT_EQ(encoded, reference_snapshot(0, memory, 1000, {}));
  // Framing plus epoch, page count, geometry and stamp count.
  EXPECT_EQ(encoded.size(), 20u + 32u);
}

TEST(SnapshotCodec, DecodeReturnsTheEncodedImageAndDisk) {
  hv::GuestMemory memory(32, 1);
  std::vector<std::uint8_t> page(common::kPageSize, 0x5A);
  memory.install_page(4, page);
  hv::VirtualDisk disk(3 * hv::VirtualDisk::kChunkSectors);
  disk.apply({.sector = 4090, .sectors = 12, .stamp = 1000});
  disk.apply({.sector = 3, .sectors = 1, .stamp = 0});

  const Expected<DurableStore::Snapshot> snap =
      decode_snapshot(encode_snapshot(9, memory, disk));
  ASSERT_TRUE(snap.ok()) << snap.status().message();
  EXPECT_EQ((*snap).epoch, 9u);
  ASSERT_EQ((*snap).pages.size(), 1u);
  EXPECT_EQ((*snap).pages[0].first, 4u);
  EXPECT_EQ((*snap).pages[0].second, page);
  EXPECT_EQ((*snap).disk.total_sectors(), disk.total_sectors());
  EXPECT_EQ((*snap).disk.distinct_sectors(), 13u);
  EXPECT_EQ((*snap).disk.digest(), disk.digest());
  EXPECT_EQ((*snap).disk.read_stamp(4101), 1011u);
}

// --- Forged records -------------------------------------------------------------

// A payload with no pages and the given disk section.
std::vector<std::uint8_t> forged_disk(std::uint64_t total_sectors,
                                      std::uint64_t stamp_count,
                                      const Stamps& stamps = {}) {
  std::vector<std::uint8_t> payload;
  push_u64(payload, 1);  // epoch
  push_u64(payload, 0);  // pages
  push_u64(payload, total_sectors);
  push_u64(payload, stamp_count);
  for (const auto& [sector, stamp] : stamps) {
    push_u64(payload, sector);
    push_u64(payload, stamp);
  }
  return payload;
}

void expect_refused(const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> record = frame_snapshot(payload);
  Expected<DurableStore::Snapshot> snap = Status::internal("not decoded");
  EXPECT_NO_THROW(snap = decode_snapshot(record));
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kDataLoss);
}

TEST(SnapshotCodec, LyingStampCountIsRefusedNotThrown) {
  expect_refused(forged_disk(1000, std::uint64_t{1} << 60));
  expect_refused(forged_disk(1000, 3, {{1, 1}, {2, 2}}));  // one stamp short
}

TEST(SnapshotCodec, LyingPageCountIsRefusedNotThrown) {
  std::vector<std::uint8_t> payload;
  push_u64(payload, 1);                         // epoch
  push_u64(payload, std::uint64_t{1} << 60);    // pages
  push_u64(payload, 7);                         // one gfn, no page bytes
  expect_refused(payload);
}

TEST(SnapshotCodec, OutOfOrderStampsAreRefused) {
  // Same sector twice, then a descending pair: neither could come from a
  // disk enumerated in sector order.
  std::vector<std::uint8_t> repeated = forged_disk(1000, 2);
  push_u64(repeated, 5);
  push_u64(repeated, 1);
  push_u64(repeated, 5);
  push_u64(repeated, 2);
  expect_refused(repeated);
  std::vector<std::uint8_t> descending = forged_disk(1000, 2);
  push_u64(descending, 7);
  push_u64(descending, 1);
  push_u64(descending, 3);
  push_u64(descending, 2);
  expect_refused(descending);
}

TEST(SnapshotCodec, StampsAtOrPastTheDiskEndAreRefused) {
  expect_refused(forged_disk(1000, 1, {{1000, 1}}));
  expect_refused(forged_disk(1000, 1, {{~std::uint64_t{0}, 1}}));
  expect_refused(forged_disk(0, 1, {{0, 1}}));
  // The last sector itself is fine.
  const Expected<DurableStore::Snapshot> last =
      decode_snapshot(frame_snapshot(forged_disk(1000, 1, {{999, 4}})));
  ASSERT_TRUE(last.ok()) << last.status().message();
  EXPECT_EQ((*last).disk.read_stamp(999), 4u);
}

// --- The sharded writer -------------------------------------------------------

// Every split of a buffer that spans three-way kernel blocks and a tail:
// the CRCs of the two parts, combined, equal the one-shot CRC; and so does
// a three-part split of every shorter prefix.
TEST(Crc32c, CombineMatchesOneShot) {
  constexpr std::size_t kLength = 3 * 1360 + 17;
  std::vector<std::uint8_t> data(kLength);
  sim::Rng rng(41);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(256));
  const std::span<const std::uint8_t> all(data);
  const std::uint32_t whole = common::crc32c(all);
  for (std::size_t split = 0; split <= kLength; ++split) {
    ASSERT_EQ(common::crc32c_combine(common::crc32c(all.first(split)),
                                     common::crc32c(all.subspan(split)),
                                     kLength - split),
              whole)
        << "split at " << split;
  }
  for (std::size_t length = 0; length <= kLength; ++length) {
    const std::size_t a = length / 3;
    const std::size_t b = length - a - length / 5;
    std::uint32_t crc = common::crc32c(all.first(a));
    crc = common::crc32c_combine(crc, common::crc32c(all.subspan(a, b - a)),
                                 b - a);
    crc = common::crc32c_combine(
        crc, common::crc32c(all.subspan(b, length - b)), length - b);
    ASSERT_EQ(crc, common::crc32c(all.first(length))) << "length " << length;
  }
}

// Images of 4,096 pages or more shard; each case is written serially and at
// 2, 3, 4 and 8 shards on a 4-worker pool, and every record must be the
// serial one byte for byte (and decode).
TEST(SnapshotCodec, ShardedWriterMatchesSerialBytes) {
  constexpr std::uint64_t kChunk = hv::VirtualDisk::kChunkSectors;
  constexpr std::uint64_t kPages = 4096 + 37;
  sim::Simulation sim;
  MigratorPool pool(sim, 4);
  const MigratorPool::ClientId client = pool.register_client("snapshot", 8);

  struct Case {
    const char* name;
    std::uint64_t page_stride;  // 0: no page written
    bool back_zero_pages;       // back some pages that hold only zeros
    std::vector<hv::DiskWrite> writes;
  };
  sim::Rng rng(5);
  std::vector<hv::DiskWrite> sparse;
  for (const std::uint64_t chunk : {0u, 3u, 4u, 9u, 30u}) {
    for (int i = 0; i < 5; ++i) {
      sparse.push_back({.sector = chunk * kChunk + rng.uniform(kChunk),
                        .sectors = 1 + static_cast<std::uint32_t>(rng.uniform(3)),
                        .stamp = rng.uniform(1u << 20)});
    }
  }
  const std::vector<Case> cases = {
      {"empty disk", 7, false, {}},
      {"sparse chunks", 3, false, sparse},
      {"full words", 11, false,
       {{.sector = 0, .sectors = 3 * kChunk + 128, .stamp = 9},
        {.sector = 5 * kChunk + 64, .sectors = 64, .stamp = 1},
        {.sector = 5 * kChunk + 200, .sectors = 3, .stamp = 0}}},
      {"all-zero image", 0, true, sparse},
      {"one chunk", 1, false, {{.sector = 10, .sectors = 100, .stamp = 2}}},
  };
  for (const Case& c : cases) {
    hv::GuestMemory memory(kPages, 1);
    std::vector<std::uint8_t> page(common::kPageSize);
    if (c.page_stride != 0) {
      for (common::Gfn g = 0; g < kPages; g += c.page_stride) {
        for (auto& b : page) b = static_cast<std::uint8_t>(rng.uniform(256));
        memory.install_page(g, page);
      }
    }
    if (c.back_zero_pages) {
      for (common::Gfn g = 0; g < kPages; g += 13) {
        std::fill(memory.page_mut(g).begin(), memory.page_mut(g).end(), 0);
      }
    }
    hv::VirtualDisk disk(64 * kChunk);
    for (const hv::DiskWrite& w : c.writes) disk.apply(w);
    const SnapshotSegment serial = encode_snapshot(3, memory, disk);
    ASSERT_TRUE(decode_snapshot(serial).ok()) << c.name;
    for (const std::uint32_t p : {2u, 3u, 4u, 8u}) {
      const std::uint64_t before = pool.client_stats(client).commit_shards_run;
      SnapshotSegment sharded;
      encode_snapshot_into(sharded, 3, memory, disk, {&pool, client, p});
      EXPECT_EQ(bytes(sharded), bytes(serial)) << c.name << ", " << p << " shards";
      EXPECT_EQ(pool.client_stats(client).commit_shards_run, before + 2 * p)
          << c.name << ": a scan and a write pass per shard";
    }
  }
}

// Below 4,096 pages the writer stays on the caller's thread.
TEST(SnapshotCodec, SmallImageWritesOnTheCallersThread) {
  sim::Simulation sim;
  MigratorPool pool(sim, 4);
  const MigratorPool::ClientId client = pool.register_client("snapshot", 4);
  const Image image(4095, 5, 500);
  SnapshotSegment sharded;
  encode_snapshot_into(sharded, 1, image.memory, image.disk, {&pool, client, 4});
  EXPECT_EQ(bytes(sharded), bytes(encode_snapshot(1, image.memory, image.disk)));
  EXPECT_EQ(pool.client_stats(client).commit_shards_run, 0u);
}

}  // namespace
}  // namespace here::rep
