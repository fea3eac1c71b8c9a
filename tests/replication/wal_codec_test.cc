// The durable WAL codec (append_wal_record / DurableStore::read_log):
//   * golden format — append_wal_record matches, byte for byte, a reference
//     serializer that pushes little-endian bytes one at a time, across raw
//     and encoded frames, a frame without pages or bytes, disk writes,
//     region digests and an empty record, and appends in place behind what
//     the segment already holds;
//   * round trip — records appended through DurableStore::append_epoch read
//     back field for field, with every byte accounted for.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/crc32c.h"
#include "replication/durable_store.h"

namespace here::rep {
namespace {

void push_le(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (i * 8)));
  }
}

// The reference serializer: one kind-2 record written byte by byte.
std::vector<std::uint8_t> reference_record(const WalRecord& record) {
  std::vector<std::uint8_t> payload;
  push_le(payload, record.epoch, 8);
  push_le(payload, record.version, 2);
  push_le(payload, record.header_digest, 8);
  push_le(payload, record.frames.size(), 4);
  for (const wire::RegionFrame& f : record.frames) {
    push_le(payload, f.seq, 8);
    push_le(payload, f.region, 4);
    push_le(payload, f.version, 2);
    push_le(payload, f.gfns.size(), 4);
    for (const common::Gfn gfn : f.gfns) push_le(payload, gfn, 8);
    push_le(payload, f.pages.size(), 4);
    for (const wire::PageMeta& m : f.pages) {
      push_le(payload, static_cast<std::uint8_t>(m.enc), 1);
      push_le(payload, m.length, 4);
      push_le(payload, m.aux, 8);
    }
    push_le(payload, f.bytes.size(), 8);
    for (const std::uint8_t b : f.bytes) payload.push_back(b);
    push_le(payload, f.crc, 4);
  }
  push_le(payload, record.disk_writes.size(), 4);
  for (const hv::DiskWrite& w : record.disk_writes) {
    push_le(payload, w.sector, 8);
    push_le(payload, w.sectors, 4);
    push_le(payload, w.stamp, 8);
  }
  push_le(payload, record.region_digests.size(), 4);
  for (const auto& [region, digest] : record.region_digests) {
    push_le(payload, region, 4);
    push_le(payload, digest, 8);
  }
  std::vector<std::uint8_t> out;
  push_le(out, 0x31534448, 4);  // 'HDS1'
  push_le(out, 2, 4);           // WAL epoch
  push_le(out, payload.size(), 8);
  out.insert(out.end(), payload.begin(), payload.end());
  push_le(out, common::crc32c(payload), 4);
  return out;
}

// A raw v0 frame, an encoded v1 frame and a frame with neither pages nor
// bytes, two disk writes (one at the last 64-bit sector) and two digests.
WalRecord full_record() {
  WalRecord r;
  r.epoch = 0x0102030405060708;
  r.version = wire::kWireVersionEncoded;
  r.header_digest = 0xfeedfacecafebeef;

  wire::RegionFrame raw;
  raw.seq = 0;
  raw.region = 3;
  raw.version = wire::kWireVersionRaw;
  raw.gfns = {1536, 1537};
  raw.bytes.assign(2 * common::kPageSize, 0);
  for (std::size_t i = 0; i < raw.bytes.size(); ++i) {
    raw.bytes[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  raw.crc = 0xa1b2c3d4;

  wire::RegionFrame encoded;
  encoded.seq = 1;
  encoded.region = 0xffffffff;
  encoded.version = wire::kWireVersionEncoded;
  encoded.gfns = {0, 9, ~common::Gfn{0}};
  encoded.pages = {{wire::PageEncoding::kZero, 0, 0},
                   {wire::PageEncoding::kDelta, 5, 0x1122334455667788},
                   {wire::PageEncoding::kSkip, 0, ~std::uint64_t{0}}};
  encoded.bytes = {0x10, 0x20, 0x30, 0x40, 0x50};
  encoded.crc = 0xffffffff;

  wire::RegionFrame empty;
  empty.seq = 2;
  empty.region = 7;

  r.frames = {raw, encoded, empty};
  r.disk_writes = {{.sector = 0, .sectors = 8, .stamp = 42},
                   {.sector = ~std::uint64_t{0}, .sectors = 0xffffffff,
                    .stamp = 0}};
  r.region_digests = {{0, 0x0123456789abcdef}, {3, 0}};
  return r;
}

void expect_equal_records(const WalRecord& got, const WalRecord& want) {
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.version, want.version);
  EXPECT_EQ(got.header_digest, want.header_digest);
  ASSERT_EQ(got.frames.size(), want.frames.size());
  for (std::size_t i = 0; i < want.frames.size(); ++i) {
    const wire::RegionFrame& g = got.frames[i];
    const wire::RegionFrame& w = want.frames[i];
    EXPECT_EQ(g.epoch, want.epoch) << "frame " << i;
    EXPECT_EQ(g.seq, w.seq) << "frame " << i;
    EXPECT_EQ(g.region, w.region) << "frame " << i;
    EXPECT_EQ(g.version, w.version) << "frame " << i;
    EXPECT_EQ(g.gfns, w.gfns) << "frame " << i;
    ASSERT_EQ(g.pages.size(), w.pages.size()) << "frame " << i;
    for (std::size_t p = 0; p < w.pages.size(); ++p) {
      EXPECT_EQ(g.pages[p].enc, w.pages[p].enc);
      EXPECT_EQ(g.pages[p].length, w.pages[p].length);
      EXPECT_EQ(g.pages[p].aux, w.pages[p].aux);
    }
    EXPECT_EQ(g.bytes, w.bytes) << "frame " << i;
    EXPECT_EQ(g.crc, w.crc) << "frame " << i;
  }
  ASSERT_EQ(got.disk_writes.size(), want.disk_writes.size());
  for (std::size_t i = 0; i < want.disk_writes.size(); ++i) {
    EXPECT_EQ(got.disk_writes[i].sector, want.disk_writes[i].sector);
    EXPECT_EQ(got.disk_writes[i].sectors, want.disk_writes[i].sectors);
    EXPECT_EQ(got.disk_writes[i].stamp, want.disk_writes[i].stamp);
  }
  EXPECT_EQ(got.region_digests, want.region_digests);
}

TEST(WalCodec, RecordMatchesReferenceBytes) {
  const WalRecord full = full_record();
  const WalRecord empty;
  std::vector<std::uint8_t> segment;
  const std::vector<std::uint8_t> full_ref = reference_record(full);
  EXPECT_EQ(append_wal_record(segment, full), full_ref.size());
  EXPECT_EQ(segment, full_ref);

  // A second record lands in place behind the first.
  const std::vector<std::uint8_t> empty_ref = reference_record(empty);
  EXPECT_EQ(append_wal_record(segment, empty), empty_ref.size());
  std::vector<std::uint8_t> both = full_ref;
  both.insert(both.end(), empty_ref.begin(), empty_ref.end());
  EXPECT_EQ(segment, both);
}

TEST(WalCodec, AppendedEpochsReadBackFieldForField) {
  DurableStore store;
  const WalRecord full = full_record();
  const WalRecord second = [] {
    WalRecord r = full_record();
    r.epoch += 1;
    r.frames.pop_back();
    r.region_digests.clear();
    return r;
  }();
  const WalRecord empty;
  for (const WalRecord* r : {&full, &second, &empty}) store.append_epoch(*r);

  const std::uint64_t bytes = reference_record(full).size() +
                              reference_record(second).size() +
                              reference_record(empty).size();
  EXPECT_EQ(store.stats().wal_appends, 3u);
  EXPECT_EQ(store.stats().bytes_appended, bytes);
  EXPECT_EQ(store.wal_record_count(), 3u);

  const DurableStore::Log log = store.read_log();
  EXPECT_FALSE(log.damaged_tail);
  EXPECT_EQ(log.bytes_read, bytes);
  ASSERT_EQ(log.records.size(), 3u);
  expect_equal_records(log.records[0], full);
  expect_equal_records(log.records[1], second);
  expect_equal_records(log.records[2], empty);
}

}  // namespace
}  // namespace here::rep
