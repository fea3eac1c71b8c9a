#include "replication/durable_store.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <string>

#include "common/crc32c.h"
#include "hv/guest_memory.h"
#include "replication/staging.h"

namespace here::rep {

namespace {

using common::kPageSize;

constexpr std::uint32_t kRecordMagic = 0x31534448;  // 'HDS1' little-endian
constexpr std::uint32_t kKindSnapshot = 1;
constexpr std::uint32_t kKindWalEpoch = 2;
// Framing overhead around every payload: magic + kind + len + crc.
constexpr std::uint64_t kRecordOverhead = 4 + 4 + 8 + 4;
// Smallest serialized WAL frame: seq, region, version, the gfn and meta
// counts, the payload length and the crc, with no gfns, metas or bytes.
constexpr std::size_t kMinFrameBytes = 8 + 4 + 2 + 4 + 4 + 8 + 4;
// One page's meta in a WAL frame: encoding, length, aux.
constexpr std::size_t kPageMetaBytes = 1 + 4 + 8;
// The snapshot writer folds its CRC over the stamps it has written every
// 16 KiB (1,024 sector/stamp pairs): small enough to be read back from L1/L2.
constexpr std::ptrdiff_t kStampSealBytes = 16 << 10;
// Smallest image whose snapshot the writer shards across the pool. Below it
// the two dispatches cost more than the scan and copy they split.
constexpr std::uint64_t kShardedSnapshotPages = 4096;

// --- Little-endian serialization ---------------------------------------------

// Little-endian store through a cursor into a presized buffer (every record
// writer); returns the cursor past what it wrote. One word move on
// little-endian hosts: byte stores through a captured cursor defeat the
// compiler's store merging.
template <typename Word>
std::uint8_t* store_le(std::uint8_t* out, Word v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (i * 8));
    }
  }
  return out + sizeof v;
}

// Bounds-checked reader over one segment. Every get_* clears `ok` on
// underrun instead of reading past the end — a truncated tail parses as
// "damaged", never as garbage values.
struct Reader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;
  bool ok = true;

  [[nodiscard]] bool need(std::size_t n) {
    if (!ok || data.size() - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }
  [[nodiscard]] std::uint8_t get_u8() {
    if (!need(1)) return 0;
    return data[pos++];
  }
  [[nodiscard]] std::uint16_t get_u16() {
    if (!need(2)) return 0;
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v |= std::uint16_t{data[pos++]} << (i * 8);
    return v;
  }
  [[nodiscard]] std::uint32_t get_u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data[pos++]} << (i * 8);
    return v;
  }
  [[nodiscard]] std::uint64_t get_u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data[pos++]} << (i * 8);
    return v;
  }
  [[nodiscard]] std::span<const std::uint8_t> get_bytes(std::size_t n) {
    if (!need(n)) return {};
    const std::span<const std::uint8_t> s = data.subspan(pos, n);
    pos += n;
    return s;
  }
  [[nodiscard]] bool done() const { return ok && pos == data.size(); }
  // Caps a count read from the data at the items of `item_bytes` each that
  // the bytes left could hold, so a lying count never sizes an allocation.
  [[nodiscard]] std::size_t fit(std::uint64_t count, std::size_t item_bytes) const {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(count, (data.size() - pos) / item_bytes));
  }
};

// Pulls one framed record off `r`. Returns false — without advancing past
// recoverable state — when the framing or CRC is damaged.
bool next_record(Reader& r, std::uint32_t& kind,
                 std::span<const std::uint8_t>& payload) {
  if (r.get_u32() != kRecordMagic) return false;
  kind = r.get_u32();
  const std::uint64_t len = r.get_u64();
  payload = r.get_bytes(static_cast<std::size_t>(len));
  const std::uint32_t crc = r.get_u32();
  if (!r.ok) return false;
  return common::crc32c(payload) == crc;
}

std::uint64_t serialized_size(const wire::RegionFrame& frame) {
  return kMinFrameBytes + frame.gfns.size() * 8 +
         frame.pages.size() * kPageMetaBytes + frame.bytes.size();
}

std::uint8_t* store_frame(std::uint8_t* out, const wire::RegionFrame& frame) {
  out = store_le<std::uint64_t>(out, frame.seq);
  out = store_le<std::uint32_t>(out, frame.region);
  out = store_le<std::uint16_t>(out, frame.version);
  out = store_le<std::uint32_t>(
      out, static_cast<std::uint32_t>(frame.gfns.size()));
  for (const common::Gfn gfn : frame.gfns) {
    out = store_le<std::uint64_t>(out, gfn);
  }
  out = store_le<std::uint32_t>(
      out, static_cast<std::uint32_t>(frame.pages.size()));
  for (const wire::PageMeta& meta : frame.pages) {
    out = store_le<std::uint8_t>(out, static_cast<std::uint8_t>(meta.enc));
    out = store_le<std::uint32_t>(out, meta.length);
    out = store_le<std::uint64_t>(out, meta.aux);
  }
  out = store_le<std::uint64_t>(out, frame.bytes.size());
  out = std::copy(frame.bytes.begin(), frame.bytes.end(), out);
  return store_le<std::uint32_t>(out, frame.crc);
}

bool deserialize_frame(Reader& r, std::uint64_t epoch,
                       wire::RegionFrame& frame) {
  frame.epoch = epoch;
  frame.seq = r.get_u64();
  frame.region = r.get_u32();
  frame.version = r.get_u16();
  const std::uint32_t gfns = r.get_u32();
  if (!r.need(std::size_t{gfns} * 8)) return false;
  frame.gfns.reserve(gfns);
  for (std::uint32_t i = 0; i < gfns; ++i) frame.gfns.push_back(r.get_u64());
  const std::uint32_t metas = r.get_u32();
  if (!r.need(std::size_t{metas} * kPageMetaBytes)) return false;
  frame.pages.reserve(metas);
  for (std::uint32_t i = 0; i < metas; ++i) {
    wire::PageMeta meta;
    meta.enc = static_cast<wire::PageEncoding>(r.get_u8());
    meta.length = r.get_u32();
    meta.aux = r.get_u64();
    frame.pages.push_back(meta);
  }
  const std::uint64_t payload = r.get_u64();
  if (!r.need(static_cast<std::size_t>(payload))) return false;
  const std::span<const std::uint8_t> bytes =
      r.get_bytes(static_cast<std::size_t>(payload));
  frame.bytes.assign(bytes.begin(), bytes.end());
  frame.crc = r.get_u32();
  return r.ok;
}

}  // namespace

void encode_snapshot_into(SnapshotSegment& record, std::uint64_t epoch,
                          const hv::GuestMemory& memory,
                          const hv::VirtualDisk& disk,
                          const PoolShards& shards) {
  const std::uint64_t pages = memory.pages();
  const std::uint32_t p =
      pages >= kShardedSnapshotPages ? std::max<std::uint32_t>(1, shards.count)
                                     : 1;
  // Shard w owns gfns [pages * w / p, pages * (w + 1) / p) and disk chunks
  // [chunks * w / p, chunks * (w + 1) / p), so the record is p runs of pages
  // followed by p runs of stamps, each placed by the counts before it.
  const auto cut = [p](std::uint64_t n, std::uint32_t w) {
    return n * w / p;
  };
  // Fresh frames are zeroed at recovery, so only non-zero pages are stored,
  // and the record is sized from them. An unbacked page is zero unread.
  // Each list is sized here, so the workers allocate nothing.
  std::vector<std::vector<common::Gfn>> stored(p);
  for (std::uint32_t w = 0; w < p; ++w) {
    stored[w].reserve(cut(pages, w + 1) - cut(pages, w));
  }
  shards.run(p, MigratorPool::WorkKind::kCommit, [&](std::uint32_t w) {
    for (common::Gfn gfn = cut(pages, w); gfn < cut(pages, w + 1); ++gfn) {
      if (memory.backed(gfn) && !hv::is_zero_page(memory.page(gfn))) {
        stored[w].push_back(gfn);
      }
    }
  });
  std::uint64_t stored_pages = 0;
  for (const std::vector<common::Gfn>& run : stored) stored_pages += run.size();
  const std::uint64_t payload_len = 8 + 8 + stored_pages * (8 + kPageSize) +
                                    8 + 8 + disk.distinct_sectors() * 16;
  const std::uint64_t size = kRecordOverhead + payload_len;
  if (record.capacity() < size) SnapshotSegment().swap(record);
  record.resize(size);
  std::uint8_t* out = store_le<std::uint32_t>(record.data(), kRecordMagic);
  out = store_le<std::uint32_t>(out, kKindSnapshot);
  out = store_le<std::uint64_t>(out, payload_len);
  std::uint8_t* const payload = out;
  out = store_le<std::uint64_t>(out, epoch);
  out = store_le<std::uint64_t>(out, stored_pages);
  std::uint8_t* const first_page = out;
  std::uint8_t* const disk_header = first_page + stored_pages * (8 + kPageSize);
  out = store_le<std::uint64_t>(disk_header, disk.total_sectors());
  out = store_le<std::uint64_t>(out, disk.distinct_sectors());
  std::uint8_t* const first_stamp = out;
  std::uint8_t* const payload_end = payload + payload_len;

  // Where each shard's runs start. A chunk's stamps are placed by the
  // popcounts of the chunks before it; one shard needs no counts at all.
  const std::size_t chunks = disk.chunk_count();
  std::vector<std::uint8_t*> page_at(p + 1, disk_header);
  std::vector<std::uint8_t*> stamp_at(p + 1, payload_end);
  page_at[0] = first_page;
  stamp_at[0] = first_stamp;
  if (p > 1) {
    const std::vector<std::uint64_t> counts = disk.chunk_sector_counts();
    std::uint64_t sectors = 0;
    for (std::uint32_t w = 1; w < p; ++w) {
      page_at[w] = page_at[w - 1] + stored[w - 1].size() * (8 + kPageSize);
      for (std::size_t c = cut(chunks, w - 1); c < cut(chunks, w); ++c) {
        sectors += counts[c];
      }
      stamp_at[w] = first_stamp + sectors * 16;
    }
  }

  // Each shard CRCs the bytes it writes, right behind its cursor: shard 0's
  // page run also covers the epoch and page count, its stamp run the disk
  // geometry. crc32c_combine joins the 2p runs in record order.
  struct RunCrc {
    std::uint32_t crc = 0;
    std::uint64_t length = 0;
  };
  std::vector<RunCrc> runs(2 * std::size_t{p});
  shards.run(p, MigratorPool::WorkKind::kCommit, [&](std::uint32_t w) {
    std::uint32_t crc = common::crc32c_init();
    const std::uint8_t* sealed = w == 0 ? payload : page_at[w];
    const auto seal = [&crc, &sealed](const std::uint8_t* end) {
      crc = common::crc32c_update(
          crc, {sealed, static_cast<std::size_t>(end - sealed)});
      sealed = end;
    };
    std::uint8_t* cursor = page_at[w];
    for (const common::Gfn gfn : stored[w]) {
      cursor = store_le<std::uint64_t>(cursor, gfn);
      std::memcpy(cursor, memory.page(gfn).data(), kPageSize);
      cursor += kPageSize;
      seal(cursor);
    }
    seal(cursor);
    runs[w] = {common::crc32c_final(crc),
               static_cast<std::uint64_t>(cursor - (w == 0 ? payload : page_at[w]))};

    crc = common::crc32c_init();
    sealed = w == 0 ? disk_header : stamp_at[w];
    const std::uint8_t* const stamps_begin = sealed;
    cursor = stamp_at[w];
    disk.for_each_stamp(cut(chunks, w), cut(chunks, w + 1),
                        [&](std::uint64_t sector, std::uint64_t stamp) {
                          cursor = store_le<std::uint64_t>(cursor, sector);
                          cursor = store_le<std::uint64_t>(cursor, stamp);
                          if (cursor - sealed >= kStampSealBytes) seal(cursor);
                        });
    seal(cursor);
    runs[p + w] = {common::crc32c_final(crc),
                   static_cast<std::uint64_t>(cursor - stamps_begin)};
  });
  std::uint32_t crc = runs[0].crc;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    crc = common::crc32c_combine(crc, runs[i].crc, runs[i].length);
  }
  store_le<std::uint32_t>(payload_end, crc);
}

SnapshotSegment encode_snapshot(std::uint64_t epoch,
                                const hv::GuestMemory& memory,
                                const hv::VirtualDisk& disk) {
  SnapshotSegment record;
  encode_snapshot_into(record, epoch, memory, disk);
  return record;
}

std::uint64_t append_wal_record(std::vector<std::uint8_t>& segment,
                                const WalRecord& record) {
  std::uint64_t payload_len = 8 + 2 + 8 + 4 + 4 +
                              record.disk_writes.size() * (8 + 4 + 8) + 4 +
                              record.region_digests.size() * (4 + 8);
  for (const wire::RegionFrame& frame : record.frames) {
    payload_len += serialized_size(frame);
  }
  const std::size_t start = segment.size();
  segment.resize(start + kRecordOverhead + payload_len);
  std::uint8_t* out =
      store_le<std::uint32_t>(segment.data() + start, kRecordMagic);
  out = store_le<std::uint32_t>(out, kKindWalEpoch);
  out = store_le<std::uint64_t>(out, payload_len);
  std::uint8_t* const payload = out;
  out = store_le<std::uint64_t>(out, record.epoch);
  out = store_le<std::uint16_t>(out, record.version);
  out = store_le<std::uint64_t>(out, record.header_digest);
  out = store_le<std::uint32_t>(
      out, static_cast<std::uint32_t>(record.frames.size()));
  for (const wire::RegionFrame& frame : record.frames) {
    out = store_frame(out, frame);
  }
  out = store_le<std::uint32_t>(
      out, static_cast<std::uint32_t>(record.disk_writes.size()));
  for (const hv::DiskWrite& write : record.disk_writes) {
    out = store_le<std::uint64_t>(out, write.sector);
    out = store_le<std::uint32_t>(out, write.sectors);
    out = store_le<std::uint64_t>(out, write.stamp);
  }
  out = store_le<std::uint32_t>(
      out, static_cast<std::uint32_t>(record.region_digests.size()));
  for (const auto& [region, digest] : record.region_digests) {
    out = store_le<std::uint32_t>(out, region);
    out = store_le<std::uint64_t>(out, digest);
  }
  store_le<std::uint32_t>(
      out, common::crc32c({payload, static_cast<std::size_t>(payload_len)}));
  return kRecordOverhead + payload_len;
}

Expected<DurableStore::Snapshot> decode_snapshot(
    std::span<const std::uint8_t> segment) {
  Reader r{segment};
  std::uint32_t kind = 0;
  std::span<const std::uint8_t> payload;
  if (!next_record(r, kind, payload) || kind != kKindSnapshot) {
    return Status::data_loss("snapshot segment failed framing/CRC checks");
  }
  Reader p{payload};
  DurableStore::Snapshot snap;
  snap.epoch = p.get_u64();
  const std::uint64_t pages = p.get_u64();
  snap.pages.reserve(p.fit(pages, 8 + kPageSize));
  for (std::uint64_t i = 0; i < pages && p.ok; ++i) {
    const std::uint64_t gfn = p.get_u64();
    const std::span<const std::uint8_t> bytes = p.get_bytes(kPageSize);
    if (!p.ok) break;
    snap.pages.emplace_back(common::Gfn{gfn},
                            std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  }
  snap.disk = hv::VirtualDisk(p.get_u64());
  const std::uint64_t stamps = p.get_u64();
  std::uint64_t next_sector = 0;  // stamps are strictly ascending by sector
  for (std::uint64_t i = 0; i < stamps && p.ok; ++i) {
    const std::uint64_t sector = p.get_u64();
    const std::uint64_t stamp = p.get_u64();
    if (!p.ok) break;
    if (sector < next_sector || sector >= snap.disk.total_sectors()) {
      return Status::data_loss("snapshot disk stamp for sector " +
                               std::to_string(sector) +
                               " is out of order or past the disk end");
    }
    next_sector = sector + 1;
    snap.disk.restore_stamp(sector, stamp);
  }
  if (!p.done()) {
    return Status::data_loss("snapshot payload malformed");
  }
  return snap;
}

DurableStore::DurableStore(DurableStoreConfig config) : config_(config) {}

SnapshotSegment DurableStore::write_snapshot(std::uint64_t epoch,
                                             const hv::GuestMemory& memory,
                                             const hv::VirtualDisk& disk,
                                             SnapshotSegment spare,
                                             const PoolShards& shards) {
  encode_snapshot_into(spare, epoch, memory, disk, shards);
  std::lock_guard lock(mu_);
  // Atomic rotation: the fresh snapshot is fully serialized and CRC-sealed
  // before it replaces the old segment; only then is the WAL cleared.
  stats_.bytes_appended += spare.size();
  snapshot_seg_.swap(spare);
  wal_seg_.clear();
  wal_records_ = 0;
  ++stats_.snapshots;
  return spare;
}

void DurableStore::append_epoch(const WalRecord& record) {
  std::lock_guard lock(mu_);
  stats_.bytes_appended += append_wal_record(wal_seg_, record);
  ++wal_records_;
  ++stats_.wal_appends;
}

bool DurableStore::rotation_due() const {
  std::lock_guard lock(mu_);
  return wal_records_ >= config_.snapshot_interval_epochs;
}

Expected<DurableStore::Snapshot> DurableStore::read_snapshot() const {
  std::lock_guard lock(mu_);
  if (snapshot_seg_.empty()) {
    return Status::not_found("durable store holds no snapshot");
  }
  return decode_snapshot(snapshot_seg_);
}

DurableStore::Log DurableStore::read_log() const {
  std::lock_guard lock(mu_);
  Log log;
  Reader r{wal_seg_};
  while (r.ok && r.pos < wal_seg_.size()) {
    const std::size_t record_start = r.pos;
    std::uint32_t kind = 0;
    std::span<const std::uint8_t> payload;
    if (!next_record(r, kind, payload) || kind != kKindWalEpoch) {
      log.damaged_tail = true;
      r.pos = record_start;  // everything from here on is unusable
      break;
    }
    Reader p{payload};
    WalRecord record;
    record.epoch = p.get_u64();
    record.version = p.get_u16();
    record.header_digest = p.get_u64();
    const std::uint32_t frames = p.get_u32();
    bool record_ok = p.ok;
    record.frames.reserve(p.fit(frames, kMinFrameBytes));
    for (std::uint32_t i = 0; i < frames && record_ok; ++i) {
      wire::RegionFrame frame;
      record_ok = deserialize_frame(p, record.epoch, frame);
      if (record_ok) record.frames.push_back(std::move(frame));
    }
    const std::uint32_t writes = record_ok ? p.get_u32() : 0;
    for (std::uint32_t i = 0; i < writes && p.ok; ++i) {
      hv::DiskWrite write;
      write.sector = p.get_u64();
      write.sectors = p.get_u32();
      write.stamp = p.get_u64();
      record.disk_writes.push_back(write);
    }
    const std::uint32_t digests = record_ok && p.ok ? p.get_u32() : 0;
    for (std::uint32_t i = 0; i < digests && p.ok; ++i) {
      const std::uint32_t region = p.get_u32();
      const std::uint64_t digest = p.get_u64();
      record.region_digests.emplace_back(region, digest);
    }
    if (!record_ok || !p.done()) {
      log.damaged_tail = true;
      break;
    }
    log.bytes_read = r.pos;
    log.records.push_back(std::move(record));
  }
  if (log.damaged_tail) log.bytes_read = wal_seg_.size();
  return log;
}

DurableStore::Stats DurableStore::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::uint64_t DurableStore::snapshot_bytes() const {
  std::lock_guard lock(mu_);
  return snapshot_seg_.size();
}

std::uint64_t DurableStore::wal_record_count() const {
  std::lock_guard lock(mu_);
  return wal_records_;
}

void DurableStore::damage_wal_tail(std::uint64_t bytes) {
  std::lock_guard lock(mu_);
  const std::uint64_t n = std::min<std::uint64_t>(bytes, wal_seg_.size());
  for (std::uint64_t i = wal_seg_.size() - n; i < wal_seg_.size(); ++i) {
    wal_seg_[i] ^= 0xA5;
  }
}

void DurableStore::truncate_wal_tail(std::uint64_t bytes) {
  std::lock_guard lock(mu_);
  const std::uint64_t n = std::min<std::uint64_t>(bytes, wal_seg_.size());
  wal_seg_.resize(wal_seg_.size() - n);
}

Expected<RecoveryResult> RecoveryManager::recover(
    ReplicaStaging& staging, std::uint64_t up_to_epoch) const {
  Expected<DurableStore::Snapshot> snap = store_.read_snapshot();
  if (!snap.ok()) return snap.status();
  if ((*snap).epoch > up_to_epoch) {
    return Status::failed_precondition(
        "restore bound predates the snapshot: the store rotated past epoch " +
        std::to_string(up_to_epoch));
  }

  // Geometry first: a page past the image end refuses the whole snapshot
  // before anything is installed.
  for (const auto& [gfn, bytes] : (*snap).pages) {
    if (gfn >= staging.spec().pages) {
      return Status::data_loss(
          "snapshot page " + std::to_string(gfn) + " lies outside the " +
          std::to_string(staging.spec().pages) + "-page replica image");
    }
  }

  RecoveryResult result;
  result.snapshot_epoch = (*snap).epoch;
  result.bytes_read = store_.snapshot_bytes();
  for (const auto& [gfn, bytes] : (*snap).pages) {
    staging.install_seed_page(gfn, bytes);
    ++result.pages_restored;
  }
  staging.seed_disk(std::move((*snap).disk));
  staging.adopt_recovered((*snap).epoch);
  result.recovered_epoch = (*snap).epoch;

  const DurableStore::Log log = store_.read_log();
  result.bytes_read += log.bytes_read;
  if (log.damaged_tail) ++result.wal_records_refused;
  for (const WalRecord& record : log.records) {
    if (record.epoch <= staging.committed_epoch()) continue;  // pre-rotation
    if (record.epoch > up_to_epoch) break;  // point-in-time restore bound
    // Replay through the live verified-frame path: expectation + frame CRCs
    // + rolling digest + refuse-before-apply decode all re-run here.
    staging.begin_epoch(record.epoch);
    wire::EpochHeader header;
    header.epoch = record.epoch;
    header.frames = record.frames.size();
    header.digest = record.header_digest;
    header.version = record.version;
    staging.expect_epoch(header);
    bool frames_ok = true;
    for (const wire::RegionFrame& frame : record.frames) {
      if (staging.receive_frame(frame) != FrameVerdict::kOk) {
        frames_ok = false;
        break;
      }
    }
    if (frames_ok) staging.buffer_disk_writes(record.disk_writes);
    const Expected<std::uint64_t> applied =
        frames_ok ? staging.commit()
                  : Expected<std::uint64_t>(Status::data_loss(
                        "WAL frame failed verification at replay"));
    if (!applied.ok()) {
      staging.abort_epoch();
      ++result.wal_records_refused;
      break;  // later records may delta against the refused epoch
    }
    // The record's per-region digests were captured at the original commit;
    // the replayed image must agree region for region (same digest family
    // the background scrubber uses).
    bool digests_ok = true;
    for (const auto& [region, digest] : record.region_digests) {
      if (staging.committed_region_digest(region) != digest) {
        digests_ok = false;
        break;
      }
    }
    if (!digests_ok) {
      // The image no longer matches what was acked — stop here and let the
      // engine's digest-diff resync repair the divergence by delta.
      ++result.wal_records_refused;
      break;
    }
    result.recovered_epoch = record.epoch;
    ++result.wal_records_replayed;
  }
  return result;
}

}  // namespace here::rep
