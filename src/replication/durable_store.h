// Durable replica state: snapshot + write-ahead log for fast rejoin.
//
// Losing the secondary used to erase every committed epoch: the only way
// back to protection was a full N-page reseed, doubling the exposure window
// the paper's Algorithm 1 works to minimize. This layer persists the
// replica's committed image to (modelled) local storage so a crashed
// secondary recovers *locally* and resyncs only what actually diverged:
//
//   * DurableStore   — two byte segments modelling the secondary's disk:
//                      a snapshot segment (full committed image at some
//                      epoch) and a WAL segment (one CRC-sealed record per
//                      committed epoch since that snapshot). Rotation is
//                      atomic: a fresh snapshot is serialized to the side
//                      and swapped in before the WAL is cleared. The side
//                      buffer is the caller's: write_snapshot hands the
//                      retired segment back, and ReplicaStaging keeps it as
//                      the spare its next rotation writes into, so a steady
//                      rotation allocates and faults in nothing.
//   * RecoveryManager — replays the WAL onto the latest snapshot through
//                      the normal verified-frame staging path (expect_epoch /
//                      receive_frame / commit), so every integrity check the
//                      live wire path enforces — CRC, rolling digest,
//                      refuse-before-apply decode — guards recovery too. A
//                      torn or truncated tail stops replay at the last
//                      intact record (valid-prefix recovery).
//
// Record framing (little-endian, all segments):
//
//   [u32 magic 'HDS1'] [u32 kind] [u64 payload_len] [payload] [u32 crc32c]
//
// kind 1 = snapshot: epoch, non-zero pages (gfn + 4 KiB bytes, ascending
// gfn), disk geometry and stamps (ascending sector). kind 2 = WAL epoch:
// epoch header fields, the epoch's verified frames in seq order, the
// epoch's disk writes, and the per-region digests of every region the
// commit touched — replay cross-checks these against the recovered image
// with the same digests PR 3's scrubber uses.
//
// Everything here is deterministic byte manipulation on in-memory segments
// (the simulated secondary's disk); fault injection corrupts or truncates
// the WAL tail byte-exactly (FaultType::kWalTornWrite / kWalTruncation).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "common/status.h"
#include "common/units.h"
#include "hv/disk.h"
#include "replication/migrator_pool.h"
#include "replication/wire.h"

namespace here::hv {
class GuestMemory;
}  // namespace here::hv

namespace here::rep {

class ReplicaStaging;

// An allocator whose construct() without arguments default-initializes, so
// a byte vector grows without a zero-filling pass. The snapshot writer
// overwrites every byte it sizes; zeroing them first would touch each page
// twice.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>& /*other*/) noexcept {}
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

// One framed snapshot record (encode_snapshot, DurableStore::write_snapshot).
using SnapshotSegment = std::vector<std::uint8_t, DefaultInitAllocator<std::uint8_t>>;

// One committed epoch, as captured by ReplicaStaging::commit() immediately
// before its transient state is cleared. `region_digests` holds the
// post-commit digest of every region the epoch touched, ascending by region.
struct WalRecord {
  std::uint64_t epoch = 0;
  std::uint16_t version = wire::kWireVersionRaw;
  std::uint64_t header_digest = 0;
  std::vector<wire::RegionFrame> frames;  // seq order
  std::vector<hv::DiskWrite> disk_writes;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> region_digests;
};

struct DurableStoreConfig {
  // WAL records accumulated before the store rotates to a fresh snapshot.
  std::uint32_t snapshot_interval_epochs = 8;
};

class DurableStore {
 public:
  struct Stats {
    std::uint64_t wal_appends = 0;     // WAL records written
    std::uint64_t snapshots = 0;       // snapshot segments written
    std::uint64_t bytes_appended = 0;  // total bytes serialized (both kinds)
  };

  // Parsed snapshot segment (read_snapshot / decode_snapshot).
  struct Snapshot {
    std::uint64_t epoch = 0;
    std::vector<std::pair<common::Gfn, std::vector<std::uint8_t>>> pages;
    hv::VirtualDisk disk;  // geometry and every recorded stamp
  };

  // Parsed WAL segment: the valid prefix, plus whether a damaged suffix was
  // left behind (torn write, truncation, bit rot).
  struct Log {
    std::vector<WalRecord> records;
    bool damaged_tail = false;
    std::uint64_t bytes_read = 0;
  };

  explicit DurableStore(DurableStoreConfig config = {});

  [[nodiscard]] const DurableStoreConfig& config() const { return config_; }

  // --- Write path (ReplicaStaging::commit) -----------------------------------

  // Serializes the full committed image as a fresh snapshot segment into
  // `spare` and clears the WAL, then returns the retired segment (atomic
  // rotation: the old snapshot stays in place until the new one is fully
  // serialized and sealed, and the swap happens under the lock). A caller
  // that rotates again — ReplicaStaging::commit — passes the returned
  // segment back as the next `spare`, so the rotation reuses its capacity;
  // a one-off snapshot (the seed commit, a rejoin's post-recovery snapshot)
  // passes nothing and drops the return. The store itself keeps no spare:
  // it outlives the staging through a rejoin and a failover, and a spare
  // there would stack on those phases' memory.
  // `shards` runs the serialization on the pool (encode_snapshot_into); the
  // lock is taken only for the swap, never across the pool.
  SnapshotSegment write_snapshot(std::uint64_t epoch,
                                 const hv::GuestMemory& memory,
                                 const hv::VirtualDisk& disk,
                                 SnapshotSegment spare = {},
                                 const PoolShards& shards = {});

  // Appends one committed epoch to the WAL. The caller checks
  // rotation_due() afterwards and, if set, follows up with write_snapshot —
  // the store cannot reach the image itself.
  void append_epoch(const WalRecord& record);

  [[nodiscard]] bool rotation_due() const;

  // --- Read path (RecoveryManager) -------------------------------------------

  // kNotFound when no snapshot was ever written; kDataLoss when the
  // snapshot segment fails its CRC or framing checks (nothing to recover
  // onto — the caller falls back to a full reseed).
  [[nodiscard]] Expected<Snapshot> read_snapshot() const;

  // Valid-prefix WAL read: parses records until the first damaged one.
  [[nodiscard]] Log read_log() const;

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::uint64_t snapshot_bytes() const;
  [[nodiscard]] std::uint64_t wal_record_count() const;

  // --- Fault injection (src/faults drives these) ------------------------------

  // XOR-corrupts the last `bytes` of the WAL segment (a torn write: the
  // record framing survives but the CRC no longer matches).
  void damage_wal_tail(std::uint64_t bytes);

  // Drops the last `bytes` of the WAL segment (power cut mid-append).
  void truncate_wal_tail(std::uint64_t bytes);

 private:

  // Serializes the frame/commit write path against the recovery read path
  // and the fault hooks. Ranked above rep.staging_commit (300): the store is
  // invoked from inside ReplicaStaging::commit() with commit_mu_ held.
  mutable common::RankedMutex mu_{common::LockRank::kDurableStore,
                                  "rep.durable_store"};

  DurableStoreConfig config_;
  SnapshotSegment snapshot_seg_;
  std::vector<std::uint8_t> wal_seg_;
  std::uint64_t wal_records_ = 0;
  Stats stats_;
};

// --- Snapshot codec ------------------------------------------------------------
//
// Pure functions over one framed kind-1 record; DurableStore::write_snapshot
// and read_snapshot add only the segment rotation and the lock.

// Serializes the committed image as one framed snapshot record into
// `record`, resized to exactly the record's length (non-zero pages plus
// written stamps) without zero-filling. Every byte of the new length is
// written, so nothing of what the buffer held before survives. A buffer
// whose capacity is too small is released before the new allocation, so a
// rotation never holds more than the live segment and this one. The record
// CRC is folded over each piece — header fields, a page, a run of stamps —
// right after it is written, while it is still in cache, instead of in a
// second pass over the record.
//
// An image of 4,096 pages or more is written in `shards.count` shards on
// the pool: shard w scans and copies a contiguous gfn range and serializes
// a contiguous range of disk chunks, each placed by the counts of the
// ranges before it, and CRCs its own bytes; common::crc32c_combine joins
// the CRCs in record order. The record is byte-identical whatever the
// shard count.
void encode_snapshot_into(SnapshotSegment& record, std::uint64_t epoch,
                          const hv::GuestMemory& memory,
                          const hv::VirtualDisk& disk,
                          const PoolShards& shards = {});

// encode_snapshot_into a fresh buffer.
[[nodiscard]] SnapshotSegment encode_snapshot(std::uint64_t epoch,
                                              const hv::GuestMemory& memory,
                                              const hv::VirtualDisk& disk);

// Parses one framed snapshot record. Untrusted bytes: every failure is a
// typed kDataLoss, never a throw. Counts never size an allocation beyond
// what the bytes could hold, and disk stamps must name strictly ascending
// sectors below the recorded disk size.
[[nodiscard]] Expected<DurableStore::Snapshot> decode_snapshot(
    std::span<const std::uint8_t> segment);

// --- WAL codec ---------------------------------------------------------------
//
// Appends `record` to `segment` as one framed kind-2 record, sized up front
// and written in place. Returns the bytes appended. DurableStore::append_epoch
// adds only the lock and the counters; read_log parses what this writes.
std::uint64_t append_wal_record(std::vector<std::uint8_t>& segment,
                                const WalRecord& record);

// Outcome of RecoveryManager::recover.
struct RecoveryResult {
  std::uint64_t snapshot_epoch = 0;
  std::uint64_t recovered_epoch = 0;   // committed epoch after replay
  std::uint64_t wal_records_replayed = 0;
  std::uint64_t wal_records_refused = 0;  // damaged tail / digest mismatch
  std::uint64_t pages_restored = 0;       // snapshot pages installed
  std::uint64_t bytes_read = 0;           // snapshot + WAL bytes parsed
};

// Replays snapshot + WAL into a *fresh* ReplicaStaging at secondary
// startup. The staging must not have a durable store attached yet (the
// engine attaches it — and writes a post-recovery snapshot — only after
// recovery succeeds, so replay never feeds back into the log).
class RecoveryManager {
 public:
  explicit RecoveryManager(const DurableStore& store) : store_(store) {}

  // kNotFound / kDataLoss from the snapshot read mean local recovery is
  // impossible and the caller must full-reseed. A damaged WAL *tail* is not
  // an error: replay stops at the last intact record and the divergence is
  // repaired by the engine's digest-diff resync.
  //
  // `up_to_epoch` bounds the replay for point-in-time restore
  // (ProtectionManager::restore_to_epoch): records above it are skipped
  // (valid-prefix semantics still apply below the bound). Asking for an
  // epoch older than the snapshot itself is kFailedPrecondition — the store
  // rotated past it and the bytes no longer exist.
  [[nodiscard]] Expected<RecoveryResult> recover(
      ReplicaStaging& staging,
      std::uint64_t up_to_epoch =
          std::numeric_limits<std::uint64_t>::max()) const;

 private:
  const DurableStore& store_;
};

}  // namespace here::rep
