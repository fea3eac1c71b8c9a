// Replica-side checkpoint staging.
//
// The replica never applies incoming pages directly to its VM image: an
// epoch's verified frames are staged and applied atomically when the whole
// checkpoint has arrived (then ACKed). If the primary dies mid-transfer the
// partial epoch is discarded and the replica activates the last *committed*
// checkpoint — the rollback property of asynchronous state replication.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "common/status.h"
#include "hv/disk.h"
#include "hv/guest_memory.h"
#include "hv/guest_program.h"
#include "hv/hypervisor.h"
#include "hv/types.h"
#include "replication/durable_store.h"
#include "replication/migrator_pool.h"
#include "replication/time_model.h"
#include "replication/wire.h"

namespace here::rep {

// Outcome of offering one wire frame to the staging area.
enum class FrameVerdict : std::uint8_t {
  kOk,          // verified and staged (also: a retransmit that repaired)
  kDuplicate,   // seq already verified this epoch; ignored
  kCorrupt,     // CRC/length/geometry check failed; region queued for
                // retransmission
  kWrongEpoch,  // frame does not belong to the open epoch; ignored
};

class ReplicaStaging {
 public:
  // `workers` caps the shards commit(), its snapshot rotation and
  // adopt_recovered() run on once a pool is attached (attach_pool). Without
  // a pool, everything runs on the caller's thread, whatever `workers` is.
  ReplicaStaging(const hv::VmSpec& spec, std::uint32_t workers);

  // Runs the commit's verify and apply, the region references and the
  // durable snapshot writer on `shards` (the count capped at `workers`):
  // worker w owns regions w, w + P, and so on. The engine attaches its pool
  // client when it builds the staging and re-attaches each epoch's grant.
  void attach_pool(const PoolShards& shards) {
    pool_ = shards;
    pool_.count = std::clamp<std::uint32_t>(shards.count, 1, workers_);
  }

  [[nodiscard]] const hv::VmSpec& spec() const { return spec_; }
  [[nodiscard]] hv::GuestMemory& memory() { return memory_; }
  [[nodiscard]] const hv::GuestMemory& memory() const { return memory_; }

  // --- Seeding phase: pages land directly in the image -----------------------

  void install_seed_page(common::Gfn gfn, std::span<const std::uint8_t> bytes);
  // The same page of another image (GuestMemory::copy_page).
  void install_seed_page(common::Gfn gfn, const hv::GuestMemory& from);
  [[nodiscard]] std::uint64_t seeded_pages() const { return seeded_pages_; }

  // Clones the primary's full disk image (done at the seeding stop-and-copy
  // point, with the guest quiescent). Injected fault state does not travel:
  // the replica's mirror starts healthy even if the source disk is faulted.
  void seed_disk(hv::VirtualDisk source) {
    disk_ = std::move(source);
    disk_.clear_faults();
  }

  // --- Continuous phase: verified frames (checkpoint wire format) ------------
  //
  // The engine opens the epoch, announces its header, then offers frames as
  // they come off the interconnect (in any order — duplicates and reordering
  // are absorbed here). commit() refuses the epoch unless every expected
  // frame verified and the recomputed rolling digest matches the header.

  void begin_epoch(std::uint64_t epoch);

  // Highest wire version this replica's *build* can decode.
  [[nodiscard]] static constexpr std::uint16_t supported_wire_version() {
    return wire::kWireVersionEncoded;
  }

  // Highest wire version this replica *instance* advertises (rolling-upgrade
  // pinning: a v1-capable replica may rejoin a stream whose operator pinned
  // it to v0). The primary proposes min(its capability, this); frames above
  // it are NACKed by receive_frame, so an un-negotiated primary would loop —
  // which is why the engine consults this instead of the build capability.
  void set_advertised_wire_version(std::uint16_t version) {
    advertised_version_ = std::min(version, supported_wire_version());
  }
  [[nodiscard]] std::uint16_t advertised_wire_version() const {
    return advertised_version_;
  }

  // Arms integrity verification for the open epoch. Reset by begin_epoch /
  // abort_epoch.
  void expect_epoch(const wire::EpochHeader& header);
  [[nodiscard]] bool expectation_armed() const { return expectation_armed_; }

  // Verifies and stages one frame. A corrupt frame — damaged in flight, of
  // an undecodable version, or with a page outside its region or the VM —
  // marks its region for selective retransmission; a later intact frame with
  // the same seq repairs it (returns kOk).
  FrameVerdict receive_frame(const wire::RegionFrame& frame);

  // Regions whose frames failed verification and have not yet been repaired
  // (the NACK set the primary retransmits from).
  [[nodiscard]] const std::set<std::uint32_t>& corrupt_regions() const {
    return corrupt_regions_;
  }
  [[nodiscard]] std::uint64_t frames_verified() const { return frames_.size(); }

  // Disk writes issued by the guest during the open epoch; applied to the
  // replica disk atomically with the memory image at commit.
  void buffer_disk_writes(std::vector<hv::DiskWrite> writes);
  [[nodiscard]] const hv::VirtualDisk& disk() const { return disk_; }

  // Machine state / guest program snapshot accompanying the open epoch.
  void set_pending_state(std::unique_ptr<hv::SavedMachineState> state);
  void set_pending_program(std::unique_ptr<hv::GuestProgram> program);

  // Atomically applies the open epoch and returns pages applied (every gfn
  // of every frame). The commit is refused — nothing applied, kDataLoss —
  // when frames are missing or corrupt, the recomputed rolling digest
  // disagrees with the epoch header, or an encoded (version-1) page fails
  // verification: a delta/skip base hashed from the committed bytes
  // disagrees with the frame's `aux`, or a delta's records are malformed.
  // All of that is checked before anything is written. Then each gfn's last
  // writer (highest seq) lands straight in the image: raw and zero pages
  // through install_page, deltas XOR'd in place, skip pages untouched. Each
  // written page's digest is cached as it lands, and a skip page takes the
  // `aux` just verified against its bytes, so the region references only
  // fold. Without an armed header only a seed epoch commits: frames that
  // arrived with no header to verify them against are refused.
  //
  // With a pool attached, a large epoch (at least 512 pages landed across
  // at least 2 regions, its payload under half the landed bytes) and the
  // first commit's baseline (at least 512 backed pages to rehash, across at
  // least 2 regions) run in shards by region. Every shard verifies its
  // regions' frames before any shard applies; the refusal returned is the
  // lowest seq's, the same one the serial walk meets first. The epoch's
  // frames leave the staging under the lock, so no lock is held while the
  // pool runs.
  [[nodiscard]] Expected<std::uint64_t> commit();

  // Discards a partially received epoch (primary failed mid-checkpoint).
  void abort_epoch();

  [[nodiscard]] std::uint64_t committed_epoch() const { return committed_epoch_; }
  [[nodiscard]] bool has_committed() const { return committed_state_ != nullptr; }

  // --- Durability (src/replication/durable_store.h) ----------------------------

  // Attaches the secondary's durable store: every commit() appends the epoch
  // to the WAL (or rotates to a fresh snapshot) *before* returning — i.e.
  // before the engine acks the checkpoint. Null detaches; the store must
  // outlive the staging area.
  void attach_durable_store(DurableStore* store) { durable_ = store; }
  [[nodiscard]] DurableStore* durable_store() const { return durable_; }

  // Adopts a recovered image (RecoveryManager): marks `epoch` committed and
  // baselines every region digest off the just-installed pages. The machine
  // state is *not* recovered — has_committed() stays false until the first
  // post-rejoin commit delivers one — so protection is reduced, not restored,
  // until the primary's next checkpoint lands.
  void adopt_recovered(std::uint64_t epoch);
  [[nodiscard]] const hv::SavedMachineState* committed_state() const {
    return committed_state_.get();
  }
  // Transfers ownership of the committed program snapshot (failover).
  [[nodiscard]] std::unique_ptr<hv::GuestProgram> take_committed_program();

  // --- Scrub support -----------------------------------------------------------
  //
  // Per-region digests of the image as of the last commit. The background
  // scrubber compares these references against live_region_digest(); a
  // mismatch means the replica image diverged *after* commit (bit rot, stray
  // write) and the region needs a full re-send. A region digest is the
  // stream FNV-1a fold (common/fnv.h) of its pages' digests in gfn order; a
  // reference folds the digest each page had when a commit installed it, so
  // a later commit that touches other pages of a rotted region does not
  // absorb the rot.

  [[nodiscard]] std::uint32_t region_count() const;
  // Reference recorded at commit (0 before the first commit).
  [[nodiscard]] std::uint64_t committed_region_digest(std::uint32_t region) const;
  // Digest of the region's bytes as they are right now.
  [[nodiscard]] std::uint64_t live_region_digest(std::uint32_t region) const;

  // --- §8.7 accounting ---------------------------------------------------------

  // Largest frame payload staged for one epoch so far.
  [[nodiscard]] std::uint64_t peak_buffered_bytes() const { return peak_buffered_; }

 private:
  using FrameMap = std::map<std::uint64_t, wire::RegionFrame>;

  // Commit phase 1: checks every encoded page of `frames` against the
  // committed image, writing nothing; shard w checks the frames of the
  // regions it owns in seq order.
  [[nodiscard]] Status verify_encoded_frames(const FrameMap& frames,
                                             std::uint32_t shards) const;
  // Phase 1 for one frame.
  [[nodiscard]] Status verify_frame(std::uint64_t seq,
                                    const wire::RegionFrame& frame) const;
  // Commit phase 2 for shard w of `shards`: lands each gfn's last writer
  // among the frames of its regions, caching each landed page's digest.
  void apply_frames(const FrameMap& frames, std::uint32_t w,
                    std::uint32_t shards);
  // Recomputes one region's committed reference, refolding from the 8-page
  // group of the first page whose digest changed since the last refresh.
  void refresh_region_digest(std::uint32_t region);
  // Drops the cache of one region and re-references it from the bytes.
  void baseline_region(std::uint32_t region);
  // baseline_region for every region, sharded when at least 512 backed
  // pages span 2 or more regions.
  void baseline_region_digests();
  // Shards for work over `pages` pages in `regions` regions: the attached
  // count when both reach the sharding floor, else 1.
  [[nodiscard]] std::uint32_t shards_for(std::uint64_t pages,
                                         std::uint64_t regions) const;
  // Marks a page's cached digest stale and its region's fold from it.
  void invalidate_page(common::Gfn gfn);
  // Empties `frames`, keeping each frame's payload buffer in spare_payloads_.
  void recycle_frames(FrameMap& frames);

  // Serializes the epoch frame/commit path (receive_frame, commit,
  // begin/abort_epoch) against itself. Ranked so any future nesting against
  // the pool queue or PML rings is order-checked.
  mutable common::RankedMutex commit_mu_{common::LockRank::kStagingCommit,
                                         "rep.staging_commit"};

  hv::VmSpec spec_;
  std::uint32_t workers_;
  PoolShards pool_;
  hv::GuestMemory memory_;
  hv::VirtualDisk disk_;
  DurableStore* durable_ = nullptr;
  // The segment the store retired at the last rotation, which the next
  // rotation writes into. Held here, in the secondary's RAM, so it dies with
  // the staging on a crash; only commit()'s rotations pass it.
  SnapshotSegment snapshot_spare_;
  std::vector<hv::DiskWrite> pending_disk_writes_;
  std::uint64_t seeded_pages_ = 0;
  std::uint64_t open_epoch_ = 0;
  std::uint64_t committed_epoch_ = 0;
  std::unique_ptr<hv::SavedMachineState> pending_state_;
  std::unique_ptr<hv::SavedMachineState> committed_state_;
  std::unique_ptr<hv::GuestProgram> pending_program_;
  std::unique_ptr<hv::GuestProgram> committed_program_;
  std::uint64_t peak_buffered_ = 0;

  // Verified frame path. `frames_` is keyed by seq (ordered), so the digest
  // recomputation and page application both run in sequence order regardless
  // of arrival order.
  bool expectation_armed_ = false;
  std::uint16_t advertised_version_ = wire::kWireVersionEncoded;
  wire::EpochHeader expected_;
  FrameMap frames_;
  // Payload buffers of dropped frames, reused by the next epoch's frames.
  // Freeing a whole epoch's payloads at once lets the allocator hand them
  // back to the OS and fault them in again on the next epoch; whether it
  // does depends on where the heap's top lands, so wall time would vary
  // with the seed.
  std::vector<std::vector<std::uint8_t>> spare_payloads_;
  std::set<std::uint32_t> corrupt_regions_;
  // One reference per region, 0 until the first commit or adopt_recovered
  // baselines them all.
  std::vector<std::uint64_t> committed_region_digests_;
  bool references_baselined_ = false;
  // Per-page digest cache behind the region references: each entry is the
  // hv::page_digest of the page as a verified commit (or a baseline)
  // installed it. A commit fills the entries of the pages it lands; seed
  // installs clear the valid flag, and refresh_region_digest rehashes only
  // invalid entries, so a commit costs the pages it changed, not the 512 of
  // every region it touched.
  std::vector<std::uint64_t> page_digests_;
  std::vector<std::uint8_t> page_digest_valid_;
  // page_prefix_[j] is the region fold up to and including page 8j + 7
  // (groups of 8 pages never straddle a region), and fold_from_[r] the
  // first page of region r whose prefix is stale (the region's end when
  // none is). A refresh refolds from that page's group on, so one changed
  // page near a region's end costs a few folds, not 512. Like the valid
  // flags (bytes, not bits), every entry belongs to one region, so shards
  // owning distinct regions write distinct objects.
  std::vector<std::uint64_t> page_prefix_;
  std::vector<common::Gfn> fold_from_;
};

// --- Shared by failover and live migration ----------------------------------

// Saves `vm`'s machine state on `source` for a VM to be built on `target`,
// translated into `target`'s native format when the hypervisor kinds differ
// (translate on receive: activation needs no translation step). `cost`
// receives the modelled time: the saved state's bytes on the wire plus the
// per-vCPU translation.
[[nodiscard]] std::unique_ptr<hv::SavedMachineState> stage_machine_state(
    const TimeModel& model, const hv::Hypervisor& source, const hv::Vm& vm,
    const hv::Hypervisor& target, sim::Duration& cost);

// Builds a VM on `target` from a staged image: created from the staged spec,
// with the image's non-zero pages (a fresh VM's frames are already zeroed),
// its disk, `state` and `program` (may be null). The VM is not started.
hv::Vm& activate_staged_image(hv::Hypervisor& target,
                              const ReplicaStaging& staging,
                              const hv::SavedMachineState& state,
                              std::unique_ptr<hv::GuestProgram> program);

}  // namespace here::rep
