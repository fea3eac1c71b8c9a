#include "replication/staging.h"

#include <algorithm>
#include <span>
#include <string>

#include "common/fnv.h"
#include "replication/durable_store.h"
#include "replication/encoder.h"
#include "xlate/translator.h"

namespace here::rep {

using common::kPageSize;

namespace {

// The sharding floor: an epoch shards only when it lands at least this many
// pages across at least two regions. Most fleet epochs land a few dozen
// pages in one frame, and sharding those cost more in dispatch than it
// saved (see ARCHITECTURE.md, "Replica commit on the pool").
constexpr std::uint64_t kShardMinPages = 512;

// Pages per stored prefix state of a region's fold. A refresh restarts at
// most 7 pages before the first changed one; a state per page cost
// `fleet100` 0.7 MB of peak RSS and about 2.5 % of its setup time.
constexpr std::uint64_t kPrefixPages = 8;

}  // namespace

ReplicaStaging::ReplicaStaging(const hv::VmSpec& spec, std::uint32_t workers)
    : spec_(spec),
      workers_(std::max<std::uint32_t>(1, workers)),
      memory_(spec.pages, spec.vcpus),
      committed_region_digests_(region_count(), 0),
      page_digests_(spec.pages, 0),
      page_digest_valid_(spec.pages, 0),
      page_prefix_(spec.pages / kPrefixPages, 0),
      fold_from_(region_count(), 0) {
  for (std::uint32_t r = 0; r < region_count(); ++r) {
    fold_from_[r] = std::uint64_t{r} * common::kPagesPerRegion;
  }
}

void ReplicaStaging::invalidate_page(common::Gfn gfn) {
  page_digest_valid_[gfn] = 0;
  common::Gfn& from = fold_from_[gfn / common::kPagesPerRegion];
  from = std::min(from, gfn);
}

void ReplicaStaging::install_seed_page(common::Gfn gfn,
                                       std::span<const std::uint8_t> bytes) {
  memory_.install_page(gfn, bytes);
  invalidate_page(gfn);
  ++seeded_pages_;
}

void ReplicaStaging::install_seed_page(common::Gfn gfn,
                                       const hv::GuestMemory& from) {
  memory_.copy_page(gfn, from);
  invalidate_page(gfn);
  ++seeded_pages_;
}

void ReplicaStaging::begin_epoch(std::uint64_t epoch) {
  std::lock_guard lock(commit_mu_);
  open_epoch_ = epoch;
  expectation_armed_ = false;
  expected_ = {};
  recycle_frames(frames_);
  corrupt_regions_.clear();
}

void ReplicaStaging::buffer_disk_writes(std::vector<hv::DiskWrite> writes) {
  pending_disk_writes_.insert(pending_disk_writes_.end(), writes.begin(),
                              writes.end());
}

void ReplicaStaging::set_pending_state(
    std::unique_ptr<hv::SavedMachineState> state) {
  pending_state_ = std::move(state);
}

void ReplicaStaging::set_pending_program(
    std::unique_ptr<hv::GuestProgram> program) {
  pending_program_ = std::move(program);
}

void ReplicaStaging::expect_epoch(const wire::EpochHeader& header) {
  std::lock_guard lock(commit_mu_);
  expectation_armed_ = true;
  expected_ = header;
}

FrameVerdict ReplicaStaging::receive_frame(const wire::RegionFrame& frame) {
  std::lock_guard lock(commit_mu_);
  if (frame.epoch != open_epoch_) return FrameVerdict::kWrongEpoch;
  if (frames_.contains(frame.seq)) return FrameVerdict::kDuplicate;
  // Version discipline: a frame beyond this replica's decoder, or one that
  // disagrees with the version the epoch header announced, can never decode
  // — NACK it like any other damage, as is a frame whose pages do not fit
  // its region or the VM (it would write outside the image or the region's
  // digest reference).
  const bool decodable =
      frame.version <= advertised_version_ &&
      (!expectation_armed_ || frame.version == expected_.version);
  const bool fits =
      frame.region < region_count() &&
      std::ranges::all_of(frame.gfns, [&](common::Gfn gfn) {
        return gfn < spec_.pages &&
               gfn / common::kPagesPerRegion == frame.region;
      });
  if (!decodable || !fits || !wire::frame_intact(frame)) {
    corrupt_regions_.insert(frame.region);
    return FrameVerdict::kCorrupt;
  }
  corrupt_regions_.erase(frame.region);
  wire::RegionFrame& kept = frames_[frame.seq];
  if (!spare_payloads_.empty()) {
    kept.bytes = std::move(spare_payloads_.back());
    spare_payloads_.pop_back();
  }
  kept = frame;  // copies the payload into the spare's capacity
  return FrameVerdict::kOk;
}

void ReplicaStaging::recycle_frames(FrameMap& frames) {
  for (auto& [seq, frame] : frames) {
    if (frame.bytes.capacity() > 0) {
      spare_payloads_.push_back(std::move(frame.bytes));
    }
  }
  frames.clear();
}

std::uint32_t ReplicaStaging::region_count() const {
  return static_cast<std::uint32_t>(
      (spec_.pages + common::kPagesPerRegion - 1) / common::kPagesPerRegion);
}

std::uint64_t ReplicaStaging::committed_region_digest(
    std::uint32_t region) const {
  if (region >= committed_region_digests_.size()) return 0;
  return committed_region_digests_[region];
}

std::uint32_t ReplicaStaging::shards_for(std::uint64_t pages,
                                         std::uint64_t regions) const {
  if (pages < kShardMinPages || regions < 2) return 1;
  return pool_.count;
}

namespace {

// The region digest of `pages` never-written pages.
constexpr std::uint64_t unbacked_region_digest(std::uint64_t pages) {
  std::uint64_t acc = common::kFnvStreamOffset;
  for (std::uint64_t i = 0; i < pages; ++i) {
    acc = common::fnv1a_u64(acc, hv::kZeroPageDigest);
  }
  return acc;
}

constexpr std::uint64_t kUnbackedRegionDigest =
    unbacked_region_digest(common::kPagesPerRegion);

}  // namespace

std::uint64_t ReplicaStaging::live_region_digest(std::uint32_t region) const {
  // The scrubber's audit: a full rehash of the bytes as they are now. A
  // region no byte was ever written to reads as zeros, so its digest is a
  // constant of its length, answered from the backed flags alone.
  const std::uint64_t first = std::uint64_t{region} * common::kPagesPerRegion;
  const std::uint64_t last =
      std::clamp<std::uint64_t>(spec_.pages, first,
                                first + common::kPagesPerRegion);
  if (!memory_.any_backed(first, last - first)) {
    return last - first == common::kPagesPerRegion
               ? kUnbackedRegionDigest
               : unbacked_region_digest(last - first);
  }
  std::uint64_t acc = common::kFnvStreamOffset;
  for (std::uint64_t gfn = first; gfn < last; ++gfn) {
    acc = common::fnv1a_u64(acc, memory_.page_digest(common::Gfn{gfn}));
  }
  return acc;
}

// detlint: verified-by(ReplicaStaging::commit)
// Only commit() (after the expectation/digest/verify refusals all pass) and
// adopt_recovered() (itself blessed by RecoveryManager::recover) reach this;
// the digest being folded is of pages that already survived verification.
// A commit caches the digest of each page it lands, so after a commit this
// only folds; it rehashes just the pages a seed or rejoin installed since
// the region's last refresh. Every other page contributes the digest it had
// when it landed, so bytes that changed after commit (rot, stray writes)
// never enter the reference. The fold restarts from the prefix state of the
// 8-page group before the first changed page's, which gives the same value
// as folding all 512.
void ReplicaStaging::refresh_region_digest(std::uint32_t region) {
  const std::uint64_t first = std::uint64_t{region} * common::kPagesPerRegion;
  const std::uint64_t last =
      std::min(first + common::kPagesPerRegion, spec_.pages);
  const std::uint64_t from = fold_from_[region];
  if (from >= last) return;  // no page changed since the last refresh
  const std::uint64_t start = from - from % kPrefixPages;
  std::uint64_t acc = start == first ? common::kFnvStreamOffset
                                     : page_prefix_[start / kPrefixPages - 1];
  for (std::uint64_t gfn = start; gfn < last; ++gfn) {
    if (page_digest_valid_[gfn] == 0) {
      page_digests_[gfn] = memory_.page_digest(common::Gfn{gfn});
      page_digest_valid_[gfn] = 1;
    }
    acc = common::fnv1a_u64(acc, page_digests_[gfn]);
    if ((gfn + 1) % kPrefixPages == 0) page_prefix_[gfn / kPrefixPages] = acc;
  }
  committed_region_digests_[region] = acc;
  fold_from_[region] = last;
}

void ReplicaStaging::baseline_region(std::uint32_t region) {
  const std::uint64_t first = std::uint64_t{region} * common::kPagesPerRegion;
  const std::uint64_t last =
      std::min(first + common::kPagesPerRegion, spec_.pages);
  std::fill(page_digest_valid_.begin() + static_cast<std::ptrdiff_t>(first),
            page_digest_valid_.begin() + static_cast<std::ptrdiff_t>(last), 0);
  fold_from_[region] = first;
  refresh_region_digest(region);
}

void ReplicaStaging::baseline_region_digests() {
  const std::uint32_t regions = region_count();
  const std::uint32_t p = shards_for(memory_.backed_pages(), regions);
  pool_.run(p, MigratorPool::WorkKind::kCommit, [&](std::uint32_t w) {
    for (std::uint32_t r = w; r < regions; r += p) baseline_region(r);
  });
  references_baselined_ = true;
}

Status ReplicaStaging::verify_encoded_frames(const FrameMap& frames,
                                             std::uint32_t shards) const {
  if (frames.empty()) return Status::ok_status();  // a seed commit
  // Shard w stops at its first refusal; the lowest seq among the shards'
  // refusals is the first one a walk over every frame in seq order meets.
  std::vector<std::pair<std::uint64_t, Status>> refusals(shards);
  pool_.run(shards, MigratorPool::WorkKind::kCommit, [&](std::uint32_t w) {
    for (const auto& [seq, frame] : frames) {
      if (frame.region % shards != w) continue;
      if (Status s = verify_frame(seq, frame); !s.ok()) {
        refusals[w] = {seq, std::move(s)};
        return;
      }
    }
  });
  const std::pair<std::uint64_t, Status>* first = nullptr;
  for (const auto& refusal : refusals) {
    if (!refusal.second.ok() && (first == nullptr || refusal.first < first->first)) {
      first = &refusal;
    }
  }
  return first == nullptr ? Status::ok_status() : first->second;
}

Status ReplicaStaging::verify_frame(std::uint64_t seq,
                                    const wire::RegionFrame& frame) const {
  if (frame.version == wire::kWireVersionRaw) return Status::ok_status();
  const auto refuse = [&](const std::string& why) {
    return Status::data_loss("epoch " + std::to_string(open_epoch_) +
                             ": frame seq " + std::to_string(seq) +
                             " refused: " + why);
  };
  std::size_t off = 0;
  for (std::size_t i = 0; i < frame.gfns.size(); ++i) {
    const common::Gfn gfn = frame.gfns[i];
    const wire::PageMeta& meta = frame.pages[i];
    switch (meta.enc) {
      case wire::PageEncoding::kRaw:
      case wire::PageEncoding::kZero:
        break;
      case wire::PageEncoding::kSkip:
        if (memory_.page_digest(gfn) != meta.aux) {
          return refuse("encoder: hash-skip base mismatch at gfn " +
                        std::to_string(gfn) +
                        " (committed image diverged from the primary's "
                        "reference)");
        }
        break;
      case wire::PageEncoding::kDelta:
        if (memory_.page_digest(gfn) != meta.aux) {
          return refuse("encoder: delta base stale at gfn " +
                        std::to_string(gfn) +
                        " (committed image diverged from the primary's "
                        "reference)");
        }
        if (const Status s =
                xor_rle_verify({frame.bytes.data() + off, meta.length});
            !s.ok()) {
          return refuse(s.message());
        }
        break;
      default:
        return refuse("encoder: unknown page encoding " +
                      std::to_string(static_cast<int>(meta.enc)));
    }
    off += meta.length;
  }
  return Status::ok_status();
}

// Only commit() reaches this, after the expectation, digest and
// verify_encoded_frames refusals all passed.
void ReplicaStaging::apply_frames(const FrameMap& frames, std::uint32_t w,
                                  std::uint32_t shards) {
  // Only each gfn's last writer lands: the highest seq, and within a frame
  // the later entry (a retransmit repeats its region under a higher seq).
  // Walking backwards, a gfn lands the first time it is met; the valid flag
  // of its digest cache entry, cleared for every gfn up front, marks it.
  // A frame's gfns all lie in its region, so the shards' pages are disjoint.
  for (const auto& [seq, frame] : frames) {
    if (frame.region % shards != w) continue;
    for (const common::Gfn gfn : frame.gfns) invalidate_page(gfn);
  }
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    const wire::RegionFrame& frame = it->second;
    if (frame.region % shards != w) continue;
    const bool encoded = frame.version != wire::kWireVersionRaw;
    std::size_t end = frame.bytes.size();
    for (std::size_t i = frame.gfns.size(); i-- > 0;) {
      const common::Gfn gfn = frame.gfns[i];
      const wire::PageEncoding enc =
          encoded ? frame.pages[i].enc : wire::PageEncoding::kRaw;
      const std::size_t length = encoded ? frame.pages[i].length : kPageSize;
      end -= length;
      if (page_digest_valid_[gfn] != 0) continue;  // a later writer landed
      const std::span<const std::uint8_t> payload{frame.bytes.data() + end,
                                                  length};
      // Each written page is hashed while it is in cache; a skip page keeps
      // its bytes, whose digest verify_encoded_frames matched to `aux`.
      switch (enc) {
        case wire::PageEncoding::kRaw:
          memory_.install_page(gfn, payload);
          break;
        case wire::PageEncoding::kZero:
          memory_.install_page(gfn, hv::kZeroPage);
          break;
        case wire::PageEncoding::kDelta:
          if (!payload.empty()) {
            xor_rle_apply_in_place(payload, memory_.page_mut(gfn));
          }
          break;
        case wire::PageEncoding::kSkip:
          break;
      }
      page_digests_[gfn] = enc == wire::PageEncoding::kSkip
                               ? frame.pages[i].aux
                               : memory_.page_digest(gfn);
      page_digest_valid_[gfn] = 1;
    }
  }
}

Expected<std::uint64_t> ReplicaStaging::commit() {
  // Under the lock: the header refusals, then the epoch's frames leave the
  // staging, so the pool phases below run with no lock held.
  FrameMap frames;
  std::uint64_t buffered = 0;
  bool log_epoch = false;
  WalRecord durable_record;
  {
    std::lock_guard lock(commit_mu_);
    for (const auto& [seq, frame] : frames_) buffered += frame.bytes.size();
    peak_buffered_ = std::max(peak_buffered_, buffered);
    if (!expectation_armed_ && !frames_.empty()) {
      return Status::data_loss("epoch " + std::to_string(open_epoch_) + ": " +
                               std::to_string(frames_.size()) +
                               " frame(s) arrived with no epoch header");
    }
    if (expectation_armed_) {
      // Refuse-before-apply: a rejected epoch leaves the committed image
      // untouched, exactly like an abort.
      if (!corrupt_regions_.empty()) {
        return Status::data_loss(
            "epoch " + std::to_string(open_epoch_) + ": " +
            std::to_string(corrupt_regions_.size()) +
            " region(s) failed verification and were not repaired");
      }
      if (frames_.size() != expected_.frames) {
        return Status::data_loss(
            "epoch " + std::to_string(open_epoch_) + ": received " +
            std::to_string(frames_.size()) + " of " +
            std::to_string(expected_.frames) + " frames");
      }
      std::uint64_t digest = wire::digest_init();
      for (const auto& [seq, frame] : frames_) {
        digest = wire::digest_fold(digest, frame);
      }
      if (digest != expected_.digest) {
        return Status::data_loss("epoch " + std::to_string(open_epoch_) +
                                 ": rolling digest mismatch");
      }
    }
    // Durable capture: a verified epoch is re-described as a WAL record; a
    // seed commit (no header) persists as a full snapshot. The record takes
    // the epoch header now and the frames and disk writes once the apply
    // below is done with them.
    log_epoch = durable_ != nullptr && expectation_armed_;
    if (log_epoch) {
      durable_record.epoch = open_epoch_;
      durable_record.version = expected_.version;
      durable_record.header_digest = expected_.digest;
    }
    frames.swap(frames_);
  }
  std::uint64_t applied = 0;
  std::set<std::uint32_t> touched;
  for (const auto& [seq, frame] : frames) {
    applied += frame.gfns.size();
    touched.insert(frame.region);
  }
  // The first commit baselines every region (covers the seeded image too)
  // and shards by the pages it rehashes: only backed ones are read. A raw
  // epoch (payload about its landed bytes) stays on the caller's thread,
  // which has just written that payload.
  const bool baseline = !references_baselined_;
  std::uint32_t p = 1;
  if (baseline) {
    p = shards_for(memory_.backed_pages(), region_count());
  } else if (buffered * 2 < applied * kPageSize) {
    p = shards_for(applied, touched.size());
  }
  // Phase 1, verify: every encoded page is checked against the committed
  // image before anything is applied. A delta/skip whose base hash
  // disagrees with the image (stale reference, post-commit rot) or a
  // malformed delta refuses the whole epoch — refuse-before-apply extends
  // to the encoder layer. The frames go back, as if never taken.
  if (const Status s = verify_encoded_frames(frames, p); !s.ok()) {
    std::lock_guard lock(commit_mu_);
    frames_.swap(frames);
    return s;
  }
  // Phase 2, apply: each gfn's last writer lands in place, and each shard
  // then refreshes the references of the regions it owns.
  pool_.run(p, MigratorPool::WorkKind::kCommit, [&](std::uint32_t w) {
    apply_frames(frames, w, p);
    if (baseline) {
      for (std::uint32_t r = w; r < region_count(); r += p) baseline_region(r);
      return;
    }
    for (const std::uint32_t r : touched) {
      if (r % p == w) refresh_region_digest(r);
    }
  });
  references_baselined_ = true;
  {
    std::lock_guard lock(commit_mu_);
    if (log_epoch) {
      durable_record.frames.reserve(frames.size());
      for (auto& [seq, frame] : frames) {
        durable_record.frames.push_back(std::move(frame));
      }
    }
    recycle_frames(frames);
    expectation_armed_ = false;
    expected_ = {};
    for (const auto& write : pending_disk_writes_) disk_.apply(write);
    if (log_epoch) durable_record.disk_writes = std::move(pending_disk_writes_);
    pending_disk_writes_.clear();
    if (pending_state_) committed_state_ = std::move(pending_state_);
    if (pending_program_) committed_program_ = std::move(pending_program_);
    committed_epoch_ = open_epoch_;
  }
  // Durable append before ack: the commit's return is what the engine acks,
  // so by the time the primary hears "committed" the epoch is on (modelled)
  // stable storage. Rotation folds the WAL into a fresh snapshot once
  // enough epochs accumulate; the snapshot writer shards on the pool.
  if (durable_ != nullptr) {
    if (log_epoch) {
      for (const std::uint32_t r : touched) {
        durable_record.region_digests.emplace_back(
            r, committed_region_digests_[r]);
      }
      durable_->append_epoch(durable_record);
      if (durable_->rotation_due()) {
        snapshot_spare_ = durable_->write_snapshot(
            committed_epoch_, memory_, disk_, std::move(snapshot_spare_),
            pool_);
      }
    } else {
      durable_->write_snapshot(committed_epoch_, memory_, disk_, {},
                               pool_);
    }
  }
  return applied;
}

void ReplicaStaging::abort_epoch() {
  std::lock_guard lock(commit_mu_);
  pending_disk_writes_.clear();
  pending_state_.reset();
  pending_program_.reset();
  expectation_armed_ = false;
  expected_ = {};
  recycle_frames(frames_);
  corrupt_regions_.clear();
}

std::unique_ptr<hv::GuestProgram> ReplicaStaging::take_committed_program() {
  return std::move(committed_program_);
}

// detlint: verified-by(RecoveryManager::recover)
// The recovery path is the only caller: the epoch adopted here comes from a
// CRC-checked snapshot, and every later WAL record replays through the full
// expect_epoch/receive_frame/commit verification stack before touching state.
void ReplicaStaging::adopt_recovered(std::uint64_t epoch) {
  {
    std::lock_guard lock(commit_mu_);
    open_epoch_ = epoch;
    committed_epoch_ = epoch;
  }
  // Baseline every region off the just-installed image so scrub comparisons
  // and WAL-replay digest checks have references to verify against. The
  // baseline may run on the pool, so the lock is not held across it.
  baseline_region_digests();
}

std::unique_ptr<hv::SavedMachineState> stage_machine_state(
    const TimeModel& model, const hv::Hypervisor& source, const hv::Vm& vm,
    const hv::Hypervisor& target, sim::Duration& cost) {
  std::unique_ptr<hv::SavedMachineState> saved = source.save_machine_state(vm);
  cost = model.wire_time(saved->wire_bytes());
  if (source.kind() == target.kind()) return saved;
  cost += TimeModel::kStateTranslatePerVcpu *
          static_cast<std::int64_t>(vm.cpus().size());
  return xlate::translate_machine_state(*saved, target);
}

hv::Vm& activate_staged_image(hv::Hypervisor& target,
                              const ReplicaStaging& staging,
                              const hv::SavedMachineState& state,
                              std::unique_ptr<hv::GuestProgram> program) {
  hv::Vm& vm = target.create_vm(staging.spec());
  for (common::Gfn g = 0; g < staging.memory().pages(); ++g) {
    vm.memory().copy_page(g, staging.memory());
  }
  target.disk(vm) = staging.disk();
  target.load_machine_state(vm, state);
  if (program != nullptr) vm.attach_program(std::move(program));
  return vm;
}

}  // namespace here::rep
