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

ReplicaStaging::ReplicaStaging(const hv::VmSpec& spec,
                               std::uint32_t /*workers*/)
    : spec_(spec),
      memory_(spec.pages, spec.vcpus),
      page_digests_(spec.pages, 0),
      page_digest_valid_(spec.pages, 0) {}

void ReplicaStaging::install_seed_page(common::Gfn gfn,
                                       std::span<const std::uint8_t> bytes) {
  memory_.install_page(gfn, bytes);
  page_digest_valid_[gfn] = 0;
  ++seeded_pages_;
}

void ReplicaStaging::install_seed_page(common::Gfn gfn,
                                       const hv::GuestMemory& from) {
  memory_.copy_page(gfn, from);
  page_digest_valid_[gfn] = 0;
  ++seeded_pages_;
}

void ReplicaStaging::begin_epoch(std::uint64_t epoch) {
  std::lock_guard lock(commit_mu_);
  open_epoch_ = epoch;
  expectation_armed_ = false;
  expected_ = {};
  drop_frames();
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

void ReplicaStaging::drop_frames() {
  for (auto& [seq, frame] : frames_) {
    if (frame.bytes.capacity() > 0) {
      spare_payloads_.push_back(std::move(frame.bytes));
    }
  }
  frames_.clear();
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
// never enter the reference.
void ReplicaStaging::refresh_region_digest(std::uint32_t region) {
  if (committed_region_digests_.size() < region_count()) {
    committed_region_digests_.resize(region_count(), 0);
  }
  std::uint64_t acc = common::kFnvStreamOffset;
  const std::uint64_t first = std::uint64_t{region} * common::kPagesPerRegion;
  const std::uint64_t last =
      std::min(first + common::kPagesPerRegion, spec_.pages);
  for (std::uint64_t gfn = first; gfn < last; ++gfn) {
    if (page_digest_valid_[gfn] == 0) {
      page_digests_[gfn] = memory_.page_digest(common::Gfn{gfn});
      page_digest_valid_[gfn] = 1;
    }
    acc = common::fnv1a_u64(acc, page_digests_[gfn]);
  }
  committed_region_digests_[region] = acc;
}

void ReplicaStaging::baseline_region_digests() {
  std::fill(page_digest_valid_.begin(), page_digest_valid_.end(), 0);
  for (std::uint32_t r = 0; r < region_count(); ++r) refresh_region_digest(r);
}

Status ReplicaStaging::verify_encoded_frames() const {
  for (const auto& [seq, frame] : frames_) {
    if (frame.version == wire::kWireVersionRaw) continue;
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
          if (const Status s = xor_rle_verify(
                  {frame.bytes.data() + off, meta.length});
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
  }
  return Status::ok_status();
}

// Only commit() reaches this, after the expectation, digest and
// verify_encoded_frames refusals all passed.
void ReplicaStaging::apply_frames() {
  // Only each gfn's last writer lands: the highest seq, and within a frame
  // the later entry (a retransmit repeats its region under a higher seq).
  // Walking backwards, a gfn lands the first time it is met; the valid flag
  // of its digest cache entry, cleared for every gfn up front, marks it.
  for (const auto& [seq, frame] : frames_) {
    for (const common::Gfn gfn : frame.gfns) page_digest_valid_[gfn] = 0;
  }
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    const wire::RegionFrame& frame = it->second;
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
  std::lock_guard lock(commit_mu_);
  std::uint64_t buffered = 0;
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
  // Phase 1, verify: every encoded page is checked against the committed
  // image before anything is applied. A delta/skip whose base hash
  // disagrees with the image (stale reference, post-commit rot) or a
  // malformed delta refuses the whole epoch — refuse-before-apply extends
  // to the encoder layer.
  if (const Status s = verify_encoded_frames(); !s.ok()) return s;
  // Durable capture: a verified epoch is re-described as a WAL record; a
  // seed commit (no header) persists as a full snapshot. The record takes
  // the epoch header now and the frames and disk writes once the apply
  // below is done with them.
  const bool log_epoch = durable_ != nullptr && expectation_armed_;
  WalRecord durable_record;
  if (log_epoch) {
    durable_record.epoch = open_epoch_;
    durable_record.version = expected_.version;
    durable_record.header_digest = expected_.digest;
  }
  std::uint64_t applied = 0;
  std::set<std::uint32_t> touched;
  for (const auto& [seq, frame] : frames_) {
    applied += frame.gfns.size();
    touched.insert(frame.region);
  }
  // Phase 2, apply: each gfn's last writer lands in place.
  apply_frames();
  if (log_epoch) {
    durable_record.frames.reserve(frames_.size());
    for (auto& [seq, frame] : frames_) {
      durable_record.frames.push_back(std::move(frame));
    }
  }
  drop_frames();
  expectation_armed_ = false;
  expected_ = {};
  for (const auto& write : pending_disk_writes_) disk_.apply(write);
  if (log_epoch) durable_record.disk_writes = std::move(pending_disk_writes_);
  pending_disk_writes_.clear();
  if (pending_state_) committed_state_ = std::move(pending_state_);
  if (pending_program_) committed_program_ = std::move(pending_program_);
  committed_epoch_ = open_epoch_;
  if (committed_region_digests_.empty()) {
    // First commit: baseline every region (covers the seeded image too).
    baseline_region_digests();
  } else {
    for (const std::uint32_t r : touched) refresh_region_digest(r);
  }
  // Durable append before ack: the commit's return is what the engine acks,
  // so by the time the primary hears "committed" the epoch is on (modelled)
  // stable storage. Rotation folds the WAL into a fresh snapshot once
  // enough epochs accumulate.
  if (durable_ != nullptr) {
    if (log_epoch) {
      for (const std::uint32_t r : touched) {
        durable_record.region_digests.emplace_back(
            r, committed_region_digests_[r]);
      }
      durable_->append_epoch(durable_record);
      if (durable_->rotation_due()) {
        snapshot_spare_ = durable_->write_snapshot(
            committed_epoch_, memory_, disk_, std::move(snapshot_spare_));
      }
    } else {
      durable_->write_snapshot(committed_epoch_, memory_, disk_);
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
  drop_frames();
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
  std::lock_guard lock(commit_mu_);
  open_epoch_ = epoch;
  committed_epoch_ = epoch;
  // Baseline every region off the just-installed image so scrub comparisons
  // and WAL-replay digest checks have references to verify against.
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
