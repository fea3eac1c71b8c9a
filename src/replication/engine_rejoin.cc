#include "replication/replication_engine.h"

#include <algorithm>

#include "common/log.h"
#include "common/units.h"

namespace here::rep {

using common::kPagesPerRegion;

bool ReplicationEngine::try_delta_seed() {
  if (env_.durable_store == nullptr) return false;
  const Expected<sim::Duration> replay = recover_from_store();
  if (!replay.ok()) {
    // Nothing usable in the store (or a damaged snapshot). Rebuild staging so
    // the full-seed path never sees a half-populated image.
    reset_staging();
    return false;
  }
  const RecoveryResult& recovered = stats_.last_recovery;

  // Stop-and-diff: pause the guest, install exactly the pages whose digests
  // disagree with the recovered image, re-mirror the divergent disk sectors.
  // Dirty tracking arms before the diff so writes from the resumed guest are
  // caught by the first continuous epoch (PML rings stay off — this is the
  // bitmap path, like a KVM-primary seed). The store was written by another
  // generation, so no mirrored reference vouches for any region: every
  // region is a candidate.
  const bool was_running = vm_->state() == hv::VmState::kRunning;
  if (was_running) primary_.hypervisor().pause(*vm_);
  primary_.hypervisor().enable_dirty_bitmap(*vm_);
  primary_.hypervisor().dirty_bitmap(*vm_)->clear();
  committed_digest_mirror_.clear();
  const StoreDiff diff = diff_recovered_image();
  for (const common::Gfn g : diff.pages) {
    staging_->install_seed_page(g, vm_->memory());
  }
  const std::uint64_t divergent = diff.pages.size();
  const std::uint64_t divergent_sectors = resync_disk();

  // Commit the reconciled image as a fresh epoch above everything the store
  // already holds, then re-attach the store and snapshot.
  const Expected<sim::Duration> state_cost =
      commit_seed_epoch(staging_->committed_epoch() + 1);
  if (!state_cost.ok()) {
    reset_staging();
    if (was_running) resume_guest();
    return false;
  }
  ++stats_.delta_seeds;
  reattach_store();
  baseline_references();

  // Modelled cost: local snapshot+WAL replay, the both-ways page-digest
  // exchange over the whole image (8 bytes a page each way), the divergent
  // pages, and the divergent sectors; machine state + ack ride on top.
  const std::uint64_t scale = vm_->spec().model_scale;
  const sim::Duration cost =
      *replay + model_.wire_time(2 * diff.digest_pages * 8ULL * scale) +
      model_.wire_time(common::pages_to_bytes(divergent * scale)) +
      model_.wire_time(divergent_sectors * 512ULL);

  stats_.seed = SeedResult{};
  stats_.seed.iterations = 1;
  stats_.seed.pages_sent = divergent;
  stats_.seed.bytes_sent = common::pages_to_bytes(divergent);
  stats_.seed.total_time = cost + *state_cost;
  stats_.seed.stop_copy_time = cost + *state_cost;

  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "seed.delta", "seed",
                            {{"recovered_epoch", recovered.recovered_epoch},
                             {"divergent_pages", divergent},
                             {"divergent_sectors", divergent_sectors},
                             {"wal_records", recovered.wal_records_replayed}});
  }
  HERE_LOG(kInfo,
           "delta seed from surviving store: recovered epoch %llu, "
           "%llu divergent page(s), %llu divergent sector(s)",
           static_cast<unsigned long long>(recovered.recovered_epoch),
           static_cast<unsigned long long>(divergent),
           static_cast<unsigned long long>(divergent_sectors));
  seed_event_ = sim_.schedule_after(
      cost + *state_cost, [this] { commit_initial_checkpoint(); },
      "seed-delta");
  return true;
}

// --- Store reconcile (delta seed and rejoin) ---------------------------------

void ReplicationEngine::reset_staging() {
  staging_ = std::make_unique<ReplicaStaging>(vm_->spec(), threads());
  staging_->set_advertised_wire_version(config_.replica_max_wire_version);
}

Expected<sim::Duration> ReplicationEngine::recover_from_store() {
  const Expected<RecoveryResult> result =
      RecoveryManager(*env_.durable_store).recover(*staging_);
  if (!result.ok()) return result.status();
  stats_.last_recovery = *result;
  bump(&EngineStats::wal_records_replayed, (*result).wal_records_replayed);
  return model_.durable_replay((*result).bytes_read * vm_->spec().model_scale,
                               (*result).wal_records_replayed);
}

ReplicationEngine::StoreDiff ReplicationEngine::diff_recovered_image() {
  // Two levels. A region whose recovered digest agrees with the last-acked
  // mirror is byte-identical: no re-send. For any other region (lost WAL
  // tail, damaged record, never committed) the replica answers with its
  // per-page digests — 8 bytes a page on the wire — and only the pages that
  // actually disagree with the primary re-cross. Without the page-level pass
  // a single torn epoch with scattered writes would re-ship every touched
  // region whole, which is most of what a full reseed sends anyway.
  StoreDiff diff;
  const std::uint64_t pages = vm_->memory().pages();
  for (std::uint32_t r = 0; r < staging_->region_count(); ++r) {
    const std::uint64_t want = r < committed_digest_mirror_.size()
                                   ? committed_digest_mirror_[r]
                                   : 0;
    if (want != 0 && staging_->committed_region_digest(r) == want) continue;
    ++diff.regions;
    // The encoder's shadow holds the primary's last committed content, which
    // the recovered replica no longer matches — deltas against it would not
    // apply, so the divergent pages go raw.
    if (encoder_ != nullptr) encoder_->invalidate_region(r);
    const common::Gfn first = std::uint64_t{r} * kPagesPerRegion;
    const common::Gfn last =
        std::min<common::Gfn>(first + kPagesPerRegion, pages);
    diff.digest_pages += last - first;
    for (common::Gfn g = first; g < last; ++g) {
      if (vm_->memory().page_digest(g) != staging_->memory().page_digest(g)) {
        diff.pages.push_back(g);
      }
    }
  }
  return diff;
}

std::uint64_t ReplicationEngine::resync_disk() {
  const hv::VirtualDisk& primary_disk = primary_.hypervisor().disk(*vm_);
  const std::uint64_t divergent =
      primary_disk.sectors_differing_in(staging_->disk());
  staging_->seed_disk(primary_disk);
  return divergent;
}

void ReplicationEngine::reattach_store() {
  staging_->attach_durable_store(env_.durable_store);
  env_.durable_store->write_snapshot(staging_->committed_epoch(),
                                     staging_->memory(), staging_->disk());
}

void ReplicationEngine::mirror_committed_digests() {
  if (env_.durable_store == nullptr) return;
  committed_digest_mirror_.resize(staging_->region_count());
  for (std::uint32_t r = 0; r < staging_->region_count(); ++r) {
    committed_digest_mirror_[r] = staging_->committed_region_digest(r);
  }
}

void ReplicationEngine::baseline_references() {
  mirror_committed_digests();
  // Encoded bytes can never travel in v0 frames, so a replica pinned below
  // v1 keeps the stream raw instead of NACK-looping.
  if (config_.encoders.any() &&
      staging_->advertised_wire_version() >= wire::kWireVersionEncoded) {
    encoder_ = std::make_unique<EncoderPipeline>(config_.encoders,
                                                 vm_->memory().pages());
    encoder_->baseline(vm_->memory());
  }
}

void ReplicationEngine::on_secondary_failed() {
  // An activated replica runs the service; a retired engine holds none.
  if (primary_phase_ >= PrimaryPhase::kDemoted || failed_over()) return;
  ++stats_.secondary_crashes;
  secondary_crashed_at_ = sim_.now();
  // The in-flight epoch (if any) dies with the replica's RAM: discard both
  // sides of the stream and fold the capture back into the running epoch so
  // the rejoin re-ships it. Output stays buffered — output commit holds
  // across the outage, released by the first post-rejoin commit.
  enter(ReplicaPhase::kDown);
  fold_back_epoch();
  staging_.reset();
  resume_guest();  // held paused instead while an arbitration is pending
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "replica.down", "fo",
                            {{"vm", vm_->spec().name},
                             {"durable", env_.durable_store != nullptr}});
  }
}

void ReplicationEngine::on_secondary_returned() {
  enter(ReplicaPhase::kRejoining);
  // The returned secondary's watchdog starts afresh: heartbeats the dead
  // host dropped are no evidence against the primary.
  last_heartbeat_rx_ = sim_.now();
  watchdog_check();
  reset_staging();
  common::DirtyBitmap* bm = primary_.hypervisor().dirty_bitmap(*vm_);
  const std::uint64_t scale = vm_->spec().model_scale;
  const std::uint32_t regions = staging_->region_count();
  std::uint64_t resync = 0;
  sim::Duration recovery_cost{};
  bool recovered = false;

  if (env_.durable_store != nullptr) {
    if (const Expected<sim::Duration> replay = recover_from_store();
        replay.ok()) {
      recovered = true;
      ++stats_.rejoins;
      // The divergent pages re-cross as part of the next epoch. The
      // page-digest exchange is wire traffic too: 8 bytes per modelled page
      // of every divergent region, both directions.
      const StoreDiff diff = diff_recovered_image();
      resync = diff.regions;
      if (bm != nullptr) {
        for (const common::Gfn g : diff.pages) bm->set(g);
      }
      stats_.resync_pages += diff.pages.size();
      recovery_cost =
          *replay + model_.wire_time(2 * diff.digest_pages * 8ULL * scale);
    } else if (config_.tracer != nullptr) {
      config_.tracer->instant(
          sim_.now(), "rejoin.recovery_failed", "fo",
          {{"status", replay.status().to_string()}});
    }
  }
  if (!recovered) {
    // No durable store (or an unusable snapshot): nothing survives locally,
    // so every page is re-sent through the checkpoint path — the
    // full-reseed-equivalent baseline bench/rejoin_resync compares against.
    ++stats_.full_resyncs;
    resync = regions;
    for (std::uint32_t r = 0; r < regions; ++r) resend_region(r);
  }

  // Disk resync: the primary's mirror is authoritative. Sectors whose
  // stamps survive recovery intact cost nothing; divergent (or, without
  // recovery, all) sectors re-cross the wire. The re-mirrored disk may run
  // ahead of the recovered memory by the open epoch's writes — harmless, as
  // failover stays impossible until the next commit delivers machine state.
  const std::uint64_t divergent_sectors = resync_disk();
  stats_.resync_disk_sectors += divergent_sectors;
  recovery_cost += model_.wire_time(divergent_sectors * 512ULL);
  bump(&EngineStats::resync_regions, resync);

  // Persist the recovered state as a fresh snapshot: a damaged WAL tail must
  // not linger into the next crash.
  if (env_.durable_store != nullptr) reattach_store();

  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "rejoin.begin", "fo",
                            {{"recovered", recovered},
                             {"resync_regions", resync},
                             {"regions", regions},
                             {"divergent_sectors", divergent_sectors},
                             {"recovery_ns", recovery_cost.count()}});
  }

  // Checkpointing resumes once the local replay has (in modelled time)
  // finished; the first epoch then carries the resync set. A pending
  // arbitration restarts it on its grant instead.
  rejoin_resume_event_ = sim_.schedule_after(
      recovery_cost,
      [this] { restart_checkpointing(); }, "rejoin-resume");
}

}  // namespace here::rep
