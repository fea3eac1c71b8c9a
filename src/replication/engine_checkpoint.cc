#include "replication/replication_engine.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <utility>

#include "common/log.h"
#include "common/units.h"

namespace here::rep {

using common::kPagesPerRegion;

sim::Duration ReplicationEngine::snapshot_state_and_program() {
  sim::Duration cost{};
  staging_->set_pending_state(stage_machine_state(
      model_, primary_.hypervisor(), *vm_, secondary_.hypervisor(), cost));
  if (hv::GuestProgram* program = vm_->program()) {
    staging_->set_pending_program(program->clone());
  }
  return cost;
}

void ReplicationEngine::restart_checkpointing() {
  if (primary_phase_ != PrimaryPhase::kReplicating ||
      replica_phase_ == ReplicaPhase::kDown || taking_over()) {
    return;
  }
  sim_.cancel(checkpoint_event_);
  sim_.cancel(scrub_event_);
  schedule_checkpoint();
  schedule_scrub();
}

void ReplicationEngine::schedule_checkpoint() {
  last_checkpoint_done_ = sim_.now();
  const sim::Duration period = period_.current();
  stats_.period_series.record(sim_.now(), sim::to_seconds(period));
  if (m_period_s_ != nullptr) m_period_s_->set(sim::to_seconds(period));
  checkpoint_event_ = sim_.schedule_after(
      period, [this] { run_checkpoint(); }, "checkpoint");
}

void ReplicationEngine::schedule_scrub() {
  if (config_.ft.scrub_interval <= sim::Duration::zero()) return;
  scrub_event_ = sim_.schedule_after(config_.ft.scrub_interval,
                                     [this] { run_scrub(); }, "scrub");
}

void ReplicationEngine::run_scrub() {
  if (!primary_.alive()) {
    schedule_scrub();
    return;
  }
  bump(&EngineStats::scrub_runs);

  // Compare the replica's image, region by region, against the per-region
  // digests recorded at commit. A mismatch means the committed bytes changed
  // *after* commit (bit rot, stray write): schedule a full re-send of the
  // region by marking every one of its pages dirty on the primary — the next
  // epoch ships the authoritative copy and refreshes the reference.
  std::uint64_t repaired = 0;
  for (std::uint32_t r = 0; r < staging_->region_count(); ++r) {
    const std::uint64_t reference = staging_->committed_region_digest(r);
    if (reference == 0) continue;  // nothing committed for this region yet
    if (staging_->live_region_digest(r) == reference) continue;
    ++repaired;
    bump(&EngineStats::scrub_repairs);
    // The region's committed bytes rotted after commit, so the primary's
    // encoder references no longer describe the replica's image: the repair
    // epoch ships the region raw. (Without this, a delta against the rotten
    // base would be refused every retry, forever.)
    resend_region(r);
    if (config_.tracer != nullptr) {
      config_.tracer->instant(sim_.now(), "scrub.repair", "ckpt",
                              {{"region", r}});
    }
  }
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "scrub.run", "ckpt",
                            {{"regions", staging_->region_count()},
                             {"repairs", repaired}});
  }
  schedule_scrub();
}

void ReplicationEngine::resend_region(std::uint32_t r) {
  if (encoder_ != nullptr) encoder_->invalidate_region(r);
  common::DirtyBitmap* bm = primary_.hypervisor().dirty_bitmap(*vm_);
  if (bm == nullptr) return;
  const common::Gfn first = std::uint64_t{r} * kPagesPerRegion;
  const common::Gfn last =
      std::min<common::Gfn>(first + kPagesPerRegion, vm_->memory().pages());
  for (common::Gfn g = first; g < last; ++g) bm->set(g);
}

void ReplicationEngine::fold_back_epoch() {
  if (staging_) abort_staged_epoch();
  if (!inflight_) return;
  InflightEpoch epoch = std::move(*inflight_);
  inflight_.reset();
  sim_.cancel(epoch.step);
  if (vm_ == nullptr) return;
  if (common::DirtyBitmap* bm = primary_.hypervisor().dirty_bitmap(*vm_)) {
    for (const common::Gfn g : epoch.gfns) bm->set(g);
  }
  // Restore in issue order, ahead of anything the guest wrote since.
  epoch.disk_writes.insert(epoch.disk_writes.end(), epoch_disk_writes_.begin(),
                           epoch_disk_writes_.end());
  epoch_disk_writes_ = std::move(epoch.disk_writes);
}

void ReplicationEngine::abort_staged_epoch() {
  staging_->abort_epoch();
  if (encoder_ != nullptr) encoder_->abort_epoch();
}

void ReplicationEngine::settle_epoch(const char* abort_reason) {
  // A primary that died with the epoch in flight: the replica discards the
  // partial epoch (and will activate the previous one) while the capture
  // stays in flight until a recovery path folds it back.
  if (!primary_.alive()) return abort_staged_epoch();
  const bool paused_guest = inflight_ && inflight_->paused_guest;
  if (abort_reason == nullptr && !commit_inflight()) {
    abort_reason = "replica refused commit: integrity verification failed";
  }
  if (abort_reason == nullptr) {
    schedule_checkpoint();
  } else {
    // Output commit holds across the abort: the epoch's buffered output is
    // released only by a later successful commit, which re-ships the
    // folded-back capture.
    fold_back_epoch();
    bump(&EngineStats::epochs_aborted);
    ++abort_streak_;
    if (config_.tracer != nullptr) {
      config_.tracer->instant(sim_.now(), "epoch.abort", "ckpt",
                              {{"epoch", current_epoch_},
                               {"reason", abort_reason},
                               {"streak", abort_streak_}});
    }
    const std::uint32_t shift = std::min<std::uint32_t>(abort_streak_ - 1, 6);
    const sim::Duration backoff =
        std::min(kCheckpointRetryBackoff * (std::int64_t{1} << shift),
                 config_.period.t_max);
    HERE_LOG(kWarn, "epoch %llu aborted (%s); retrying in %s",
             static_cast<unsigned long long>(current_epoch_), abort_reason,
             sim::format_duration(backoff).c_str());
    checkpoint_event_ = sim_.schedule_after(
        backoff, [this] { run_checkpoint(); }, "checkpoint-retry");
  }
  if (paused_guest) resume_guest();
}

void ReplicationEngine::run_checkpoint() {
  if (!primary_.alive() || vm_->state() == hv::VmState::kDestroyed) return;

  // Partition check before pausing: with the interconnect down no byte of
  // this epoch could reach the replica, so don't stop the VM at all — abort
  // the epoch and retry after backoff. Dirty tracking keeps accumulating and
  // the epoch's output stays buffered (output commit holds across aborts).
  const net::LinkQuality link =
      fabric_.link_quality(primary_.ic_node(), secondary_.ic_node());
  if (!link.connected || link.down) return settle_epoch("interconnect down");

  // (1) Pause the VM.
  InflightEpoch& epoch = inflight_.emplace();
  epoch.paused_guest = vm_->state() == hv::VmState::kRunning;
  if (epoch.paused_guest) primary_.hypervisor().pause(*vm_);

  // (2) Capture the dirty set, frame it (raw copy or encode), seal it and
  //     push it through the interconnect data plane.
  EpochWork work;
  EpochCapture capture = capture_epoch(work);
  frame_epoch(capture, work);
  seal_epoch(capture);
  bool retransmits_exhausted = false;
  work.retransmit_bytes =
      transmit_epoch_frames(capture.frames, retransmits_exhausted);

  // (3) The epoch's mirrored disk writes travel with the checkpoint.
  for (const auto& w : epoch_disk_writes_) work.disk_bytes += w.sectors * 512ULL;
  staging_->buffer_disk_writes(std::move(epoch_disk_writes_));
  epoch_disk_writes_.clear();

  // (4) vCPU + device states, translated when heterogeneous.
  work.state = snapshot_state_and_program();

  // (5) Price the epoch. An epoch that may still abort on its timeout only
  //     projects its shared-link grant; the bytes are reserved once it goes
  //     ahead.
  work.vm_pause = primary_.hypervisor().cost_profile().vm_pause;
  work.vm_resume = primary_.hypervisor().cost_profile().vm_resume;
  work.link_loss = link.loss;
  work.bandwidth_factor = link.bandwidth_factor;
  work.disk_slowdown = primary_.hypervisor().disk(*vm_).slowdown();
  work.durable = env_.durable_store != nullptr;
  work.speculative_cow = config_.speculative_cow;
  work.stall = std::exchange(pending_stall_, {});
  const bool may_time_out =
      config_.ft.checkpoint_timeout > sim::Duration::zero() &&
      !retransmits_exhausted;
  work.arbitration = link_stretch(work.wire_bytes(), !may_time_out);
  const PauseLedger ledger = model_.price_epoch(work);

  // (6) Decide the epoch's ending; it happens when the guest resumes.
  // Abort-and-retry: a transfer that cannot land within the deadline would
  // stretch the pause unboundedly (exactly the wedge HERE's watchdog would
  // misread as a dead primary). Give up on this epoch before any byte is
  // reserved or snapshotted, and resume the guest after the scan it already
  // paid for.
  const char* abort_reason = nullptr;
  sim::Duration resume_after = ledger.pause();
  if (may_time_out &&
      ledger.pause() + ledger.background() > config_.ft.checkpoint_timeout) {
    abort_reason = "projected transfer exceeds checkpoint_timeout";
    resume_after = ledger.before_transfer();
  } else {
    if (may_time_out) link_stretch(work.wire_bytes(), /*reserve=*/true);
    // The CoW buffer doubles the epoch's resident footprint on the primary.
    if (config_.speculative_cow) {
      primary_.account_replication_memory(
          common::pages_to_bytes(capture.pages * work.model_scale));
    }
    // Integrity fallback: retransmission rounds exhausted with regions still
    // failing verification — this epoch can never commit.
    if (retransmits_exhausted) {
      abort_reason = "retransmit budget exhausted with corrupt regions";
    }
  }

  // The burst's busy window covers the pool's share of the epoch — up to the
  // resume, plus any speculative background push of a committing epoch — so
  // overlapping engines see the contention.
  pool_->commit_burst(pool_client_,
                      resume_after + (abort_reason == nullptr
                                          ? ledger.background()
                                          : sim::Duration{}));
  if (abort_reason != nullptr) {
    epoch.step = sim_.schedule_after(
        resume_after, [this, abort_reason] { settle_epoch(abort_reason); },
        "checkpoint-abort");
    return;
  }
  trace_epoch(capture, work, ledger);
  const sim::Duration cpu_work = model_.replication_cpu(work, ledger);
  stats_.replication_cpu += cpu_work;
  primary_.account_replication_cpu(cpu_work);
  primary_.account_replication_memory(staging_->peak_buffered_bytes() *
                                      work.model_scale);

  const std::uint64_t dirty_pages = capture.pages * work.model_scale;
  epoch.record = {.epoch = current_epoch_,
                  .period_used = sim_.now() - last_checkpoint_done_,
                  .pause = ledger.pause(),
                  .dirty_pages_model = dirty_pages,
                  .bytes_model = common::pages_to_bytes(dirty_pages),
                  .ledger = ledger};
  epoch.step = sim_.schedule_after(
      ledger.pause(), [this] { end_pause(); }, "checkpoint-done");
}

void ReplicationEngine::end_pause() {
  if (!primary_.alive()) return abort_staged_epoch();
  // A link that died while the epoch was being pushed aborts it before the
  // new execution epoch opens, keeping buffered output in the current one.
  if (const char* down = if_link_down("interconnect down at commit")) {
    return settle_epoch(down);
  }
  // A new execution epoch starts the moment the VM resumes; output produced
  // from here on must wait for the *next* commit.
  ++current_epoch_;
  InflightEpoch& epoch = *inflight_;
  if (!epoch.record.ledger.speculative_cow) return settle_epoch(nullptr);
  // Speculative CoW: resume now; commit (and release epoch N's output) only
  // when the background transfer lands.
  if (std::exchange(epoch.paused_guest, false)) resume_guest();
  epoch.step = sim_.schedule_after(
      epoch.record.ledger.background(),
      [this] {
        settle_epoch(if_link_down("interconnect down in background transfer"));
      },
      "checkpoint-commit");
}

const char* ReplicationEngine::if_link_down(const char* reason) {
  const net::LinkQuality q =
      fabric_.link_quality(primary_.ic_node(), secondary_.ic_node());
  return q.connected && !q.down ? nullptr : reason;
}

ReplicationEngine::EpochCapture ReplicationEngine::capture_epoch(
    EpochWork& work) {
  // HERE: disjoint 2 MiB regions round-robin across migrator threads;
  // Remus: one thread walks the whole bitmap.
  common::DirtyBitmap& scratch = primary_.hypervisor().scratch_bitmap(*vm_);
  primary_.hypervisor().dirty_bitmap(*vm_)->exchange_into(scratch);

  // Pool admission: a shared pool may grant fewer threads than requested
  // when other engines' bursts cover this instant (a private pool always
  // grants them all). The grant shapes this epoch's parallelism (and
  // therefore its copy/scan cost), which Algorithm 1 then feeds back into
  // the VM's period.
  const MigratorPool::Grant grant = pool_->begin_burst(pool_client_);
  EpochCapture c;
  const std::uint32_t p = work.threads = std::min(threads(), grant.threads);
  if (env_.migrator_pool != nullptr && config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "pool.grant", "ckpt",
                            {{"epoch", current_epoch_},
                             {"threads", p},
                             {"contending", grant.contending}});
  }
  const std::uint64_t pages = work.pages = vm_->memory().pages();
  work.model_scale = vm_->spec().model_scale;
  const std::uint64_t regions = (pages + kPagesPerRegion - 1) / kPagesPerRegion;

  staging_->begin_epoch(current_epoch_);
  staging_->attach_pool({pool_, pool_client_, p});
  c.worker_pages.assign(p, 0);
  std::vector<std::vector<common::Gfn>> region_gfns(regions);
  pool_->run_shards(pool_client_, p, [&](std::uint32_t w) {
    for (std::uint64_t r = w; r < regions; r += p) {
      const common::Gfn first = r * kPagesPerRegion;
      const common::Gfn last = std::min<common::Gfn>(first + kPagesPerRegion, pages);
      scratch.collect(first, last, region_gfns[r]);
      c.worker_pages[w] += region_gfns[r].size();
    }
  });
  for (const std::uint64_t n : c.worker_pages) {
    c.pages += n;
    work.max_worker_pages = std::max(work.max_worker_pages, n);
  }

  // Keep the captured epoch restorable until it commits: an abort (or a
  // fenced failover) folds it back into the running epoch so the retry
  // re-ships it.
  for (const auto& gfns : region_gfns) {
    inflight_->gfns.insert(inflight_->gfns.end(), gfns.begin(), gfns.end());
  }
  inflight_->disk_writes = epoch_disk_writes_;

  // One frame per dirty 2 MiB region, sequence numbers in ascending region
  // order. An encoder exists only when the replica advertised v1
  // (baseline_references); without one, version 0 is bit-identical to the
  // un-encoded wire.
  c.wire_version =
      encoder_ != nullptr ? wire::kWireVersionEncoded : wire::kWireVersionRaw;
  for (std::uint64_t r = 0; r < regions; ++r) {
    if (region_gfns[r].empty()) continue;
    wire::RegionFrame f;
    f.epoch = current_epoch_;
    f.seq = c.frames.size();
    f.region = static_cast<std::uint32_t>(r);
    f.version = c.wire_version;
    f.gfns = std::move(region_gfns[r]);
    c.frames.push_back(std::move(f));
  }
  return c;
}

void ReplicationEngine::frame_epoch(EpochCapture& c, EpochWork& work) {
  if (encoder_ == nullptr) {
    for (wire::RegionFrame& f : c.frames) {
      f.bytes.reserve(f.gfns.size() * common::kPageSize);
      for (const common::Gfn g : f.gfns) {
        const auto page = vm_->memory().page(g);
        f.bytes.insert(f.bytes.end(), page.begin(), page.end());
      }
      work.payload_bytes += f.bytes.size();
    }
    for (const std::uint64_t n : c.worker_pages) {
      work.shards.push_back({.raw_pages = n});
    }
    return;
  }
  // Encode shards: worker w owns frames w, w+p, ... (disjoint), granted
  // pool work tagged kEncode so fleet accounting sees the stage.
  const std::uint32_t p = work.threads;
  const EncodeStats enc_before = encoder_->stats();
  work.shards.assign(p, {});
  pool_->run_shards(
      pool_client_, p,
      [&](std::uint32_t w) {
        for (std::size_t i = w; i < c.frames.size(); i += p) {
          encoder_->encode_region(vm_->memory(), c.frames[i], work.shards[w]);
        }
      },
      MigratorPool::WorkKind::kEncode);
  for (const EncodeWork& w : work.shards) work.payload_bytes += w.bytes_out;
  const EncodeStats enc_now = encoder_->stats();
  if (config_.tracer != nullptr && c.pages > 0) {
    config_.tracer->instant(
        sim_.now(), "epoch.encode", "ckpt",
        {{"epoch", current_epoch_},
         {"pages_in", enc_now.pages_in - enc_before.pages_in},
         {"pages_raw", enc_now.pages_raw - enc_before.pages_raw},
         {"pages_zero", enc_now.pages_zero - enc_before.pages_zero},
         {"pages_delta", enc_now.pages_delta - enc_before.pages_delta},
         {"pages_skipped", enc_now.pages_skipped - enc_before.pages_skipped},
         {"bytes_in", enc_now.bytes_in - enc_before.bytes_in},
         {"bytes_out", enc_now.bytes_out - enc_before.bytes_out}});
  }
}

void ReplicationEngine::seal_epoch(EpochCapture& c) {
  // Each frame is sealed with a CRC32C over its (possibly encoded) payload
  // and the whole set committed to by the epoch header's rolling digest,
  // folded serially in seq order (it is order-sensitive by design). The
  // replica verifies each frame on arrival and will refuse the commit
  // unless everything checks out.
  std::uint64_t digest = wire::digest_init();
  for (wire::RegionFrame& f : c.frames) {
    wire::seal_frame(f);
    digest = wire::digest_fold(digest, f);
  }
  staging_->expect_epoch({current_epoch_,
                          static_cast<std::uint64_t>(c.frames.size()), digest,
                          c.wire_version});
}

sim::Duration ReplicationEngine::link_stretch(std::uint64_t wire_bytes,
                                              bool reserve) {
  if (env_.link_arbiter == nullptr) return {};
  return (reserve ? env_.link_arbiter->request(arb_flow_, wire_bytes)
                  : env_.link_arbiter->estimate(arb_flow_, wire_bytes))
      .queueing();
}

void ReplicationEngine::trace_epoch(const EpochCapture& c,
                                    const EpochWork& work,
                                    const PauseLedger& ledger) {
  if (config_.tracer == nullptr) return;
  const sim::TimePoint pause_begin = sim_.now();
  config_.tracer->complete(pause_begin, ledger.pause(), "ckpt.pause", "ckpt",
                           0,
                           {{"epoch", current_epoch_},
                            {"dirty_pages", c.pages * work.model_scale},
                            {"threads", work.threads}});
  // One span per migrator thread, on its own tid (tid 0 is the
  // coordinator). Worker w's share of the copy is proportional to its page
  // count, so the span never outlasts the aggregate transfer — which keeps
  // spans on one tid disjoint across epochs.
  const sim::TimePoint copy_begin = pause_begin + ledger.vm_pause + ledger.scan;
  for (std::uint32_t w = 0; w < work.threads; ++w) {
    if (c.worker_pages[w] == 0) continue;  // also covers max_worker == 0
    const auto share = static_cast<std::int64_t>(
        static_cast<double>(ledger.transfer().count()) *
        static_cast<double>(c.worker_pages[w]) /
        static_cast<double>(work.max_worker_pages));
    config_.tracer->complete(copy_begin, sim::Duration{share},
                             "migrator.copy", "ckpt", w + 1,
                             {{"epoch", current_epoch_},
                              {"pages", c.worker_pages[w] * work.model_scale}});
  }
}

std::uint64_t ReplicationEngine::transmit_epoch_frames(
    const std::vector<wire::RegionFrame>& frames, bool& exhausted) {
  std::uint64_t retransmit_bytes = 0;
  const net::NodeId src = primary_.ic_node();
  const net::NodeId dst = secondary_.ic_node();

  auto offer = [&](const wire::RegionFrame& rx, bool count) {
    if (staging_->receive_frame(rx) == FrameVerdict::kCorrupt && count) {
      bump(&EngineStats::regions_corrupted);
    }
  };

  // One crossing of the data plane. A direction that can flip bits or cut
  // tails damages a private copy in `scratch`; a clean one delivers the
  // sender's frame itself, so the staging area's buffer is the only copy.
  // Either way `frames` stays pristine for the NACK rounds below.
  const bool mutating = fabric_.link_quality(src, dst).mutates_frames();
  wire::RegionFrame scratch;
  auto cross = [&](const wire::RegionFrame& f,
                   net::FrameFate& fate) -> const wire::RegionFrame* {
    if (!mutating) {
      fate = fabric_.transmit_readonly_frame(src, dst, f.bytes);
      return &f;
    }
    scratch = f;
    fate = fabric_.transmit_frame(src, dst, scratch.bytes);
    if (fate.truncated) scratch.bytes.resize(fate.delivered_bytes);
    return &scratch;
  };

  // First pass: every frame crosses the data plane once. Reordered frames
  // arrive after their peers, duplicates are offered twice — the staging
  // area absorbs both by seq.
  std::deque<wire::RegionFrame> held;  // damaged copies that arrive late
  std::vector<const wire::RegionFrame*> late;
  for (const wire::RegionFrame& f : frames) {
    net::FrameFate fate;
    const wire::RegionFrame* rx = cross(f, fate);
    if (fate.lost) continue;  // commit() will refuse the incomplete epoch
    if (fate.reordered) {
      if (rx == &scratch) rx = &held.emplace_back(std::move(scratch));
      late.push_back(rx);
      continue;
    }
    offer(*rx, /*count=*/true);
    if (fate.duplicated) offer(*rx, /*count=*/false);
  }
  for (const wire::RegionFrame* rx : late) offer(*rx, /*count=*/true);

  // NACK loop: re-ship only the corrupt regions' pristine frames, up to the
  // budget. A retransmit crosses the same impaired wire, so it can corrupt
  // again and eat another round.
  std::map<std::uint32_t, const wire::RegionFrame*> by_region;
  for (const wire::RegionFrame& f : frames) by_region[f.region] = &f;
  std::uint32_t round = 0;
  while (!staging_->corrupt_regions().empty() &&
         round < kRetransmitBudget) {
    ++round;
    const std::set<std::uint32_t> nack = staging_->corrupt_regions();
    if (config_.tracer != nullptr) {
      config_.tracer->instant(sim_.now(), "wire.nack", "ckpt",
                              {{"epoch", current_epoch_},
                               {"regions", nack.size()},
                               {"round", round}});
    }
    for (const std::uint32_t region : nack) {
      const wire::RegionFrame* f = by_region.at(region);
      bump(&EngineStats::retransmits);
      retransmit_bytes += f->payload_bytes();
      net::FrameFate fate;
      const wire::RegionFrame* rx = cross(*f, fate);
      if (fate.lost) continue;
      offer(*rx, /*count=*/false);  // kOk repairs; kCorrupt re-marks
    }
  }
  exhausted = !staging_->corrupt_regions().empty();
  return retransmit_bytes;
}

bool ReplicationEngine::commit_inflight() {
  const Expected<std::uint64_t> committed = staging_->commit();
  if (!committed.ok()) {
    // The replica refused the epoch: its verification state says the image
    // would be corrupt. Same recovery as any abort — fold the capture back
    // into the running epoch and retry; the epoch's buffered output stays
    // held until a later commit actually releases it.
    bump(&EngineStats::commits_rejected);
    if (config_.tracer != nullptr) {
      config_.tracer->instant(sim_.now(), "epoch.commit_rejected", "ckpt",
                              {{"epoch", inflight_->record.epoch},
                               {"status", committed.status().to_string()}});
    }
    return false;
  }
  CheckpointRecord record = std::move(inflight_->record);
  inflight_.reset();
  // The replica committed: promote the encoder's staged references so the
  // next epoch deltas/skips against what the replica now actually holds.
  if (encoder_ != nullptr) {
    encoder_->commit_epoch();
    sync_encode_stats();
  }
  abort_streak_ = 0;

  // Durable ack path: the commit above WAL-appended exactly one record (or
  // rotated into a snapshot) before returning. Re-mirror the replica's
  // committed digests on the engine side — staging dies with a secondary
  // crash, and the rejoin diff needs the last-acked references.
  if (env_.durable_store != nullptr) bump(&EngineStats::wal_appends);
  mirror_committed_digests();
  // First commit after a secondary rejoin: the resynced image is acked and
  // (if durable) persisted, so the VM survives a primary failure again.
  if (replica_phase_ == ReplicaPhase::kRejoining) {
    enter(ReplicaPhase::kStandby);
    stats_.last_rejoin_time = sim_.now() - secondary_crashed_at_;
    if (m_rejoin_ms_ != nullptr) {
      m_rejoin_ms_->add(sim::to_seconds(stats_.last_rejoin_time) * 1e3);
    }
    if (config_.tracer != nullptr) {
      config_.tracer->instant(sim_.now(), "rejoin.protected", "fo",
                              {{"epoch", record.epoch},
                               {"rejoin_ns",
                                stats_.last_rejoin_time.count()}});
    }
    HERE_LOG(kInfo, "secondary rejoined: protection restored after %s",
             sim::format_duration(stats_.last_rejoin_time).c_str());
  }

  record.completed_at = sim_.now();
  record.degradation =
      sim::to_seconds(record.pause) /
      (sim::to_seconds(record.pause) + sim::to_seconds(record.period_used));
  stats_.checkpoints.push_back(record);
  stats_.total_pause += record.pause;

  // The commit event precedes the release of the epoch's buffered output:
  // in stream order no "io.release" tagged with epoch N may appear before
  // "epoch.commit" N (the output-commit invariant the obs tests check).
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "epoch.commit", "ckpt",
                            {{"epoch", record.epoch},
                             {"pause", record.pause.count()},
                             {"period", record.period_used.count()},
                             {"degradation", record.degradation},
                             {"dirty_pages", record.dirty_pages_model},
                             {"bytes", record.bytes_model}});
  }
  bump(&EngineStats::epochs_committed);
  bump(&EngineStats::dirty_pages_total, record.dirty_pages_model);
  bump(&EngineStats::bytes_total, record.bytes_model);
  if (m_pause_ms_ != nullptr) {
    m_pause_ms_->add(sim::to_seconds(record.pause) * 1e3);
    m_degradation_pct_->add(record.degradation * 100.0);
  }

  // Output commit: packets of the epoch that just committed are released.
  outbound_.release_up_to(record.epoch, sim_.now());

  // Period policy input: measured pause, plus whether the epoch carried
  // guest I/O (the Adaptive Remus baseline's trigger).
  const std::uint64_t captured_now = outbound_.captured_total();
  period_.observe_epoch(record.pause, captured_now > epoch_start_captured_);
  epoch_start_captured_ = captured_now;
  if (config_.tracer != nullptr) {
    // Algorithm 1's decision with its inputs (t, N, P) and output (next T).
    config_.tracer->instant(
        sim_.now(), "period.decide", "period",
        {{"epoch", record.epoch},
         {"t_pause_ns", record.pause.count()},
         {"dirty_pages", record.dirty_pages_model},
         {"threads", threads()},
         {"degradation", period_.last_degradation()},
         {"t_next_ns", period_.current().count()},
         {"t_max_ns", config_.period.t_max.count()}});
  }
  return true;
}

}  // namespace here::rep
