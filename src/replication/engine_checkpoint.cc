#include "replication/replication_engine.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "common/log.h"
#include "common/units.h"

namespace here::rep {

using common::kPagesPerRegion;

namespace {

sim::Duration scaled(sim::Duration d, double factor) {
  return sim::Duration{
      static_cast<std::int64_t>(static_cast<double>(d.count()) * factor)};
}

}  // namespace

sim::Duration ReplicationEngine::snapshot_state_and_program() {
  sim::Duration cost{};
  staging_->set_pending_state(stage_machine_state(
      model_, primary_.hypervisor(), *vm_, secondary_.hypervisor(), cost));
  if (hv::GuestProgram* program = vm_->program()) {
    staging_->set_pending_program(program->clone());
  }
  // Checkpoint ACK round trip on the interconnect.
  return cost + sim::from_micros(10);
}

void ReplicationEngine::restart_checkpointing() {
  sim_.cancel(checkpoint_event_);
  sim_.cancel(scrub_event_);
  last_checkpoint_done_ = sim_.now();
  schedule_checkpoint();
  schedule_scrub();
}

void ReplicationEngine::schedule_checkpoint() {
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
  // The audit only makes sense while both sides are live and replicating;
  // after a failover the staged image became the running replica.
  if (stats_.failed_over || failover_in_progress_) return;
  if (!primary_.alive() || vm_ == nullptr || !staging_) {
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
  if (repaired > 0) {
    notify_degraded(DegradedKind::kScrubRepair,
                    "scrub found " + std::to_string(repaired) +
                        " divergent region(s); full re-send scheduled");
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
  if (vm_ == nullptr) return;
  if (common::DirtyBitmap* bm = primary_.hypervisor().dirty_bitmap(*vm_)) {
    for (const common::Gfn g : last_epoch_gfns_) bm->set(g);
  }
  if (!last_epoch_disk_writes_.empty()) {
    // Restore in issue order, ahead of anything the guest wrote since.
    std::vector<hv::DiskWrite> restored = std::move(last_epoch_disk_writes_);
    restored.insert(restored.end(), epoch_disk_writes_.begin(),
                    epoch_disk_writes_.end());
    epoch_disk_writes_ = std::move(restored);
  }
  last_epoch_gfns_.clear();
  last_epoch_disk_writes_.clear();
}

void ReplicationEngine::abort_staged_epoch() {
  staging_->abort_epoch();
  if (encoder_ != nullptr) encoder_->abort_epoch();
}

void ReplicationEngine::abort_epoch(const char* reason, bool was_running,
                                    std::optional<sim::Duration> resume_after) {
  fold_back_epoch();
  if (resume_after.has_value()) {
    checkpoint_finish_event_ = sim_.schedule_after(
        *resume_after,
        [this, was_running] {
          if (was_running && !failover_in_progress_) resume_guest();
        },
        "checkpoint-abort");
  } else if (was_running) {
    resume_guest();
  }
  bump(&EngineStats::epochs_aborted);
  ++abort_streak_;
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "epoch.abort", "ckpt",
                            {{"epoch", current_epoch_},
                             {"reason", reason},
                             {"streak", abort_streak_}});
  }
  notify_degraded(DegradedKind::kEpochAborted, reason);
  const std::uint32_t shift = std::min<std::uint32_t>(abort_streak_ - 1, 6);
  const sim::Duration backoff = std::min(
      kCheckpointRetryBackoff * (std::int64_t{1} << shift), config_.period.t_max);
  HERE_LOG(kWarn, "epoch %llu aborted (%s); retrying in %s",
           static_cast<unsigned long long>(current_epoch_), reason,
           sim::format_duration(backoff).c_str());
  checkpoint_event_ = sim_.schedule_after(
      backoff, [this] { run_checkpoint(); }, "checkpoint-retry");
}

void ReplicationEngine::run_checkpoint() {
  if (!primary_.alive() || failover_in_progress_ || drained_) return;
  if (vm_ == nullptr || vm_->state() == hv::VmState::kDestroyed) return;

  // Partition check before pausing: with the interconnect down no byte of
  // this epoch could reach the replica, so don't stop the VM at all — abort
  // the epoch and retry after backoff. Dirty tracking keeps accumulating and
  // the epoch's output stays buffered (output commit holds across aborts).
  const net::LinkQuality link =
      fabric_.link_quality(primary_.ic_node(), secondary_.ic_node());
  if (!link.connected || link.down) {
    abort_epoch("interconnect down", /*was_running=*/false);
    return;
  }

  const sim::Duration period_used = sim_.now() - last_checkpoint_done_;
  const std::uint64_t epoch = current_epoch_;

  // (1) Pause the VM.
  const bool was_running = vm_->state() == hv::VmState::kRunning;
  if (was_running) primary_.hypervisor().pause(*vm_);

  // (2) Capture this epoch's dirty set and copy it into staging.
  //     HERE: disjoint 2 MiB regions round-robin across migrator threads;
  //     Remus: one thread walks the whole bitmap.
  common::DirtyBitmap& scratch = primary_.hypervisor().scratch_bitmap(*vm_);
  primary_.hypervisor().dirty_bitmap(*vm_)->exchange_into(scratch);

  // Pool admission: a shared pool may grant fewer threads than requested
  // when other engines' bursts cover this instant (a private pool always
  // grants them all). The grant shapes this epoch's parallelism (and
  // therefore its copy/scan cost), which Algorithm 1 then feeds back into
  // the VM's period.
  const MigratorPool::Grant grant = pool_->begin_burst(pool_client_);
  const std::uint32_t p = std::min(threads(), grant.threads);
  if (env_.migrator_pool != nullptr && config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "pool.grant", "ckpt",
                            {{"epoch", current_epoch_},
                             {"threads", p},
                             {"contending", grant.contending}});
  }
  const std::uint64_t pages = vm_->memory().pages();
  const std::uint64_t regions = (pages + kPagesPerRegion - 1) / kPagesPerRegion;

  staging_->begin_epoch(current_epoch_);
  std::vector<std::uint64_t> per_worker_pages(p, 0);
  std::vector<std::vector<common::Gfn>> region_gfns(regions);
  pool_->run_shards(pool_client_, p, [&](std::uint32_t w) {
    for (std::uint64_t r = w; r < regions; r += p) {
      const common::Gfn first = r * kPagesPerRegion;
      const common::Gfn last = std::min<common::Gfn>(first + kPagesPerRegion, pages);
      scratch.collect(first, last, region_gfns[r]);
      per_worker_pages[w] += region_gfns[r].size();
    }
  });

  std::uint64_t captured = 0;
  std::uint64_t max_worker = 0;
  for (const std::uint64_t n : per_worker_pages) {
    captured += n;
    max_worker = std::max(max_worker, n);
  }

  // Keep the captured epoch restorable until it commits: an abort (or a
  // fenced failover) folds it back into the running epoch so the retry
  // re-ships it.
  last_epoch_gfns_.clear();
  for (const auto& gfns : region_gfns) {
    last_epoch_gfns_.insert(last_epoch_gfns_.end(), gfns.begin(), gfns.end());
  }
  last_epoch_disk_writes_ = epoch_disk_writes_;

  // Frame the epoch for the wire: one frame per dirty 2 MiB region, sequence
  // numbers in ascending region order, each sealed with a CRC32C over its
  // (possibly encoded) payload, the whole set committed to by the epoch
  // header's rolling digest. The replica verifies each frame on arrival and
  // will refuse the commit unless everything checks out. With encoders the
  // stream runs at the negotiated version — the primary proposes
  // min(capability, the replica's advertised maximum); without, version 0 is
  // bit-identical to the un-encoded wire.
  const std::uint64_t scale = vm_->spec().model_scale;
  const std::uint16_t wire_version =
      encoder_ != nullptr
          ? std::min<std::uint16_t>(wire::kWireVersionEncoded,
                                    staging_->advertised_wire_version())
          : wire::kWireVersionRaw;
  std::vector<wire::RegionFrame> frames;
  for (std::uint64_t r = 0; r < regions; ++r) {
    if (region_gfns[r].empty()) continue;
    wire::RegionFrame f;
    f.epoch = current_epoch_;
    f.seq = frames.size();
    f.region = static_cast<std::uint32_t>(r);
    f.version = wire_version;
    f.gfns = std::move(region_gfns[r]);
    frames.push_back(std::move(f));
  }
  std::uint64_t payload_bytes = 0;      // sealed payload, real bytes
  std::uint64_t raw_pages_total = 0;    // pages that took the full copy
  sim::Duration worker_cpu_critical{};  // slowest shard: raw copies + encode
  sim::Duration encode_cpu_total{};     // all workers' encode cycles
  if (encoder_ == nullptr) {
    for (wire::RegionFrame& f : frames) {
      f.bytes.reserve(f.gfns.size() * common::kPageSize);
      for (const common::Gfn g : f.gfns) {
        const auto page = vm_->memory().page(g);
        f.bytes.insert(f.bytes.end(), page.begin(), page.end());
      }
      payload_bytes += f.bytes.size();
    }
    worker_cpu_critical = model_.shard_cpu(max_worker * scale, p, {});
    raw_pages_total = captured;
  } else {
    // Encode shards: worker w owns frames w, w+p, ... (disjoint), granted
    // pool work tagged kEncode so fleet accounting sees the stage. The
    // critical path is the slowest worker; the total is the §8.7 CPU work.
    const EncodeStats enc_before = encoder_->stats();
    std::vector<EncodeWork> enc_work(p);
    pool_->run_shards(
        pool_client_, p,
        [&](std::uint32_t w) {
          for (std::size_t i = w; i < frames.size(); i += p) {
            encoder_->encode_region(vm_->memory(), frames[i], enc_work[w]);
          }
        },
        MigratorPool::WorkKind::kEncode);
    for (const EncodeWork& w : enc_work) {
      const sim::Duration enc_cost = model_.encode_cpu(
          w.zero_scans * scale, w.hashes * scale, w.delta_pages * scale);
      worker_cpu_critical =
          std::max(worker_cpu_critical,
                   model_.shard_cpu(w.raw_pages * scale, p, enc_cost));
      encode_cpu_total += enc_cost;
      raw_pages_total += w.raw_pages;
      payload_bytes += w.bytes_out;
    }
    const EncodeStats enc_now = encoder_->stats();
    if (config_.tracer != nullptr && captured > 0) {
      config_.tracer->instant(
          sim_.now(), "epoch.encode", "ckpt",
          {{"epoch", current_epoch_},
           {"pages_in", enc_now.pages_in - enc_before.pages_in},
           {"pages_raw", enc_now.pages_raw - enc_before.pages_raw},
           {"pages_zero", enc_now.pages_zero - enc_before.pages_zero},
           {"pages_delta", enc_now.pages_delta - enc_before.pages_delta},
           {"pages_skipped",
            enc_now.pages_skipped - enc_before.pages_skipped},
           {"bytes_in", enc_now.bytes_in - enc_before.bytes_in},
           {"bytes_out", enc_now.bytes_out - enc_before.bytes_out}});
    }
  }
  // Seal and fold serially, in seq order (the rolling digest is
  // order-sensitive by design).
  std::uint64_t digest = wire::digest_init();
  for (wire::RegionFrame& f : frames) {
    wire::seal_frame(f);
    digest = wire::digest_fold(digest, f);
  }
  staging_->expect_epoch({current_epoch_,
                          static_cast<std::uint64_t>(frames.size()), digest,
                          wire_version});

  bool retransmits_exhausted = false;
  const std::uint64_t retransmit_bytes =
      transmit_epoch_frames(frames, retransmits_exhausted);

  // (3) The epoch's mirrored disk writes travel with the checkpoint.
  std::uint64_t disk_bytes = 0;
  for (const auto& w : epoch_disk_writes_) disk_bytes += w.sectors * 512ULL;
  staging_->buffer_disk_writes(std::move(epoch_disk_writes_));
  epoch_disk_writes_.clear();

  // (4) vCPU + device states, translated when heterogeneous. Disk-mirror
  // bytes ride along; note they are *not* multiplied by model_scale — guest
  // programs issue disk writes at their modelled op rates, so the volume is
  // already in model units (unlike page counts, which are real and scaled).
  // A slowed-down primary disk (injected fault) stretches the mirror read.
  sim::Duration disk_cost = model_.wire_time(disk_bytes);
  const double disk_slow = primary_.hypervisor().disk(*vm_).slowdown();
  if (disk_slow > 1.0) disk_cost = scaled(disk_cost, disk_slow);
  sim::Duration state_cost = snapshot_state_and_program() + disk_cost;

  // Pause duration t = f(N)/P + C (Eq. 3/4). Under speculative CoW the
  // dirty set is only duplicated locally during the pause; the network push
  // runs in the background after the VM resumes. With encoders the wire term
  // serializes the *encoded* bytes and the CPU term pays the encode cycles —
  // the observed pause is the real cost of the cheaper stream, which is what
  // PeriodManager/Algorithm 1 re-optimise T and P against.
  const sim::Duration scan_cost = model_.scan(pages * scale, p);
  sim::Duration copy_cost =
      model_.checkpoint_copy(worker_cpu_critical, payload_bytes * scale);
  // Selective retransmissions re-ship their regions' payloads (as sealed,
  // i.e. encoded when encoders are on): the repair happens inside the
  // epoch's transfer window, inflating it.
  if (retransmit_bytes > 0) {
    copy_cost += model_.wire_time(retransmit_bytes * scale);
  }
  // Impaired interconnect: lost checkpoint packets retransmit (1/(1-loss))
  // and a throttled link stretches serialization (1/bandwidth_factor). The
  // guard keeps fault-free runs bit-identical to the unimpaired engine.
  double net_penalty = 1.0;
  if (link.loss > 0.0) net_penalty /= (1.0 - link.loss);
  if (link.bandwidth_factor < 1.0) net_penalty /= link.bandwidth_factor;
  if (net_penalty > 1.0) {
    copy_cost = scaled(copy_cost, net_penalty);
    state_cost = scaled(state_cost, net_penalty);
  }
  // Shared-link arbitration: reserve this epoch's wire bytes on the
  // secondary's ingest link. Contention shows up as actual > ideal; the
  // difference stretches the transfer exactly like a slower dedicated wire
  // would, so it folds into copy_cost (and from there into the pause or the
  // background push). Uncontended grants have actual == ideal: zero stretch,
  // byte-identical to the dedicated-wire model.
  const std::uint64_t wire_bytes = payload_bytes * scale + disk_bytes;
  if (env_.link_arbiter != nullptr) {
    const net::LinkArbiter::Reservation res =
        env_.link_arbiter->request(arb_flow_, wire_bytes);
    if (res.actual > res.ideal) copy_cost += res.actual - res.ideal;
  }
  // Durable ack path: the replica WAL-appends the epoch (the same bytes)
  // before acking, so the local NVMe append rides the commit's critical
  // path. Local to the secondary — deliberately outside the net_penalty
  // scaling above.
  if (env_.durable_store != nullptr) {
    state_cost += model_.durable_append(wire_bytes);
  }
  const sim::Duration constants =
      TimeModel::kCheckpointSetup +
      primary_.hypervisor().cost_profile().vm_pause +
      primary_.hypervisor().cost_profile().vm_resume;
  sim::Duration pause;
  sim::Duration background{};
  if (config_.speculative_cow) {
    pause = constants + scan_cost + model_.cow_snapshot(max_worker * scale, p);
    background = copy_cost + state_cost;
    // The CoW buffer doubles the epoch's resident footprint on the primary.
    primary_.account_replication_memory(
        common::pages_to_bytes(captured * scale));
  } else {
    pause = constants + scan_cost + copy_cost + state_cost;
  }
  // An injected migrator stall holds the VM paused for its duration.
  if (pending_stall_ > sim::Duration::zero()) {
    pause += pending_stall_;
    pending_stall_ = {};
  }

  // Integrity fallback: retransmission rounds exhausted with regions still
  // failing verification — this epoch can never commit. Fold it back into
  // the running epoch and retry with backoff (output commit holds: the
  // epoch's buffered output is released only by a later successful commit).
  if (retransmits_exhausted) {
    pool_->commit_burst(pool_client_, pause);
    abort_epoch("retransmit budget exhausted with corrupt regions",
                was_running, pause);
    return;
  }

  // Abort-and-retry: a transfer that cannot land within the deadline would
  // stretch the pause unboundedly (exactly the wedge HERE's watchdog would
  // misread as a dead primary). Give up on this epoch, resume the guest
  // after the scan it already paid for, and retry with backoff.
  if (config_.ft.checkpoint_timeout > sim::Duration::zero() &&
      pause + background > config_.ft.checkpoint_timeout) {
    const sim::Duration abort_pause = constants + scan_cost;
    pool_->commit_burst(pool_client_, abort_pause);
    abort_epoch("projected transfer exceeds checkpoint_timeout", was_running,
                abort_pause);
    return;
  }

  // The burst's busy window covers the whole epoch transfer — pause plus any
  // speculative background push — so overlapping engines see the contention.
  pool_->commit_burst(pool_client_, pause + background);

  if (config_.tracer != nullptr) {
    const sim::TimePoint pause_begin = sim_.now();
    config_.tracer->complete(pause_begin, pause, "ckpt.pause", "ckpt", 0,
                             {{"epoch", epoch},
                              {"dirty_pages", captured * scale},
                              {"threads", p}});
    // One span per migrator thread, on its own tid (tid 0 is the
    // coordinator). Worker w's share of the copy is proportional to its
    // page count, so the span never outlasts the aggregate copy cost —
    // which keeps spans on one tid disjoint across epochs.
    const sim::TimePoint copy_begin =
        pause_begin + primary_.hypervisor().cost_profile().vm_pause +
        scan_cost;
    for (std::uint32_t w = 0; w < p; ++w) {
      if (per_worker_pages[w] == 0 || max_worker == 0) continue;
      const auto share = static_cast<std::int64_t>(
          static_cast<double>(copy_cost.count()) *
          static_cast<double>(per_worker_pages[w]) /
          static_cast<double>(max_worker));
      config_.tracer->complete(copy_begin, sim::Duration{share},
                               "migrator.copy", "ckpt", w + 1,
                               {{"epoch", epoch},
                                {"pages", per_worker_pages[w] * scale}});
    }
  }

  // §8.7: CPU-seconds burnt by the replication threads (work, not makespan).
  // The encoder's cycles are work too — every worker's, not just the
  // critical path's. Only the raw pages did the full stream copy; collapsed
  // pages' cycles are in encode_cpu_total.
  const double copy_eff = TimeModel::efficiency(TimeModel::kCopyEff, p);
  const sim::Duration cpu_work =
      sim::Duration{static_cast<std::int64_t>(
          static_cast<double>(TimeModel::kPerPageCopy.count()) *
          static_cast<double>(raw_pages_total * scale) / copy_eff)} +
      scan_cost * static_cast<std::int64_t>(p) +
      TimeModel::kCheckpointSetup + encode_cpu_total;
  stats_.replication_cpu += cpu_work;
  primary_.account_replication_cpu(cpu_work);
  primary_.account_replication_memory(staging_->peak_buffered_bytes() * scale);

  checkpoint_finish_event_ = sim_.schedule_after(
      pause,
      [this, epoch, captured, period_used, pause, was_running, background] {
        // A link that died while the epoch was being pushed aborts it before
        // the new execution epoch opens, keeping buffered output in the
        // current one.
        if (epoch_lost("interconnect down at commit", was_running)) return;
        // A new execution epoch starts the moment the VM resumes; output
        // produced from here on must wait for the *next* commit.
        ++current_epoch_;
        if (background == sim::Duration{}) {
          finish_checkpoint(epoch, captured, period_used, pause);
          if (was_running) primary_.hypervisor().resume(*vm_);
          return;
        }
        // Speculative CoW: resume now; commit (and release epoch N's
        // output) only when the background transfer lands.
        if (was_running) primary_.hypervisor().resume(*vm_);
        checkpoint_finish_event_ = sim_.schedule_after(
            background,
            [this, epoch, captured, period_used, pause] {
              if (epoch_lost("interconnect down in background transfer",
                             /*was_running=*/false)) {
                return;
              }
              finish_checkpoint(epoch, captured, period_used, pause);
            },
            "checkpoint-commit");
      },
      "checkpoint-done");
}

bool ReplicationEngine::epoch_lost(const char* link_reason,
                                   bool was_running) {
  if (!primary_.alive() || failover_in_progress_) {
    // Host died while the checkpoint was in flight: the replica discards the
    // partial epoch and will activate the previous one. (If this failover is
    // later fenced, fold_back_epoch restores the capture.)
    abort_staged_epoch();
    return true;
  }
  const net::LinkQuality q =
      fabric_.link_quality(primary_.ic_node(), secondary_.ic_node());
  if (q.connected && !q.down) return false;
  abort_epoch(link_reason, was_running);
  return true;
}

std::uint64_t ReplicationEngine::transmit_epoch_frames(
    const std::vector<wire::RegionFrame>& frames, bool& exhausted) {
  exhausted = false;
  std::uint64_t retransmit_bytes = 0;
  bool saw_corruption = false;
  const net::NodeId src = primary_.ic_node();
  const net::NodeId dst = secondary_.ic_node();

  auto offer = [&](const wire::RegionFrame& rx, bool count) {
    if (staging_->receive_frame(rx) == FrameVerdict::kCorrupt && count) {
      saw_corruption = true;
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
         round < config_.ft.retransmit_budget) {
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

  if (saw_corruption) {
    ++corruption_streak_;
    if (corruption_streak_ >= 3) {
      notify_degraded(DegradedKind::kDataCorruption,
                      "checkpoint frames failed verification in " +
                          std::to_string(corruption_streak_) +
                          " consecutive epochs");
    }
  } else {
    corruption_streak_ = 0;
  }
  return retransmit_bytes;
}

void ReplicationEngine::finish_checkpoint(std::uint64_t epoch,
                                          std::uint64_t captured_real,
                                          sim::Duration period_used,
                                          sim::Duration pause) {
  const Expected<std::uint64_t> committed = staging_->commit();
  if (!committed.ok()) {
    // The replica refused the epoch: its verification state says the image
    // would be corrupt. Same recovery as any abort — fold the capture back
    // into the running epoch and retry; the epoch's buffered output stays
    // held until a later commit actually releases it.
    bump(&EngineStats::commits_rejected);
    if (config_.tracer != nullptr) {
      config_.tracer->instant(sim_.now(), "epoch.commit_rejected", "ckpt",
                              {{"epoch", epoch},
                               {"status", committed.status().to_string()}});
    }
    abort_epoch("replica refused commit: integrity verification failed",
                /*was_running=*/false);
    return;
  }
  // The replica committed: promote the encoder's staged references so the
  // next epoch deltas/skips against what the replica now actually holds.
  if (encoder_ != nullptr) {
    encoder_->commit_epoch();
    sync_encode_stats();
  }
  last_epoch_gfns_.clear();
  last_epoch_disk_writes_.clear();
  abort_streak_ = 0;

  // Durable ack path: the commit above WAL-appended exactly one record (or
  // rotated into a snapshot) before returning. Re-mirror the replica's
  // committed digests on the engine side — staging dies with a secondary
  // crash, and the rejoin diff needs the last-acked references.
  if (env_.durable_store != nullptr) bump(&EngineStats::wal_appends);
  mirror_committed_digests();
  // First commit after a secondary rejoin: the resynced image is acked and
  // (if durable) persisted, so the VM survives a primary failure again.
  if (rejoining_) {
    rejoining_ = false;
    stats_.last_rejoin_time = sim_.now() - secondary_crashed_at_;
    if (m_rejoin_ms_ != nullptr) {
      m_rejoin_ms_->add(sim::to_seconds(stats_.last_rejoin_time) * 1e3);
    }
    if (config_.tracer != nullptr) {
      config_.tracer->instant(sim_.now(), "rejoin.protected", "fo",
                              {{"epoch", epoch},
                               {"rejoin_ns",
                                stats_.last_rejoin_time.count()}});
    }
    HERE_LOG(kInfo, "secondary rejoined: protection restored after %s",
             sim::format_duration(stats_.last_rejoin_time).c_str());
  }

  const std::uint64_t scale = vm_->spec().model_scale;
  CheckpointRecord record;
  record.epoch = epoch;
  record.completed_at = sim_.now();
  record.period_used = period_used;
  record.pause = pause;
  record.dirty_pages_model = captured_real * scale;
  record.bytes_model = common::pages_to_bytes(record.dirty_pages_model);
  record.degradation = sim::to_seconds(pause) /
                       (sim::to_seconds(pause) + sim::to_seconds(period_used));
  stats_.checkpoints.push_back(record);
  stats_.total_pause += pause;

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
    m_pause_ms_->add(sim::to_seconds(pause) * 1e3);
    m_degradation_pct_->add(record.degradation * 100.0);
  }
  for (EngineObserver* o : observers_) o->on_checkpoint_committed(record);

  // Output commit: packets of the epoch that just committed are released.
  outbound_.release_up_to(epoch, sim_.now());

  // Period policy input: measured pause, plus whether the epoch carried
  // guest I/O (the Adaptive Remus baseline's trigger).
  const std::uint64_t captured_now = outbound_.captured_total();
  period_.observe_epoch(pause, captured_now > epoch_start_captured_);
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
  last_checkpoint_done_ = sim_.now();
  schedule_checkpoint();
}

}  // namespace here::rep
