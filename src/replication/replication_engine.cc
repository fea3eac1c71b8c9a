#include "replication/replication_engine.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <stdexcept>
#include <string_view>

#include "common/fnv.h"
#include "common/log.h"
#include "common/units.h"
#include "xlate/translator.h"

namespace here::rep {

using common::kPagesPerRegion;

Status validate_replication_config(const ReplicationConfig& config) {
  if (const Status s = check_period_config(config.period); !s.ok()) return s;
  if (config.checkpoint_threads == 0) {
    return Status::invalid_argument(
        "ReplicationConfig: checkpoint_threads must be >= 1");
  }
  if (config.heartbeat_interval <= sim::Duration::zero()) {
    return Status::invalid_argument(
        "ReplicationConfig: heartbeat_interval must be positive");
  }
  if (config.heartbeat_timeout <= config.heartbeat_interval) {
    return Status::invalid_argument(
        "ReplicationConfig: heartbeat_timeout must exceed "
        "heartbeat_interval, or every missed beat is a false failover");
  }
  const FaultToleranceConfig& ft = config.ft;
  if (ft.seed_max_attempts == 0) {
    return Status::invalid_argument(
        "ReplicationConfig: ft.seed_max_attempts must be >= 1");
  }
  if (ft.seed_attempt_timeout < sim::Duration::zero() ||
      ft.checkpoint_timeout < sim::Duration::zero() ||
      ft.fencing_window < sim::Duration::zero() ||
      ft.scrub_interval < sim::Duration::zero()) {
    return Status::invalid_argument(
        "ReplicationConfig: ft timeouts/windows must be non-negative");
  }
  if (ft.seed_max_attempts > 1 &&
      ft.seed_retry_backoff <= sim::Duration::zero()) {
    return Status::invalid_argument(
        "ReplicationConfig: ft.seed_retry_backoff must be positive when "
        "seeding retries are enabled");
  }
  if (ft.probe_on_heartbeat_loss &&
      ft.probe_timeout <= sim::Duration::zero()) {
    return Status::invalid_argument(
        "ReplicationConfig: ft.probe_timeout must be positive when "
        "probe_on_heartbeat_loss is set");
  }
  if (!(config.flow_weight > 0.0)) {
    return Status::invalid_argument(
        "ReplicationConfig: flow_weight must be positive");
  }
  if (config.replica_max_wire_version > wire::kWireVersionEncoded) {
    return Status::invalid_argument(
        "ReplicationConfig: replica_max_wire_version exceeds the highest "
        "implemented wire version");
  }
  return Status::ok_status();
}

namespace {

// Fail-fast validation, run in the constructor's init list *before* any
// member that consumes the config is built (a zero thread count would
// otherwise reach the migrator pool's constructor first).
ReplicationConfig validated(ReplicationConfig config) {
  if (const Status s = validate_replication_config(config); !s.ok()) {
    throw std::invalid_argument(std::string(s.message()));
  }
  return config;
}

sim::Duration scaled(sim::Duration d, double factor) {
  return sim::Duration{
      static_cast<std::int64_t>(static_cast<double>(d.count()) * factor)};
}

using enum CounterGate;

constexpr EngineCounterRow kCounterRows[] = {
    {"rep.epochs_committed", kAlways, &EngineStats::epochs_committed},
    {"rep.dirty_pages_total", kAlways, &EngineStats::dirty_pages_total},
    {"rep.bytes_total", kAlways, &EngineStats::bytes_total},
    {"rep.heartbeats_sent", kAlways, &EngineStats::heartbeats_sent},
    {"rep.seed_retries", kAlways, &EngineStats::seed_retries},
    {"rep.epochs_aborted", kAlways, &EngineStats::epochs_aborted},
    {"rep.failovers_fenced", kAlways, &EngineStats::failovers_fenced},
    {"rep.resume_probes", kAlways, &EngineStats::resume_probes},
    {"rep.primary_demotions", kAlways, &EngineStats::primary_demotions},
    {"rep.regions_corrupted", kAlways, &EngineStats::regions_corrupted},
    {"rep.retransmits", kAlways, &EngineStats::retransmits},
    {"rep.commits_rejected", kAlways, &EngineStats::commits_rejected},
    {"rep.scrub_runs", kAlways, &EngineStats::scrub_runs},
    {"rep.scrub_repairs", kAlways, &EngineStats::scrub_repairs},
    {"rep.enc_bytes_in", kEncoders, nullptr, &EncodeStats::bytes_in},
    {"rep.enc_bytes_out", kEncoders, nullptr, &EncodeStats::bytes_out},
    {"rep.enc_pages_zero", kEncoders, nullptr, &EncodeStats::pages_zero},
    {"rep.enc_pages_delta", kEncoders, nullptr, &EncodeStats::pages_delta},
    {"rep.enc_pages_skipped", kEncoders, nullptr, &EncodeStats::pages_skipped},
    {"rep.wal_appends", kDurable, &EngineStats::wal_appends},
    {"rep.wal_replays", kDurable, &EngineStats::wal_records_replayed},
    {"rep.resync_regions", kDurable, &EngineStats::resync_regions},
};

}  // namespace

std::span<const EngineCounterRow> engine_counter_rows() { return kCounterRows; }

ReplicationEngine::ReplicationEngine(sim::Simulation& simulation,
                                     net::Fabric& fabric, hv::Host& primary,
                                     hv::Host& secondary,
                                     ReplicationConfig config, EngineEnv env)
    : sim_(simulation),
      fabric_(fabric),
      primary_(primary),
      secondary_(secondary),
      config_(validated(std::move(config))),
      env_(env),
      model_(config_.time_model),
      own_pool_(env_.migrator_pool != nullptr
                    ? nullptr
                    : std::make_unique<MigratorPool>(simulation, threads())),
      pool_(own_pool_ != nullptr ? own_pool_.get() : env_.migrator_pool),
      period_(config_.period),
      outbound_(fabric) {
  if (config_.mode == EngineMode::kRemus &&
      secondary_.hypervisor().kind() != primary_.hypervisor().kind()) {
    throw std::invalid_argument("Remus baseline requires a homogeneous pair");
  }
  if (config_.mode == EngineMode::kRemus) {
    config_.checkpoint_threads = 1;
    config_.seed.mode = SeedMode::kXenDefault;
  }
  // Multithreaded PML seeding is the Xen model's extension; a KVM primary
  // (reverse direction) seeds through its global dirty bitmap instead.
  if (config_.seed.mode == SeedMode::kHereMultithreaded &&
      !primary_.hypervisor().supports_pml_rings()) {
    config_.seed.mode = SeedMode::kXenDefault;
  }
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& m = *config_.metrics;
    for (const EngineCounterRow& row : kCounterRows) {
      const bool on = row.gate == kAlways ||
                      (row.gate == kEncoders && config_.encoders.any()) ||
                      (row.gate == kDurable && env_.durable_store != nullptr);
      counters_.push_back(on ? &m.counter(row.metric) : nullptr);
    }
    if (env_.durable_store != nullptr) {
      m_rejoin_ms_ = &m.histogram(
          "rep.rejoin_ms",
          {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000});
    }
    m_pause_ms_ = &m.histogram(
        "rep.pause_ms",
        {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
    m_degradation_pct_ = &m.histogram(
        "rep.degradation_pct", {1, 2, 5, 10, 15, 20, 30, 40, 50, 75, 90, 100});
    m_mttr_ms_ = &m.histogram(
        "rep.mttr_ms", {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000});
    m_period_s_ = &m.gauge("rep.period_s");
  }
  outbound_.attach_obs(config_.tracer, config_.metrics);
}

ReplicationEngine::~ReplicationEngine() { cancel_scheduled_events(); }

void ReplicationEngine::cancel_scheduled_events() {
  for (const sim::EventId id :
       {checkpoint_event_, checkpoint_finish_event_, heartbeat_event_,
        watchdog_event_, seed_deadline_event_, seed_retry_event_, probe_event_,
        failover_activate_event_, scrub_event_, secondary_reboot_event_,
        resume_probe_event_}) {
    sim_.cancel(id);
  }
}

std::uint32_t ReplicationEngine::threads() const {
  return config_.mode == EngineMode::kRemus ? 1 : config_.checkpoint_threads;
}

void ReplicationEngine::bump(std::uint64_t EngineStats::*field,
                             std::uint64_t n) {
  stats_.*field += n;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (kCounterRows[i].field != field) continue;
    if (counters_[i] != nullptr) counters_[i]->add(n);
    return;
  }
}

void ReplicationEngine::sync_encode_stats() {
  const EncodeStats now = encoder_->stats();
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    const auto f = kCounterRows[i].encode_field;
    if (f != nullptr && counters_[i] != nullptr) {
      counters_[i]->add(now.*f - stats_.encode.*f);
    }
  }
  stats_.encode = now;
}

void ReplicationEngine::resume_guest() {
  if (vm_ != nullptr && primary_.alive() &&
      vm_->state() == hv::VmState::kPaused) {
    primary_.hypervisor().resume(*vm_);
  }
}

void ReplicationEngine::add_observer(EngineObserver* observer) {
  if (observer != nullptr) observers_.push_back(observer);
}

Status ReplicationEngine::start_protection(hv::Vm& vm) {
  if (vm_ != nullptr) {
    return Status::failed_precondition("engine already protecting a VM");
  }
  if (vm.state() != hv::VmState::kRunning) {
    return Status::failed_precondition("protect: VM must be running");
  }
  vm_ = &vm;

  // Enroll with the migrator pool and (fleet scheduling) the secondary's
  // ingest-link arbiter. Both are per-protection, so a re-protected
  // generation registers afresh. A private pool's only client weighs 1: its
  // fair share is the whole pool, exactly.
  pool_client_ =
      pool_->register_client(vm.spec().name, threads(),
                             own_pool_ != nullptr ? 1.0 : config_.flow_weight);
  if (env_.link_arbiter != nullptr) {
    arb_flow_ =
        env_.link_arbiter->register_flow(vm.spec().name, config_.flow_weight);
  }

  if (config_.tracer != nullptr) {
    config_.tracer->instant(
        sim_.now(), "engine.protect", "engine",
        {{"vm", vm.spec().name},
         {"mode", config_.mode == EngineMode::kRemus ? "remus" : "here"},
         {"heterogeneous", heterogeneous()}});
  }

  // §5.3/§7.4: reconcile CPUID so the VM can resume on either hypervisor.
  if (heterogeneous()) {
    vm.platform().cpuid = primary_.hypervisor().default_cpuid().intersect(
        secondary_.hypervisor().default_cpuid());
  }

  // Service endpoint: external clients reach the VM through this node.
  if (service_node_ == net::kInvalidNode) {
    service_node_ = fabric_.add_node(
        "svc-" + vm.spec().name,
        [this](const net::Packet& p) { on_service_packet(p); });
  }

  // Interpose the outbound buffer on the guest's network device.
  if (hv::NetDevice* dev = vm.net_device()) {
    dev->set_tx_hook([this](const net::Packet& p) { on_guest_tx(p); });
  }
  // Storage replication: local disk I/O completes immediately (Remus does
  // not delay local writes) while a copy of each write travels with the
  // running epoch to be applied on the replica at commit. A write the local
  // disk rejected (injected write errors) is not mirrored either, keeping
  // the two images digest-identical.
  if (hv::BlockDevice* blk = vm.block_device()) {
    hv::VirtualDisk& local = primary_.hypervisor().disk(vm);
    blk->set_write_hook([this, &local](const hv::DiskWrite& w) {
      if (local.apply(w)) epoch_disk_writes_.push_back(w);
    });
  }

  // Heartbeating starts with protection. A heartbeat arriving while a
  // fenced failover is pending means the primary is back: cancel it. The
  // source filter matters on a shared secondary: several engines listen on
  // the same host, and a neighbour VM's heartbeat must not refresh ours.
  secondary_.add_ic_handler([this](const net::Packet& p) {
    if (p.kind == kHeartbeatKind && p.src == primary_.ic_node()) {
      last_heartbeat_rx_ = sim_.now();
      if (failover_in_progress_ && fencing_armed_) fence_failover();
    }
  });
  // Resume-probe arbitration: the secondary answers a recovered primary's
  // probe; this handler — serialized with every other event on the sim's
  // queue — is the race's linearization point. The token filter keeps a
  // neighbour engine's probe (same host pair, different VM) out.
  probe_token_ = common::fnv1a(vm.spec().name, common::kFnvStreamOffset);
  secondary_.add_ic_handler([this](const net::Packet& p) {
    if (p.kind == kResumeProbeKind && p.src == primary_.ic_node() &&
        p.tag == probe_token_) {
      on_resume_probe(p);
    }
  });
  primary_.add_ic_handler([this](const net::Packet& p) {
    if (p.src != secondary_.ic_node() || p.tag != probe_token_) return;
    if (p.kind == kResumeGrantKind) {
      on_resume_grant();
    } else if (p.kind == kResumeDenyKind) {
      demote_primary("secondary denied resume (replica already active)");
    }
  });
  // A completed microreboot means the primary is back with its guests
  // preserved — but it must win the arbitration before any of them run.
  // Fail-stop repair() keeps the legacy path (heartbeats resume -> fencing).
  primary_.add_recovery_listener([this](bool microreboot) {
    if (microreboot) on_primary_recovered();
  });
  // Watchdog probes ride the management network, so an interconnect-only
  // partition can be told apart from a dead host (which answers nothing).
  primary_.add_eth_handler([this](const net::Packet& p) {
    if (p.kind == kProbeRequestKind) {
      send_control(primary_.eth_node(), p.src, kProbeReplyKind);
    }
  });
  secondary_.add_eth_handler([this](const net::Packet& p) {
    if (p.kind == kProbeReplyKind && p.src == primary_.eth_node()) {
      probe_reply_received_ = true;
    }
  });
  // The seed target dying mid-copy tears the attempt down immediately — a
  // half-written staging image must never survive to look activatable, and
  // the paused guest must not wait on a timeout to find out.
  secondary_.add_failure_listener([this](hv::FaultKind) {
    if (drained_ || seeded_ || seeder_ == nullptr) return;
    sim_.cancel(seed_deadline_event_);
    seeder_.reset();  // the destructor cancels the in-flight seeding event
    staging_.reset();
    resume_guest();
    schedule_seed_retry("secondary failed during seed");
  });
  last_heartbeat_rx_ = sim_.now();
  send_heartbeat();
  watchdog_check();

  begin_seed_attempt();
  return Status::ok_status();
}

// --- Seeding (with retry) ----------------------------------------------------

void ReplicationEngine::begin_seed_attempt() {
  if (drained_) return;
  ++stats_.seed_attempts;
  if (vm_ == nullptr) return;
  if (!primary_.alive()) {
    schedule_seed_retry("primary down at attempt start");
    return;
  }
  if (!secondary_.alive()) {
    schedule_seed_retry("secondary down at attempt start");
    return;
  }
  // A torn-down attempt may have left the VM paused mid-stop-copy.
  resume_guest();

  if (config_.tracer != nullptr && stats_.seed_attempts > 1) {
    config_.tracer->instant(sim_.now(), "seed.attempt", "seed",
                            {{"attempt", stats_.seed_attempts}});
  }
  seeder_.reset();  // cancel any stale in-flight seeding event first
  encoder_.reset();  // references describe the old staging image, if any
  delta_seeded_ = false;
  reset_staging();
  // Delta re-seed (cascading re-protection): when the durable store already
  // holds a snapshot+WAL — written by a previous engine generation whose
  // secondary is now this engine's secondary — the replica recovers locally
  // and only digest-divergent pages cross the wire.
  if (try_delta_seed()) return;
  // Durable ack path: from epoch 0 on, every commit persists before the
  // engine treats it as acked (the seed commit itself lands as a snapshot).
  if (env_.durable_store != nullptr) {
    staging_->attach_durable_store(env_.durable_store);
  }
  seeder_ = std::make_unique<Seeder>(sim_, model_, pool_->workers(),
                                     primary_.hypervisor(), *vm_, *staging_,
                                     config_.seed, config_.tracer);
  if (config_.ft.seed_attempt_timeout > sim::Duration::zero()) {
    seed_deadline_event_ = sim_.schedule_after(
        config_.ft.seed_attempt_timeout,
        [this] { on_seed_attempt_timeout(); }, "seed-deadline");
  }
  seeder_->start([this](const SeedResult& result) {
    sim_.cancel(seed_deadline_event_);
    on_seeded(result);
  });
}

void ReplicationEngine::on_seed_attempt_timeout() {
  if (seeded_) return;
  seeder_.reset();  // the destructor cancels the in-flight seeding event
  resume_guest();
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "seed.timeout", "seed",
                            {{"attempt", stats_.seed_attempts}});
  }
  schedule_seed_retry("attempt deadline exceeded");
}

void ReplicationEngine::schedule_seed_retry(const char* why) {
  if (stats_.seed_attempts >= config_.ft.seed_max_attempts) {
    HERE_LOG(kWarn, "seeding abandoned after %u attempt(s): %s",
             stats_.seed_attempts, why);
    if (config_.tracer != nullptr) {
      config_.tracer->instant(sim_.now(), "seed.abandoned", "seed",
                              {{"attempts", stats_.seed_attempts}});
    }
    notify_degraded(DegradedKind::kSeedAbandoned, why);
    return;
  }
  const std::uint32_t shift =
      std::min<std::uint32_t>(stats_.seed_attempts - 1, 6);
  const sim::Duration backoff =
      config_.ft.seed_retry_backoff * (std::int64_t{1} << shift);
  bump(&EngineStats::seed_retries);
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "seed.retry", "seed",
                            {{"attempt", stats_.seed_attempts},
                             {"backoff_ns", backoff.count()}});
  }
  notify_degraded(DegradedKind::kSeedRetry, why);
  HERE_LOG(kWarn, "seeding attempt %u failed (%s); retrying in %s",
           stats_.seed_attempts, why, sim::format_duration(backoff).c_str());
  seed_retry_event_ = sim_.schedule_after(
      backoff, [this] { begin_seed_attempt(); }, "seed-retry");
}

void ReplicationEngine::on_seeded(const SeedResult& result) {
  if (drained_) return;
  stats_.seed = result;
  // VM is paused and staging memory is byte-identical: commit epoch 0 with
  // the full disk image, machine state and program snapshot, then enter the
  // continuous phase.
  staging_->seed_disk(primary_.hypervisor().disk(*vm_));
  epoch_disk_writes_.clear();  // already contained in the full disk image
  staging_->begin_epoch(0);
  const sim::Duration state_cost = snapshot_state_and_program();
  // Epoch 0 commits without an armed expectation (the seed path byte-copied
  // the image directly), so a refusal here means staging itself is broken —
  // treat it like any other failed seeding attempt rather than ignoring it.
  if (const Expected<std::uint64_t> committed = staging_->commit();
      !committed.ok()) {
    schedule_seed_retry(committed.status().message().c_str());
    return;
  }

  // Should the secondary crash, the rejoin diff compares the recovered image
  // against the mirrored references; every page has a valid committed encoder
  // reference from epoch 1 on.
  baseline_references();

  sim_.schedule_after(state_cost, [this] { commit_initial_checkpoint(); },
                      "seed-state");
}

void ReplicationEngine::commit_initial_checkpoint() {
  if (!primary_.alive()) {
    // Died between stop-and-copy and the epoch-0 ACK: the staged image is
    // complete but the primary never learnt that. Retry from scratch.
    schedule_seed_retry("primary died during epoch-0 commit");
    return;
  }
  seeded_ = true;
  stats_.protected_at = sim_.now();
  // A fresh seed committed epoch 0 and runs from 1; a delta seed adopted the
  // recovered epoch E, committed E+1, and runs from E+2 — older generations'
  // WAL records stay strictly below anything this generation appends.
  current_epoch_ = staging_->committed_epoch() + 1;
  last_checkpoint_done_ = sim_.now();

  // Continuous phase tracks dirtying through the shared bitmap (§7.2(2));
  // PML rings were the seeding mechanism (never enabled by a delta seed).
  if (config_.seed.mode == SeedMode::kHereMultithreaded && !delta_seeded_) {
    primary_.hypervisor().disable_pml_rings(*vm_);
  }

  primary_.hypervisor().resume(*vm_);
  schedule_checkpoint();
  schedule_scrub();

  // Deliberately not an "epoch.commit": epoch 0 has no pause/period split,
  // so a degradation value would be 0/0.
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "epoch.seeded", "ckpt",
                            {{"pages_sent", stats_.seed.pages_sent},
                             {"total_ns", stats_.seed.total_time.count()}});
  }

  HERE_LOG(kInfo, "VM '%s' protected (%s -> %s), seed took %s",
           vm_->spec().name.c_str(), primary_.name().c_str(),
           secondary_.name().c_str(),
           sim::format_duration(stats_.seed.total_time).c_str());
  for (EngineObserver* o : observers_) o->on_protected(*vm_);
}

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
    staging_->install_seed_page(g, vm_->memory().page(g));
  }
  const std::uint64_t divergent = diff.pages.size();
  const std::uint64_t divergent_sectors = resync_disk();
  epoch_disk_writes_.clear();  // contained in the just-mirrored disk image

  // Commit the reconciled image as a fresh epoch above everything the store
  // already holds, then re-attach the store and snapshot.
  staging_->begin_epoch(staging_->committed_epoch() + 1);
  const sim::Duration state_cost = snapshot_state_and_program();
  if (const Expected<std::uint64_t> committed = staging_->commit();
      !committed.ok()) {
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
  stats_.seed.total_time = cost + state_cost;
  stats_.seed.stop_copy_time = cost + state_cost;

  delta_seeded_ = true;
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
  sim_.schedule_after(cost + state_cost,
                      [this] { commit_initial_checkpoint(); }, "seed-delta");
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
  const auto want = primary_disk.sorted_stamps();
  const auto have = staging_->disk().sorted_stamps();
  std::uint64_t divergent = 0;
  std::size_t i = 0;
  for (const auto& [sector, stamp] : want) {
    while (i < have.size() && have[i].first < sector) ++i;
    const bool match =
        i < have.size() && have[i].first == sector && have[i].second == stamp;
    if (!match) ++divergent;
  }
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

sim::Duration ReplicationEngine::snapshot_state_and_program() {
  std::unique_ptr<hv::SavedMachineState> saved =
      primary_.hypervisor().save_machine_state(*vm_);
  sim::Duration cost = model_.wire_time(saved->wire_bytes());

  if (heterogeneous()) {
    // Translate on receive so the committed state is already in the
    // replica's native format — failover needs no translation step.
    staging_->set_pending_state(
        xlate::translate_machine_state(*saved, secondary_.hypervisor()));
    cost += model_.config().state_translate_per_vcpu *
            static_cast<std::int64_t>(vm_->cpus().size());
  } else {
    staging_->set_pending_state(std::move(saved));
  }

  if (hv::GuestProgram* program = vm_->program()) {
    staging_->set_pending_program(program->clone());
  }
  // Checkpoint ACK round trip on the interconnect.
  cost += sim::from_micros(10);
  return cost;
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
  common::DirtyBitmap* bm = primary_.hypervisor().dirty_bitmap(*vm_);
  const std::uint64_t pages = vm_->memory().pages();
  for (std::uint32_t r = 0; r < staging_->region_count(); ++r) {
    const std::uint64_t reference = staging_->committed_region_digest(r);
    if (reference == 0) continue;  // nothing committed for this region yet
    if (staging_->live_region_digest(r) == reference) continue;
    ++repaired;
    bump(&EngineStats::scrub_repairs);
    // The region's committed bytes rotted after commit, so the primary's
    // encoder references no longer describe the replica's image: drop them
    // and the repair epoch ships the region raw. (Without this, a delta
    // against the rotten base would be refused every retry, forever.)
    if (encoder_ != nullptr) encoder_->invalidate_region(r);
    if (bm != nullptr) {
      const common::Gfn first = std::uint64_t{r} * kPagesPerRegion;
      const common::Gfn last =
          std::min<common::Gfn>(first + kPagesPerRegion, pages);
      for (common::Gfn g = first; g < last; ++g) bm->set(g);
    }
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
  sim::Duration backoff =
      config_.ft.checkpoint_retry_backoff * (std::int64_t{1} << shift);
  backoff = std::min(backoff, config_.period.t_max);
  if (backoff <= sim::Duration::zero()) backoff = config_.heartbeat_interval;
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
  std::vector<std::vector<common::Gfn>> found(p);
  std::vector<std::vector<common::Gfn>> region_gfns(regions);
  pool_->run_shards(pool_client_, p, [&](std::uint32_t w) {
    for (std::uint64_t r = w; r < regions; r += p) {
      const common::Gfn first = r * kPagesPerRegion;
      const common::Gfn last = std::min<common::Gfn>(first + kPagesPerRegion, pages);
      scratch.collect(first, last, region_gfns[r]);
      found[w].insert(found[w].end(), region_gfns[r].begin(),
                      region_gfns[r].end());
    }
    per_worker_pages[w] = found[w].size();
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
  for (const auto& w : found) {
    last_epoch_gfns_.insert(last_epoch_gfns_.end(), w.begin(), w.end());
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
      model_.config().checkpoint_setup +
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
  const double copy_eff = TimeModel::efficiency(model_.config().copy_eff, p);
  const sim::Duration cpu_work =
      sim::Duration{static_cast<std::int64_t>(
          static_cast<double>(model_.config().per_page_copy.count()) *
          static_cast<double>(raw_pages_total * scale) / copy_eff)} +
      scan_cost * static_cast<std::int64_t>(p) +
      model_.config().checkpoint_setup + encode_cpu_total;
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
  stats_.degradation_series.record(sim_.now(), record.degradation * 100.0);

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

// --- Heartbeat / failover -----------------------------------------------------

void ReplicationEngine::send_heartbeat() {
  // Keep beating while a failover is merely *in progress*: a healed
  // partition must be able to deliver the fencing signal. Only a completed
  // failover (replica active) or a lost arbitration silences the primary
  // for good.
  if (stats_.failed_over || primary_demoted_ || drained_) return;
  if (primary_.alive() && !resume_probe_pending_) {
    // While the resume probe is pending the recovered primary stays silent:
    // a heartbeat would fence an in-progress failover *around* the
    // arbitration, pre-empting the secondary's grant-or-deny decision.
    // Control message on the interconnect; a crashed host's packets drop, a
    // hung host never reaches this point.
    send_control(primary_.ic_node(), secondary_.ic_node(), kHeartbeatKind);
    bump(&EngineStats::heartbeats_sent);
  }
  heartbeat_event_ = sim_.schedule_after(config_.heartbeat_interval,
                                         [this] { send_heartbeat(); },
                                         "heartbeat");
}

void ReplicationEngine::add_detector(std::unique_ptr<FailureDetector> detector) {
  detectors_.push_back(std::move(detector));
}

void ReplicationEngine::watchdog_check() {
  if (stats_.failed_over || drained_) return;
  if (secondary_.alive() && seeded_ && !failover_in_progress_ &&
      !probe_in_flight_) {
    if (sim_.now() - last_heartbeat_rx_ > config_.heartbeat_timeout) {
      on_heartbeat_lost();
    } else {
      // Active detectors (starvation, guest watchdog, intrusion detection):
      // a hit hands the VM over to the clean hypervisor (§8.2). Detector
      // failovers are deliberate decisions, so they are never fenced.
      for (const auto& detector : detectors_) {
        if (const auto reason = detector->check(sim_.now())) {
          begin_failover(std::string(detector->name()) + ": " + *reason,
                         /*fence_on_heartbeat=*/false);
          break;
        }
      }
    }
    // The watchdog loop parks while a failover or probe is pending; the
    // fencing / probe-recovery paths restart it.
    if (failover_in_progress_ || probe_in_flight_) return;
  }
  watchdog_event_ = sim_.schedule_after(config_.heartbeat_interval,
                                        [this] { watchdog_check(); },
                                        "watchdog");
}

void ReplicationEngine::on_heartbeat_lost() {
  if (config_.ft.probe_on_heartbeat_loss) {
    if (fabric_.connected(secondary_.eth_node(), primary_.eth_node())) {
      // Ask the primary over the management network. A partitioned-but-live
      // host answers; a crashed or hung one cannot.
      probe_in_flight_ = true;
      probe_reply_received_ = false;
      send_control(secondary_.eth_node(), primary_.eth_node(),
                   kProbeRequestKind);
      if (config_.tracer != nullptr) {
        config_.tracer->instant(sim_.now(), "watchdog.probe", "fo",
                                {{"timeout_ns", config_.ft.probe_timeout.count()}});
      }
      probe_event_ = sim_.schedule_after(
          config_.ft.probe_timeout, [this] { finish_probe(); },
          "watchdog-probe");
      return;
    }
    // Both networks unreachable: indistinguishable from a dead machine.
    stats_.failure_classification = "crash-suspected";
    if (config_.tracer != nullptr) {
      config_.tracer->instant(sim_.now(), "watchdog.classify", "fo",
                              {{"classification", "crash-suspected"}});
    }
  }
  begin_failover("heartbeat timeout", /*fence_on_heartbeat=*/true);
}

void ReplicationEngine::finish_probe() {
  probe_in_flight_ = false;
  if (stats_.failed_over || failover_in_progress_) return;
  if (sim_.now() - last_heartbeat_rx_ <= config_.heartbeat_timeout) {
    watchdog_check();  // heartbeats recovered while probing; resume the loop
    return;
  }
  const bool partition = probe_reply_received_;
  stats_.failure_classification =
      partition ? "partition-suspected" : "crash-suspected";
  if (config_.tracer != nullptr) {
    config_.tracer->instant(
        sim_.now(), "watchdog.classify", "fo",
        {{"classification", stats_.failure_classification}});
  }
  if (partition) {
    notify_degraded(
        DegradedKind::kPartitionSuspected,
        "management network reachable while interconnect heartbeats lost");
  }
  begin_failover("heartbeat timeout", /*fence_on_heartbeat=*/true);
}

void ReplicationEngine::trigger_failover(const std::string& reason) {
  if (!failover_in_progress_ && !stats_.failed_over && !drained_) {
    begin_failover(reason, /*fence_on_heartbeat=*/false);
  }
}

void ReplicationEngine::begin_failover(const std::string& reason,
                                       bool fence_on_heartbeat) {
  if (drained_) return;
  if (!staging_ || !staging_->has_committed()) {
    HERE_LOG(kWarn, "failover requested (%s) but no committed checkpoint",
             reason.c_str());
    return;
  }
  failover_in_progress_ = true;
  fencing_armed_ =
      fence_on_heartbeat && config_.ft.fencing_window > sim::Duration::zero();
  stats_.failure_detected_at = sim_.now();
  sim_.cancel(checkpoint_event_);
  abort_staged_epoch();
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "failover.begin", "fo",
                            {{"reason", reason}});
  }
  for (EngineObserver* o : observers_) o->on_failover_started(reason);

  HERE_LOG(kInfo, "failover: %s; activating replica on %s", reason.c_str(),
           secondary_.name().c_str());

  // kvmtool builds the VM around the already-resident replica memory:
  // process setup + device plumbing + state load. No memory copy — which is
  // why resumption time is flat in VM size (Fig. 7).
  const hv::HvCostProfile& cost = secondary_.hypervisor().cost_profile();
  const auto n_devices =
      static_cast<std::int64_t>(staging_->committed_state() != nullptr ? 3 : 0);
  sim::Duration d = cost.create_vm_base + cost.per_device_setup * n_devices +
                    cost.state_load + cost.vm_resume;
  // Scheduler/IRQ-routing jitter observed on real activations (Fig. 7 shows
  // a 1-6 ms scatter that does not correlate with VM size).
  d += sim::from_micros(
      secondary_.hypervisor().rng().uniform_real(-600.0, 1800.0));
  // Fenced failovers hold activation for the fencing window: if the primary
  // heartbeats again within it, the replica stands down (split-brain guard).
  if (fencing_armed_) d += config_.ft.fencing_window;
  failover_activate_event_ =
      sim_.schedule_after(d, [this] { activate_replica(); },
                          "failover-activate");
}

void ReplicationEngine::stand_down_failover(bool by_probe,
                                            const char* detail) {
  sim_.cancel(failover_activate_event_);
  sim_.cancel(checkpoint_finish_event_);
  failover_in_progress_ = false;
  fencing_armed_ = false;
  bump(&EngineStats::failovers_fenced);
  if (config_.tracer != nullptr && by_probe) {
    config_.tracer->instant(sim_.now(), "failover.fenced", "fo",
                            {{"fenced_total", stats_.failovers_fenced},
                             {"by", "resume-probe"}});
  } else if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "failover.fenced", "fo",
                            {{"fenced_total", stats_.failovers_fenced}});
  }
  notify_degraded(DegradedKind::kFailoverFenced, detail);
}

void ReplicationEngine::fence_failover() {
  if (!failover_in_progress_ || stats_.failed_over) return;
  stand_down_failover(/*by_probe=*/false,
                      "primary heartbeats resumed within the fencing window");
  // The epoch aborted at failover start folds back into the running epoch;
  // its buffered output was never dropped (that happens only at activation),
  // so the next commit releases it and clients see a gapless stream.
  fold_back_epoch();
  resume_guest();
  last_checkpoint_done_ = sim_.now();
  schedule_checkpoint();
  watchdog_check();
  HERE_LOG(kInfo,
           "failover fenced: primary heartbeats resumed; replication resumes");
}

void ReplicationEngine::activate_replica() {
  fencing_armed_ = false;
  // Output commit: uncommitted output dies with the primary — dropped at
  // the moment the replica takes over the service address, not earlier (a
  // fenced failover must leave the buffer intact for the next commit).
  stats_.packets_dropped_at_failover = outbound_.drop_all();
  if (config_.tracer != nullptr) {
    config_.tracer->instant(
        sim_.now(), "io.drop", "io",
        {{"dropped", stats_.packets_dropped_at_failover}});
  }

  hv::Hypervisor& target = secondary_.hypervisor();
  hv::Vm& replica = target.create_vm(staging_->spec());

  // Install the committed memory image (already resident in staging). A
  // fresh VM's frames are zeroed, so all-zero pages need no install at all —
  // the activation loop gets the same content-aware elision as the wire.
  for (common::Gfn g = 0; g < staging_->memory().pages(); ++g) {
    const auto page = staging_->memory().page(g);
    if (is_zero_page(page)) continue;
    replica.memory().install_page(g, page);
  }
  // The replica's disk is the committed mirror (already applied up to the
  // last committed epoch).
  target.disk(replica) = staging_->disk();
  // Committed machine state is already in the target's format (translation
  // happened on checkpoint receive).
  target.load_machine_state(replica, *staging_->committed_state());

  if (auto program = staging_->take_committed_program()) {
    replica.attach_program(std::move(program));
  }

  // Direct egress from now on: the replica runs unprotected (re-protection
  // in the opposite direction is future work, as in the paper).
  if (hv::NetDevice* dev = replica.net_device()) {
    dev->set_tx_hook([this](const net::Packet& p) {
      net::Packet out = p;
      out.src = service_node_;
      fabric_.send(out);
    });
  }

  stats_.replica_digest_at_activation = replica.memory().full_digest();
  stats_.committed_digest_at_activation = staging_->memory().full_digest();
  stats_.replica_disk_digest_at_activation = target.disk(replica).digest();
  stats_.committed_disk_digest_at_activation = staging_->disk().digest();

  replica_vm_ = &replica;
  target.start(replica);
  // Guest agent: unplug-old/plug-new device notification (§7.3).
  replica.agent_notify_device_switch(sim_.now(), target.rng());

  stats_.failed_over = true;
  stats_.replica_active_at = sim_.now();
  stats_.resumption_time = sim_.now() - stats_.failure_detected_at;
  failover_in_progress_ = false;
  if (m_mttr_ms_ != nullptr) {
    m_mttr_ms_->add(sim::to_seconds(stats_.resumption_time) * 1e3);
  }

  if (config_.tracer != nullptr) {
    config_.tracer->instant(
        sim_.now(), "failover.replica_active", "fo",
        {{"epoch", staging_->committed_epoch()},
         {"resumption_ns", stats_.resumption_time.count()},
         {"packets_dropped", stats_.packets_dropped_at_failover}});
  }
  for (EngineObserver* o : observers_) o->on_replica_active(replica);

  HERE_LOG(kInfo, "replica active on %s after %s (epoch %llu)",
           secondary_.name().c_str(),
           sim::format_duration(stats_.resumption_time).c_str(),
           static_cast<unsigned long long>(staging_->committed_epoch()));
}

// --- Fault hooks / observers ---------------------------------------------------

void ReplicationEngine::inject_migrator_stall(sim::Duration stall) {
  if (stall <= sim::Duration::zero()) return;
  pending_stall_ += stall;
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "fault.migrator_stall", "ckpt",
                            {{"stall_ns", stall.count()}});
  }
  notify_degraded(DegradedKind::kMigratorStall,
                  "migrator threads stalled by fault injection");
}

void ReplicationEngine::drain(const std::string& reason) {
  if (drained_) return;
  drained_ = true;
  // Everything this generation ever scheduled is cancelled; a drained
  // engine is inert except for reads.
  cancel_scheduled_events();
  seeder_.reset();
  failover_in_progress_ = false;
  fencing_armed_ = false;
  probe_in_flight_ = false;
  // A drain can land mid-epoch (guest paused for capture): fold the capture
  // back into the running epoch — the successor re-ships those pages — and
  // let the guest run again.
  fold_back_epoch();
  if (!resume_probe_pending_) resume_guest();
  // Unreleased output belongs to epochs that will never commit through this
  // engine. Dropping it is the same output-commit call failover makes: a
  // never-released packet was never client-visible.
  stats_.packets_dropped_at_drain += outbound_.drop_all();
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "engine.drain", "engine",
                            {{"reason", reason}});
  }
  HERE_LOG(kInfo, "engine: generation drained (%s)", reason.c_str());
}

void ReplicationEngine::inject_secondary_crash(sim::Duration reboot_after) {
  if (vm_ == nullptr || !seeded_ || stats_.failed_over ||
      failover_in_progress_ || secondary_down_ || drained_) {
    return;
  }
  if (reboot_after < sim::Duration::zero()) reboot_after = sim::Duration{};
  ++stats_.secondary_crashes;
  secondary_down_ = true;
  rejoining_ = true;
  secondary_crashed_at_ = sim_.now();
  // The in-flight epoch (if any) dies with the replica's RAM: discard both
  // sides of the stream and fold the capture back into the running epoch so
  // the rejoin re-ships it. Output stays buffered — output commit holds
  // across the outage, released by the first post-rejoin commit.
  sim_.cancel(checkpoint_event_);
  sim_.cancel(checkpoint_finish_event_);
  sim_.cancel(scrub_event_);
  fold_back_epoch();
  staging_.reset();
  resume_guest();
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "fault.secondary_crash", "fo",
                            {{"reboot_after_ns", reboot_after.count()},
                             {"durable", env_.durable_store != nullptr}});
  }
  notify_degraded(DegradedKind::kSecondaryCrash,
                  "secondary crashed; replica staging lost — protection "
                  "suspended until rejoin");
  secondary_reboot_event_ = sim_.schedule_after(
      reboot_after, [this] { on_secondary_rebooted(); }, "secondary-reboot");
}

void ReplicationEngine::on_secondary_rebooted() {
  if (vm_ == nullptr || stats_.failed_over || failover_in_progress_ ||
      drained_) {
    return;
  }
  secondary_down_ = false;
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
    for (std::uint32_t r = 0; r < regions; ++r) {
      if (encoder_ != nullptr) encoder_->invalidate_region(r);
    }
    if (bm != nullptr) {
      for (common::Gfn g = 0; g < vm_->memory().pages(); ++g) bm->set(g);
    }
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
  notify_degraded(
      DegradedKind::kSecondaryRejoined,
      (recovered ? "secondary recovered from snapshot+WAL; resyncing " +
                       std::to_string(resync) + " of " +
                       std::to_string(regions) + " region(s) by delta"
                 : "secondary rebooted without recoverable state; full "
                   "resync of " + std::to_string(regions) + " region(s)"));

  // Checkpointing resumes once the local replay has (in modelled time)
  // finished; the first epoch then carries the resync set.
  secondary_reboot_event_ = sim_.schedule_after(
      recovery_cost,
      [this] {
        if (vm_ == nullptr || stats_.failed_over || failover_in_progress_) {
          return;
        }
        last_checkpoint_done_ = sim_.now();
        schedule_checkpoint();
        schedule_scrub();
      },
      "rejoin-resume");
}

// --- Recovered-primary arbitration (ReHype microreboot race) -------------------

void ReplicationEngine::on_primary_recovered() {
  if (vm_ == nullptr || primary_demoted_ || resume_probe_pending_ ||
      !seeded_ || drained_) {
    return;
  }
  if (stats_.failed_over) {
    // The race is already over: the replica took the service address while
    // the primary was rebooting. Nothing to probe.
    demote_primary("replica already active at recovery");
    return;
  }
  resume_probe_pending_ = true;
  // The microreboot resumed the preserved guests, but the protected VM must
  // not produce output until arbitration says this side still owns it (two
  // running instances of the service is exactly the split brain to prevent).
  if (vm_->state() == hv::VmState::kRunning) primary_.hypervisor().pause(*vm_);
  // Nothing scheduled before the crash may fire mid-arbitration: a stale
  // checkpoint-finish event would resume the VM (and commit a pre-crash
  // epoch) behind the probe's back. The grant path folds the aborted epoch
  // back in and restarts the loop.
  sim_.cancel(checkpoint_event_);
  sim_.cancel(checkpoint_finish_event_);
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "recovery.arbitrate", "fo",
                            {{"vm", vm_->spec().name}});
  }
  send_resume_probe();
}

void ReplicationEngine::send_resume_probe() {
  if (!resume_probe_pending_ || primary_demoted_) return;
  if (!primary_.alive()) {
    // Crashed again before winning: the arbitration attempt dies with the
    // host; the next recovery starts a fresh one.
    resume_probe_pending_ = false;
    return;
  }
  bump(&EngineStats::resume_probes);
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "resume.probe", "fo",
                            {{"probes", stats_.resume_probes}});
  }
  // A dead secondary cannot arbitrate — and cannot have activated either, so
  // the recovered primary is trivially authoritative (self-grant).
  if (!secondary_.alive() && !failover_in_progress_ && !stats_.failed_over) {
    on_resume_grant();
    return;
  }
  send_control(primary_.ic_node(), secondary_.ic_node(), kResumeProbeKind,
               probe_token_);
  // Keep probing (partition, drop, hung secondary) until a verdict arrives.
  const sim::Duration retry = config_.ft.probe_timeout > sim::Duration::zero()
                                  ? config_.ft.probe_timeout
                                  : config_.heartbeat_interval;
  resume_probe_event_ = sim_.schedule_after(
      retry, [this] { send_resume_probe(); }, "resume-probe");
}

void ReplicationEngine::on_resume_probe(const net::Packet& packet) {
  if (secondary_down_) return;  // replication process dead; probe retries
  // A drained generation no longer speaks for this VM: the successor engine
  // (same probe token) answers the arbitration instead.
  if (drained_) return;
  // Linearization point: this handler runs atomically on the event queue, so
  // the verdict below is consistent with any failover armed or completed.
  // Once activation happened the answer is deny — forever; before it, the
  // probe cancels an armed-but-unfired failover exactly like fencing does.
  const bool deny = stats_.failed_over;
  if (!deny) {
    last_heartbeat_rx_ = sim_.now();
    if (failover_in_progress_) {
      stand_down_failover(/*by_probe=*/true,
                          "recovered primary probed before replica activation");
      watchdog_check();  // the loop parked when the failover began
    }
  }
  send_control(secondary_.ic_node(), packet.src,
               deny ? kResumeDenyKind : kResumeGrantKind, probe_token_);
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), deny ? "resume.deny" : "resume.grant",
                            "fo", {{"failed_over", stats_.failed_over}});
  }
}

void ReplicationEngine::on_resume_grant() {
  if (!resume_probe_pending_ || primary_demoted_ || stats_.failed_over) return;
  resume_probe_pending_ = false;
  sim_.cancel(resume_probe_event_);
  ++stats_.resume_grants;
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "resume.resumed", "fo",
                            {{"grants", stats_.resume_grants}});
  }
  // The epoch that died with the crash folds back into the running one so
  // the first post-recovery checkpoint re-ships it (output commit held: its
  // buffered output was never dropped, only activation drops).
  fold_back_epoch();
  resume_guest();
  if (staging_ && !secondary_down_ && seeded_) {
    sim_.cancel(checkpoint_event_);
    last_checkpoint_done_ = sim_.now();
    schedule_checkpoint();
  }
  HERE_LOG(kInfo,
           "recovered primary won arbitration; output commit resumes");
}

void ReplicationEngine::demote_primary(const char* reason) {
  if (primary_demoted_) return;
  primary_demoted_ = true;
  resume_probe_pending_ = false;
  sim_.cancel(resume_probe_event_);
  sim_.cancel(checkpoint_event_);
  sim_.cancel(checkpoint_finish_event_);
  bump(&EngineStats::primary_demotions);
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "primary.demoted", "fo",
                            {{"reason", reason}});
  }
  // The stale instance must never run again: its state forked from the
  // authoritative replica at the last committed epoch. Destroy it; the
  // control plane re-seeds protection for the activated replica, using this
  // host's surviving durable store for a delta seed where possible.
  if (vm_ != nullptr) {
    hv::Vm* stale = vm_;
    vm_ = nullptr;
    if (stale->state() == hv::VmState::kRunning) {
      primary_.hypervisor().pause(*stale);
    }
    if (stale->state() != hv::VmState::kDestroyed) {
      primary_.hypervisor().destroy_vm(*stale);
    }
  }
  notify_degraded(DegradedKind::kPrimaryDemoted,
                  std::string("recovered primary lost arbitration: ") + reason);
  HERE_LOG(kInfo, "recovered primary demoted (%s); re-seed candidate", reason);
}

void ReplicationEngine::inject_wal_torn_write(std::uint64_t bytes) {
  if (env_.durable_store == nullptr || bytes == 0) return;
  env_.durable_store->damage_wal_tail(bytes);
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "fault.wal_torn_write", "fo",
                            {{"bytes", bytes}});
  }
}

void ReplicationEngine::inject_wal_truncation(std::uint64_t bytes) {
  if (env_.durable_store == nullptr || bytes == 0) return;
  env_.durable_store->truncate_wal_tail(bytes);
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "fault.wal_truncation", "fo",
                            {{"bytes", bytes}});
  }
}

void ReplicationEngine::notify_degraded(DegradedKind kind, std::string detail) {
  if (observers_.empty()) return;
  DegradedEvent event;
  event.kind = kind;
  event.at = sim_.now();
  event.detail = std::move(detail);
  for (EngineObserver* o : observers_) o->on_degraded(event);
}

// --- Packet paths ---------------------------------------------------------------

void ReplicationEngine::send_control(net::NodeId src, net::NodeId dst,
                                     std::uint32_t kind, std::uint64_t tag) {
  fabric_.send(
      {.src = src, .dst = dst, .size_bytes = 64, .kind = kind, .tag = tag});
}

void ReplicationEngine::on_guest_tx(const net::Packet& packet) {
  net::Packet out = packet;
  out.src = service_node_;
  outbound_.capture(out, current_epoch_, sim_.now());
}

void ReplicationEngine::on_service_packet(const net::Packet& packet) {
  hv::Vm* vm = active_vm();
  hv::Host& host = stats_.failed_over ? secondary_ : primary_;
  if (vm != nullptr && host.alive()) {
    vm->deliver_packet(sim_.now(), host.hypervisor().rng(), packet);
  }
}

hv::Vm* ReplicationEngine::active_vm() {
  hv::Vm* vm = stats_.failed_over ? replica_vm_ : vm_;
  // An older generation's replica twin may have been destroyed by a newer
  // generation demoting it (cascaded re-protection): validate the borrowed
  // pointer against the owning hypervisor before anyone dereferences it.
  // The engine stays routable — its service node lives on — but delivers
  // nothing once the twin is gone.
  if (vm != nullptr) {
    hv::Host& host = stats_.failed_over ? secondary_ : primary_;
    if (!host.hypervisor().owns(*vm)) return nullptr;
  }
  return vm;
}

bool ReplicationEngine::service_available() {
  hv::Vm* vm = active_vm();
  if (vm == nullptr) return false;
  hv::Host& host = stats_.failed_over ? secondary_ : primary_;
  if (!host.alive()) return false;
  return vm->state() == hv::VmState::kRunning ||
         vm->state() == hv::VmState::kPaused;  // paused = mid-checkpoint
}

}  // namespace here::rep
