#include "replication/replication_engine.h"

#include <algorithm>
#include <stdexcept>

#include "common/fnv.h"
#include "common/log.h"

namespace here::rep {

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

// A destroyed engine retires like a drained one: nothing it scheduled may
// call back into it.
ReplicationEngine::~ReplicationEngine() {
  enter(PrimaryPhase::kDrained);
  // Take down every callback that captured `this`: the hosts' handlers and
  // listeners, the service address and, while the guest still lives on the
  // primary and no successor generation re-hooked it, the guest's devices.
  primary_.remove_handlers(this);
  secondary_.remove_handlers(this);
  if (service_node_ != net::kInvalidNode) {
    fabric_.set_receiver(service_node_, {});
  }
  if (vm_ != nullptr && primary_.hypervisor().owns(*vm_)) {
    hv::NetDevice* dev = vm_->net_device();
    if (dev != nullptr && dev->tx_hook_owner() == this) dev->set_tx_hook({});
    hv::BlockDevice* blk = vm_->block_device();
    if (blk != nullptr && blk->write_hook_owner() == this) {
      primary_.hypervisor().connect_disk(*vm_);
    }
  }
}

void ReplicationEngine::cancel_events(std::initializer_list<sim::EventId> ids) {
  for (const sim::EventId id : ids) sim_.cancel(id);
}

// --- Phases --------------------------------------------------------------------

void ReplicationEngine::enter(PrimaryPhase next) {
  primary_phase_ = next;
  switch (next) {
    case PrimaryPhase::kSeeding:
      return;
    case PrimaryPhase::kReplicating:
      return cancel_events({seed_event_, resume_probe_event_});
    case PrimaryPhase::kArbitrating:
      // A stale epoch step would resume the held VM (and commit a pre-crash
      // epoch) behind the probe's back.
      return cancel_events({checkpoint_event_, epoch_step()});
    case PrimaryPhase::kDemoted:
    case PrimaryPhase::kDrained:
      return cancel_events(
          {checkpoint_event_, epoch_step(), heartbeat_event_,
           watchdog_event_, seed_event_, probe_event_,
           failover_activate_event_, scrub_event_, secondary_reboot_event_,
           resume_probe_event_});
  }
}

void ReplicationEngine::enter(ReplicaPhase next) {
  replica_phase_ = next;
  switch (next) {
    case ReplicaPhase::kStandby:
      return cancel_events(
          {failover_activate_event_, secondary_reboot_event_, probe_event_});
    case ReplicaPhase::kProbing:
    case ReplicaPhase::kProbeAnswered:
    case ReplicaPhase::kRejoining:
      return;
    case ReplicaPhase::kDown:
      return cancel_events({checkpoint_event_, epoch_step(), scrub_event_,
                            secondary_reboot_event_});
    case ReplicaPhase::kFailingOver:
    case ReplicaPhase::kFencing:
      // The watchdog parks until a stand-down restarts it.
      return cancel_events({checkpoint_event_, epoch_step(), scrub_event_,
                            probe_event_, watchdog_event_});
    case ReplicaPhase::kActive:
      return cancel_events({heartbeat_event_});
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
  if (primary_phase_ != PrimaryPhase::kArbitrating && vm_ != nullptr &&
      primary_.alive() && vm_->state() == hv::VmState::kPaused) {
    primary_.hypervisor().resume(*vm_);
  }
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
    dev->set_tx_hook([this](const net::Packet& p) { on_guest_tx(p); }, this);
  }
  // Storage replication: local disk I/O completes immediately (Remus does
  // not delay local writes) while a copy of each write travels with the
  // running epoch to be applied on the replica at commit. A write the local
  // disk rejected (injected write errors) is not mirrored either, keeping
  // the two images digest-identical.
  if (hv::BlockDevice* blk = vm.block_device()) {
    hv::VirtualDisk& local = primary_.hypervisor().disk(vm);
    blk->set_write_hook(
        [this, &local](const hv::DiskWrite& w) {
          if (local.apply(w)) epoch_disk_writes_.push_back(w);
        },
        this);
  }

  // Heartbeating starts with protection. A heartbeat arriving while a
  // fenced failover is pending means the primary is back: cancel it. The
  // source filter matters on a shared secondary: several engines listen on
  // the same host, and a neighbour VM's heartbeat must not refresh ours.
  // Resume-probe arbitration: the secondary answers a recovered primary's
  // probe; this handler — serialized with every other event on the sim's
  // queue — is the race's linearization point. The token filter keeps a
  // neighbour engine's probe (same host pair, different VM) out.
  probe_token_ = common::fnv1a(vm.spec().name, common::kFnvStreamOffset);
  secondary_.add_ic_handler(this, [this](const net::Packet& p) {
    if (p.src != primary_.ic_node()) return;
    if (p.kind == kHeartbeatKind) {
      last_heartbeat_rx_ = sim_.now();
      if (replica_phase_ == ReplicaPhase::kFencing) {
        stand_down_failover(/*by_probe=*/false);
      }
    } else if (p.kind == kResumeProbeKind && p.tag == probe_token_) {
      on_resume_probe(p);
    }
  });
  primary_.add_ic_handler(this, [this](const net::Packet& p) {
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
  primary_.add_recovery_listener(this, [this](bool microreboot) {
    if (microreboot) on_primary_recovered();
  });
  // Watchdog probes ride the management network, so an interconnect-only
  // partition can be told apart from a dead host (which answers nothing).
  primary_.add_eth_handler(this, [this](const net::Packet& p) {
    if (p.kind == kProbeRequestKind) {
      send_control(primary_.eth_node(), p.src, kProbeReplyKind);
    }
  });
  secondary_.add_eth_handler(this, [this](const net::Packet& p) {
    if (p.kind == kProbeReplyKind && p.src == primary_.eth_node() &&
        replica_phase_ == ReplicaPhase::kProbing) {
      enter(ReplicaPhase::kProbeAnswered);
    }
  });
  // The seed target dying mid-copy tears the attempt down immediately — a
  // half-written staging image must never survive to look activatable, and
  // the paused guest must not wait on a timeout to find out.
  secondary_.add_failure_listener(this, [this](hv::FaultKind) {
    if (primary_phase_ != PrimaryPhase::kSeeding || seeder_ == nullptr) return;
    sim_.cancel(seed_event_);
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
  if (primary_phase_ != PrimaryPhase::kSeeding) return;
  ++stats_.seed_attempts;
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
    seed_event_ = sim_.schedule_after(
        config_.ft.seed_attempt_timeout,
        [this] { on_seed_attempt_timeout(); }, "seed-deadline");
  }
  seeder_->start([this](const SeedResult& result) {
    sim_.cancel(seed_event_);
    on_seeded(result);
  });
}

void ReplicationEngine::on_seed_attempt_timeout() {
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
  HERE_LOG(kWarn, "seeding attempt %u failed (%s); retrying in %s",
           stats_.seed_attempts, why, sim::format_duration(backoff).c_str());
  seed_event_ = sim_.schedule_after(
      backoff, [this] { begin_seed_attempt(); }, "seed-retry");
}

void ReplicationEngine::on_seeded(const SeedResult& result) {
  stats_.seed = result;
  // VM is paused and staging memory is byte-identical: commit epoch 0 with
  // the full disk image, machine state and program snapshot, then enter the
  // continuous phase.
  staging_->seed_disk(primary_.hypervisor().disk(*vm_));
  // Epoch 0 commits without an armed expectation (the seed path byte-copied
  // the image directly), so a refusal here means staging itself is broken —
  // treat it like any other failed seeding attempt rather than ignoring it.
  const Expected<sim::Duration> state_cost = commit_seed_epoch(0);
  if (!state_cost.ok()) {
    schedule_seed_retry(state_cost.status().message().c_str());
    return;
  }

  // Should the secondary crash, the rejoin diff compares the recovered image
  // against the mirrored references; every page has a valid committed encoder
  // reference from epoch 1 on.
  baseline_references();

  seed_event_ = sim_.schedule_after(
      *state_cost, [this] { commit_initial_checkpoint(); }, "seed-state");
}

Expected<sim::Duration> ReplicationEngine::commit_seed_epoch(
    std::uint64_t epoch) {
  epoch_disk_writes_.clear();  // contained in the just-mirrored disk image
  staging_->begin_epoch(epoch);
  const sim::Duration state_cost =
      snapshot_state_and_program() + TimeModel::kCheckpointAck;
  if (const Expected<std::uint64_t> committed = staging_->commit();
      !committed.ok()) {
    return committed.status();
  }
  return state_cost;
}

void ReplicationEngine::commit_initial_checkpoint() {
  if (!primary_.alive()) {
    // Died between stop-and-copy and the epoch-0 ACK: the staged image is
    // complete but the primary never learnt that. Retry from scratch.
    schedule_seed_retry("primary died during epoch-0 commit");
    return;
  }
  enter(PrimaryPhase::kReplicating);
  stats_.protected_at = sim_.now();
  // A fresh seed committed epoch 0 and runs from 1; a delta seed adopted the
  // recovered epoch E, committed E+1, and runs from E+2 — older generations'
  // WAL records stay strictly below anything this generation appends.
  current_epoch_ = staging_->committed_epoch() + 1;

  // Continuous phase tracks dirtying through the shared bitmap (§7.2(2));
  // PML rings were the seeding mechanism (a delta seed never enabled them,
  // and disabling them again is a no-op).
  if (config_.seed.mode == SeedMode::kHereMultithreaded) {
    primary_.hypervisor().disable_pml_rings(*vm_);
  }

  primary_.hypervisor().resume(*vm_);
  restart_checkpointing();

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
}

// --- Fault hooks ----------------------------------------------------------------

void ReplicationEngine::inject_migrator_stall(sim::Duration stall) {
  if (stall <= sim::Duration::zero()) return;
  pending_stall_ += stall;
  if (config_.tracer != nullptr) {
    config_.tracer->instant(sim_.now(), "fault.migrator_stall", "ckpt",
                            {{"stall_ns", stall.count()}});
  }
}

void ReplicationEngine::drain(const std::string& reason) {
  if (primary_phase_ >= PrimaryPhase::kDemoted) return;  // terminal already
  // A drain can land mid-epoch (guest paused for capture): fold the capture
  // back into the running epoch — the successor re-ships those pages — and
  // let the guest run again, unless a pending arbitration holds it.
  fold_back_epoch();
  resume_guest();
  // Everything this generation ever scheduled is cancelled; a drained
  // engine is inert except for reads, and an armed failover stands down.
  enter(PrimaryPhase::kDrained);
  seeder_.reset();
  if (failover_in_progress()) enter(ReplicaPhase::kStandby);
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
  hv::Host& host = failed_over() ? secondary_ : primary_;
  if (vm != nullptr && host.alive()) {
    vm->deliver_packet(sim_.now(), host.hypervisor().rng(), packet);
  }
}

hv::Vm* ReplicationEngine::active_vm() {
  // An older generation's replica twin may have been destroyed by a newer
  // generation demoting it (cascaded re-protection): replica_vm() validates
  // the borrowed pointer against the owning hypervisor. The engine stays
  // routable — its service node lives on — but delivers nothing once the
  // twin is gone.
  if (failed_over()) return replica_vm();
  return vm_ != nullptr && primary_.hypervisor().owns(*vm_) ? vm_ : nullptr;
}

bool ReplicationEngine::service_available() {
  hv::Vm* vm = active_vm();
  if (vm == nullptr) return false;
  hv::Host& host = failed_over() ? secondary_ : primary_;
  if (!host.alive()) return false;
  return vm->state() == hv::VmState::kRunning ||
         vm->state() == hv::VmState::kPaused;  // paused = mid-checkpoint
}

}  // namespace here::rep
