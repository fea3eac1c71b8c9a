#include "mgmt/protection_manager.h"

#include <algorithm>
#include <stdexcept>

#include "common/log.h"
#include "replication/durable_store.h"
#include "replication/staging.h"

namespace here::mgmt {

ProtectionManager::ProtectionManager(sim::Simulation& simulation,
                                     net::Fabric& fabric,
                                     rep::ReplicationConfig engine_defaults,
                                     sim::HostProfile hardware)
    : sim_(simulation),
      fabric_(fabric),
      defaults_(engine_defaults),
      hardware_(hardware) {}

void ProtectionManager::add_host(hv::Host& host) {
  pool_.push_back(&host);
  if (placement_enabled_) {
    ring_->add_host(host);
    membership_->track(host);
  }
}

void ProtectionManager::ensure_connected(hv::Host& a, hv::Host& b) {
  for (const auto& [x, y] : connected_) {
    if ((x == &a && y == &b) || (x == &b && y == &a)) return;
  }
  fabric_.connect(a.ic_node(), b.ic_node(), hardware_.interconnect);
  connected_.emplace_back(&a, &b);
}

std::size_t ProtectionManager::load_of(const hv::Host& host) const {
  std::size_t load = 0;
  for (const auto& protection : protections_) {
    if (protection->primary == &host || protection->secondary == &host) ++load;
  }
  return load;
}

hv::Host* ProtectionManager::pick_partner(const hv::Host& home) {
  hv::Host* best = nullptr;
  for (hv::Host* candidate : pool_) {
    if (candidate == &home || !candidate->alive()) continue;
    // Heterogeneity first (the whole point); then balance by load.
    if (candidate->hypervisor().kind() == home.hypervisor().kind()) continue;
    if (best == nullptr || load_of(*candidate) < load_of(*best)) {
      best = candidate;
    }
  }
  return best;
}

void ProtectionManager::enable_fleet_scheduling(FleetConfig config) {
  fleet_ = config;
  fleet_enabled_ = true;
  if (fleet_.adaptive_weights && !weight_loop_enabled_) {
    weight_loop_enabled_ = true;
    sim_.schedule_after(fleet_.weight_poll, [this] { weight_tick(); },
                        "mgmt-weights");
  }
}

rep::MigratorPool& ProtectionManager::pool_for(hv::Host& primary) {
  if (rep::MigratorPool* pool = migrator_pool_of(primary)) return *pool;
  pools_.emplace_back(&primary, std::make_unique<rep::MigratorPool>(
                                    sim_, fleet_.migrator_workers));
  return *pools_.back().second;
}

net::LinkArbiter& ProtectionManager::arbiter_for(hv::Host& secondary) {
  if (net::LinkArbiter* arbiter = link_arbiter_of(secondary)) return *arbiter;
  const double capacity = fleet_.link_bytes_per_second > 0.0
                              ? fleet_.link_bytes_per_second
                              : defaults_.time_model.wire_bytes_per_second;
  arbiters_.emplace_back(&secondary,
                         std::make_unique<net::LinkArbiter>(sim_, capacity));
  return *arbiters_.back().second;
}

rep::MigratorPool* ProtectionManager::migrator_pool_of(const hv::Host& host) {
  for (auto& [h, pool] : pools_) {
    if (h == &host) return pool.get();
  }
  return nullptr;
}

net::LinkArbiter* ProtectionManager::link_arbiter_of(const hv::Host& host) {
  for (auto& [h, arbiter] : arbiters_) {
    if (h == &host) return arbiter.get();
  }
  return nullptr;
}

rep::ReplicationConfig ProtectionManager::config_for(const VmPolicy& policy) {
  rep::ReplicationConfig config = defaults_;
  if (policy.target_degradation >= 0.0) {
    config.period.target_degradation = policy.target_degradation;
  }
  if (policy.t_max > sim::Duration::zero()) config.period.t_max = policy.t_max;
  if (policy.checkpoint_threads > 0) {
    config.checkpoint_threads = policy.checkpoint_threads;
  }
  config.flow_weight = policy.flow_weight;
  return config;
}

void ProtectionManager::enable_durable_replicas(rep::DurableStoreConfig config) {
  durable_config_ = config;
  durable_enabled_ = true;
}

// --- Fleet placement & membership --------------------------------------------

void ProtectionManager::enable_fleet_placement(FleetPlacementConfig config) {
  if (placement_enabled_) return;
  placement_config_ = config;
  placement_enabled_ = true;
  // Placement implies arbitration: rebalancing consumes the LinkArbiter
  // queueing signal, so fleet scheduling must exist.
  if (!fleet_enabled_) enable_fleet_scheduling(fleet_);
  ring_ = std::make_unique<PlacementRing>(config.ring);
  membership_ =
      std::make_unique<MembershipManager>(sim_, fabric_, config.membership);
  rebalancer_ =
      std::make_unique<RebalanceOrchestrator>(*ring_, config.rebalance);
  membership_->set_callbacks(
      {.on_suspect = {},
       .on_down = [this](hv::Host& host) { handle_host_down(host); },
       .on_admitted = [this](hv::Host& host) { handle_host_admitted(host); }});
  // Hosts already pooled are operator-vouched: ring members immediately,
  // confirmed (or demoted) by the prober from its first round.
  for (hv::Host* host : pool_) {
    ring_->add_host(*host);
    membership_->track(*host);
  }
  membership_->start();
  sim_.schedule_after(placement_config_.tick, [this] { placement_tick(); },
                      "mgmt-placement");
}

std::size_t ProtectionManager::secondary_load_of(const hv::Host& host) const {
  std::size_t load = 0;
  for (const auto& protection : protections_) {
    if (protection->secondary == &host) ++load;
  }
  return load;
}

Expected<hv::Host*> ProtectionManager::ring_secondary(
    const std::string& domain, const hv::Host& primary,
    const hv::Host* exclude, std::size_t protections) const {
  return ring_->secondary_for(
      domain, primary, exclude,
      [this](const hv::Host& h) { return secondary_load_of(h); },
      ring_->load_cap(protections));
}

hv::Host* ProtectionManager::pool_host_of(const hv::Vm& vm) {
  for (hv::Host* host : pool_) {
    if (host->hypervisor().owns(vm)) return host;
  }
  return nullptr;
}

Expected<hv::Vm*> ProtectionManager::create_placed_domain(
    const DomainConfig& config) {
  if (!placement_enabled_) {
    return Status::failed_precondition(
        "create_placed_domain: fleet placement not enabled");
  }
  const Expected<PlacementRing::Pair> pair = ring_->place(
      config.name,
      [](const hv::Host& host) { return host.hypervisor().vms().size(); },
      ring_->load_cap(placed_domains_ + 1));
  if (!pair.ok()) return pair.status();
  VirtConnection conn(*(*pair).primary);
  const Expected<hv::Vm*> vm = conn.create_domain(config);
  if (vm.ok()) ++placed_domains_;
  return vm;
}

Expected<rep::ReplicationEngine*> ProtectionManager::protect_placed(
    hv::Vm& vm) {
  return protect_placed(vm, VmPolicy{});
}

Expected<rep::ReplicationEngine*> ProtectionManager::protect_placed(
    hv::Vm& vm, const VmPolicy& policy) {
  if (!placement_enabled_) {
    return Status::failed_precondition(
        "protect_placed: fleet placement not enabled");
  }
  hv::Host* home = pool_host_of(vm);
  if (home == nullptr) {
    return Status::invalid_argument("protect_placed: no pool host owns '" +
                                    vm.spec().name + "'");
  }
  const Expected<hv::Host*> partner =
      ring_secondary(vm.spec().name, *home, nullptr, protections_.size() + 1);
  if (!partner.ok()) return partner.status();
  if (!(*partner)->alive()) {
    return Status::unavailable("protect_placed: ring secondary '" +
                               (*partner)->name() + "' is down");
  }
  return protect_on(vm, *home, **partner, policy);
}

Status ProtectionManager::rehome_secondary(const std::string& domain,
                                           hv::Host& next) {
  Protection* protection = find(domain);
  if (protection == nullptr) {
    return Status::not_found("rehome: unknown domain '" + domain + "'");
  }
  if (std::ranges::find(pool_, &next) == pool_.end()) {
    return Status::invalid_argument("rehome: host '" + next.name() +
                                    "' not in the pool");
  }
  rep::ReplicationEngine& old_engine = protection->engine();
  if (old_engine.failed_over() || old_engine.failover_in_progress()) {
    return Status::failed_precondition("rehome: '" + domain +
                                       "' is mid-failover");
  }
  if (&next == protection->secondary && !old_engine.drained()) {
    return Status::invalid_argument("rehome: '" + domain +
                                    "' already replicates to '" + next.name() +
                                    "'");
  }
  if (!next.alive()) {
    return Status::failed_precondition("rehome: target host '" + next.name() +
                                       "' is down");
  }
  if (next.hypervisor().kind() == protection->primary->hypervisor().kind()) {
    return Status::failed_precondition(
        "rehome: '" + next.name() +
        "' runs the primary's hypervisor (heterogeneous pair required)");
  }
  hv::Vm* vm = protection->vm;
  if (vm == nullptr) {
    return Status::failed_precondition("rehome: '" + domain +
                                       "' has no authoritative VM");
  }
  // Drain first: the old generation folds any in-flight epoch back and
  // resumes the guest, so the successor's start_protection sees a running
  // VM. If the successor fails to start, the protection is left drained and
  // the placement loop's repair pass retries next tick.
  old_engine.drain("re-placing replica to '" + next.name() + "'");
  if (vm->state() != hv::VmState::kRunning) {
    return Status::failed_precondition("rehome: VM '" + domain +
                                       "' is not running");
  }
  if (const Status s =
          start_generation(*protection, *protection->primary, next, *vm);
      !s.ok()) {
    HERE_LOG(kWarn, "mgmt: re-placing '%s' -> %s failed: %s", domain.c_str(),
             next.name().c_str(), s.to_string().c_str());
    return s;
  }
  HERE_LOG(kInfo, "mgmt: re-placed '%s' replica %s -> %s (generation %u)",
           domain.c_str(), protection->secondary->name().c_str(),
           next.name().c_str(), protection->generation + 1);
  protection->secondary = &next;
  ++protection->generation;
  ++replica_moves_;
  return Status::ok_status();
}

void ProtectionManager::handle_host_down(hv::Host& host) {
  ring_->remove_host(host);
  // Drain every protection replicating *to* the dead host and re-place it
  // now; failures retry on the placement tick. A dead *primary* is the
  // failover path's business (the engine's watchdog), not placement's.
  for (const auto& protection : protections_) {
    if (protection->secondary != &host) continue;
    rep::ReplicationEngine& engine = protection->engine();
    if (engine.failed_over() || engine.failover_in_progress()) continue;
    engine.drain("secondary host '" + host.name() + "' declared down");
    repair_placement(*protection, &host);
  }
}

void ProtectionManager::repair_placement(const Protection& protection,
                                         const hv::Host* exclude) {
  const Expected<hv::Host*> next = ring_secondary(
      protection.domain, *protection.primary, exclude, protections_.size());
  if (next.ok() && rehome_secondary(protection.domain, **next).ok()) {
    ++placement_repairs_;
  }
}

void ProtectionManager::handle_host_admitted(hv::Host& host) {
  // Back on the ring; the rebalancer's drift pass folds replicas onto it
  // under the per-tick budget rather than all at once.
  ring_->add_host(host);
}

void ProtectionManager::placement_tick() {
  // Repair pass: a drained current generation means a re-place is owed
  // (the immediate rehome failed or had no candidate). Unbounded on
  // purpose — restoring protection beats balance and budgets.
  for (const auto& protection : protections_) {
    if (protection->engine().drained()) repair_placement(*protection, nullptr);
  }
  // Rebalance pass: per-flow queueing share over this tick feeds the
  // bounded move plan (drift toward ring-ideal, then off saturated links).
  std::vector<ReplicaFlow> flows;
  std::vector<std::pair<const rep::ReplicationEngine*, sim::Duration>>
      snapshot;
  for (const auto& protection : protections_) {
    rep::ReplicationEngine& engine = protection->engine();
    if (engine.drained() || engine.failed_over() ||
        engine.failover_in_progress() || !engine.seeded()) {
      continue;
    }
    if (!ring_->contains(*protection->secondary)) continue;
    double share = 0.0;
    if (net::LinkArbiter* arbiter = link_arbiter_of(*protection->secondary)) {
      const sim::Duration q = arbiter->stats(engine.arbiter_flow()).queueing;
      sim::Duration last{};
      for (const auto& [e, d] : queueing_snapshot_) {
        if (e == &engine) last = d;
      }
      snapshot.emplace_back(&engine, q);
      share = sim::to_seconds(q - last) /
              sim::to_seconds(placement_config_.tick);
    }
    flows.push_back({protection->domain, protection->primary,
                     protection->secondary, share});
  }
  queueing_snapshot_ = std::move(snapshot);
  const RebalancePlan plan = rebalancer_->plan(
      flows, [this](const hv::Host& h) { return secondary_load_of(h); },
      ring_->load_cap(protections_.size()));
  rebalance_deferred_ += plan.deferred;
  for (const RebalanceMove& move : plan.moves) {
    if (const Status s = rehome_secondary(move.domain, *move.to); !s.ok()) {
      HERE_LOG(kWarn, "mgmt: rebalance move of '%s' -> %s failed: %s",
               move.domain.c_str(), move.to->name().c_str(),
               s.to_string().c_str());
    }
  }
  sim_.schedule_after(placement_config_.tick, [this] { placement_tick(); },
                      "mgmt-placement");
}

rep::EngineEnv ProtectionManager::env_for(hv::Host& primary,
                                          hv::Host& secondary,
                                          Protection& protection) {
  rep::EngineEnv env;
  if (fleet_enabled_) {
    env.migrator_pool = &pool_for(primary);
    env.link_arbiter = &arbiter_for(secondary);
  }
  if (durable_enabled_) {
    // Host-keyed reuse: a host returning to secondary duty keeps the store
    // it wrote last time, so the new engine's delta seed only ships what
    // diverged since. First-time secondaries get a fresh (empty) store.
    rep::DurableStore* existing = protection.store_on(&secondary);
    if (existing == nullptr) {
      protection.stores.push_back(
          {&secondary, std::make_unique<rep::DurableStore>(durable_config_)});
      existing = protection.stores.back().store.get();
    }
    env.durable_store = existing;
  }
  return env;
}

Status ProtectionManager::start_generation(Protection& protection,
                                           hv::Host& primary,
                                           hv::Host& secondary, hv::Vm& vm) {
  ensure_connected(primary, secondary);
  const std::size_t stores_before = protection.stores.size();
  protection.engines.push_back(std::make_unique<rep::ReplicationEngine>(
      sim_, fabric_, primary, secondary, config_for(protection.policy),
      env_for(primary, secondary, protection)));
  const Status s = protection.engines.back()->start_protection(vm);
  if (!s.ok()) {
    protection.engines.pop_back();
    protection.stores.resize(stores_before);
  }
  return s;
}

Expected<rep::ReplicationEngine*> ProtectionManager::protect(hv::Vm& vm,
                                                             hv::Host& home) {
  return protect(vm, home, VmPolicy{});
}

Expected<rep::ReplicationEngine*> ProtectionManager::protect(
    hv::Vm& vm, hv::Host& home, const VmPolicy& policy) {
  if (std::ranges::find(pool_, &home) == pool_.end()) {
    return Status::invalid_argument("protect: home host '" + home.name() +
                                    "' not in the pool");
  }
  hv::Host* partner = pick_partner(home);
  if (partner == nullptr) {
    return Status::unavailable(
        "protect: no live heterogeneous partner host available for '" +
        home.name() + "'");
  }
  return protect_on(vm, home, *partner, policy);
}

Expected<rep::ReplicationEngine*> ProtectionManager::protect_on(
    hv::Vm& vm, hv::Host& home, hv::Host& partner, const VmPolicy& policy) {
  if (defaults_.mode == rep::EngineMode::kRemus) {
    return Status::invalid_argument(
        "protect: ProtectionManager pairs heterogeneous hosts, which the "
        "Remus baseline cannot replicate across");
  }
  // Validate the *effective* config — defaults plus the per-VM policy —
  // before anything is built, so a bad override fails as a value too.
  const rep::ReplicationConfig config = config_for(policy);
  if (const Status s = rep::validate_replication_config(config); !s.ok()) {
    return s;
  }

  auto protection = std::make_unique<Protection>();
  protection->domain = vm.spec().name;
  protection->primary = &home;
  protection->secondary = &partner;
  protection->vm = &vm;
  protection->policy = policy;
  if (const Status s = start_generation(*protection, home, partner, vm);
      !s.ok()) {
    return s;  // the half-built Protection dies with this scope
  }
  protections_.push_back(std::move(protection));
  HERE_LOG(kInfo, "mgmt: protecting '%s' %s -> %s",
           vm.spec().name.c_str(), home.name().c_str(),
           partner.name().c_str());
  return &protections_.back()->engine();
}

void ProtectionManager::enable_auto_reprotect(sim::Duration poll) {
  poll_ = poll;
  if (!policy_enabled_) {
    policy_enabled_ = true;
    sim_.schedule_after(poll_, [this] { policy_tick(); }, "mgmt-policy");
  }
}

void ProtectionManager::policy_tick() {
  for (const auto& protection : protections_) {
    rep::ReplicationEngine& engine = protection->engine();
    // Close out the newest generation's MTTR clock once its engine commits
    // epoch 0 (protection restored end to end).
    if (!protection->mttr.empty() && !protection->mttr.back().complete &&
        engine.seeded()) {
      protection->mttr.back().reprotected_at = engine.stats().protected_at;
      protection->mttr.back().complete = true;
    }
    if (!engine.failed_over()) continue;
    hv::Host* survivor = protection->secondary;
    if (!survivor->alive()) continue;
    hv::Vm* replica = engine.replica_vm();
    if (replica == nullptr || replica->state() != hv::VmState::kRunning) {
      continue;
    }
    // Re-protect the surviving replica toward the best live heterogeneous
    // partner — the repaired old primary if it is back, or any third host
    // (cascading N+1: two back-to-back faults across three hosts still end
    // re-protected). The policy loop must never throw — a failed start is
    // logged and retried on the next tick (the engine generation and any
    // store created for it are rolled back). The VM's policy follows it
    // across generations.
    hv::Host* next = nullptr;
    if (placement_enabled_) {
      // Placement-aware re-protection: the ring picks the new secondary so
      // post-failover topology stays consistent with what the rebalancer
      // will later converge toward.
      const Expected<hv::Host*> choice = ring_secondary(
          protection->domain, *survivor, nullptr, protections_.size());
      if (choice.ok() && (*choice)->alive()) next = *choice;
    }
    if (next == nullptr) next = pick_partner(*survivor);
    if (next == nullptr) continue;  // no live heterogeneous partner yet
    const sim::TimePoint detected = engine.stats().failure_detected_at;
    if (const Status s =
            start_generation(*protection, *survivor, *next, *replica);
        !s.ok()) {
      HERE_LOG(kWarn, "mgmt: re-protecting '%s' failed: %s",
               protection->domain.c_str(), s.to_string().c_str());
      continue;
    }
    protection->primary = survivor;
    protection->secondary = next;
    protection->vm = replica;
    ++protection->generation;
    ++reprotections_;
    protection->mttr.push_back(
        {protection->generation, detected, sim::TimePoint{}, false});
    HERE_LOG(kInfo, "mgmt: re-protecting '%s' %s -> %s (generation %u)",
             protection->domain.c_str(), survivor->name().c_str(),
             next->name().c_str(), protection->generation);
  }
  sim_.schedule_after(poll_, [this] { policy_tick(); }, "mgmt-policy");
}

ProtectionManager::Protection* ProtectionManager::find(
    const std::string& domain) {
  for (const auto& protection : protections_) {
    if (protection->domain == domain) return protection.get();
  }
  return nullptr;
}

std::size_t ProtectionManager::available_count() {
  std::size_t n = 0;
  for (const auto& protection : protections_) {
    if (protection->engine().service_available()) ++n;
  }
  return n;
}

namespace {

double mean_degradation_of(const rep::ReplicationEngine& engine) {
  const auto& checkpoints = engine.stats().checkpoints;
  if (checkpoints.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& record : checkpoints) sum += record.degradation;
  return sum / static_cast<double>(checkpoints.size());
}

}  // namespace

void ProtectionManager::weight_tick() {
  for (const auto& protection : protections_) {
    rep::ReplicationEngine& engine = protection->engine();
    if (engine.failed_over()) continue;
    net::LinkArbiter* arbiter = link_arbiter_of(*protection->secondary);
    if (arbiter == nullptr) continue;
    const double budget = engine.config().period.target_degradation;
    if (!(budget > 0.0)) continue;  // fixed-period VMs keep their weight
    // Overshooting VMs get more fabric share; comfortable VMs give it back.
    const double ratio = mean_degradation_of(engine) / budget;
    const double base = protection->policy.flow_weight;
    const double weight = std::clamp(base * std::max(ratio, 0.0),
                                     fleet_.min_weight, fleet_.max_weight);
    arbiter->set_weight(engine.arbiter_flow(), weight);
  }
  sim_.schedule_after(fleet_.weight_poll, [this] { weight_tick(); },
                      "mgmt-weights");
}

ProtectionManager::FleetReport ProtectionManager::fleet_report() {
  FleetReport report;
  for (const auto& protection : protections_) {
    const rep::ReplicationEngine& engine = protection->engine();
    VmReport row;
    row.domain = protection->domain;
    row.generation = protection->generation;
    row.budget = engine.config().period.target_degradation;
    row.mean_degradation = mean_degradation_of(engine);
    row.epochs = engine.stats().checkpoints.size();
    if (const net::LinkArbiter* arbiter =
            link_arbiter_of(*protection->secondary)) {
      const net::LinkArbiter::FlowStats& fs =
          arbiter->stats(engine.arbiter_flow());
      row.wire_bytes = fs.bytes;
      row.queueing = fs.queueing;
      row.weight = arbiter->flow_weight(engine.arbiter_flow());
      if (fs.actual_time > sim::Duration::zero()) {
        row.goodput_mbps = static_cast<double>(fs.bytes) * 8.0 / 1e6 /
                           sim::to_seconds(fs.actual_time);
      }
    }
    report.vms.push_back(std::move(row));
    for (const MttrRecord& record : protection->mttr) {
      MttrRow mrow;
      mrow.domain = protection->domain;
      mrow.generation = record.generation;
      mrow.complete = record.complete;
      if (record.complete) {
        mrow.mttr = record.reprotected_at - record.failure_detected_at;
      }
      report.reprotect_mttr.push_back(std::move(mrow));
    }
  }
  for (const auto& [host, arbiter] : arbiters_) {
    report.link_capacity_bytes_per_s =
        std::max(report.link_capacity_bytes_per_s, arbiter->capacity());
    report.peak_reserved_bytes_per_s = std::max(
        report.peak_reserved_bytes_per_s, arbiter->peak_reserved_rate());
    report.total_wire_bytes += arbiter->total_bytes();
  }
  return report;
}

Expected<ProtectionManager::RestoreReport> ProtectionManager::restore_to_epoch(
    const std::string& domain, std::uint64_t epoch) {
  Protection* protection = find(domain);
  if (protection == nullptr) {
    return Status::not_found("restore_to_epoch: unknown domain '" + domain +
                             "'");
  }
  rep::DurableStore* store = protection->store();
  if (store == nullptr) {
    return Status::failed_precondition("restore_to_epoch: domain '" + domain +
                                       "' has no durable store");
  }
  // Replay into a throwaway staging area sized like the protected VM; the
  // live engine, its staging and the store itself are all left untouched
  // (RecoveryManager only reads).
  rep::ReplicaStaging staging(protection->vm->spec(), 1);
  rep::RecoveryManager recovery(*store);
  Expected<rep::RecoveryResult> result = recovery.recover(staging, epoch);
  if (!result.ok()) return result.status();
  RestoreReport report;
  report.requested_epoch = epoch;
  report.restored_epoch = (*result).recovered_epoch;
  report.pages_restored = (*result).pages_restored;
  report.wal_records_replayed = (*result).wal_records_replayed;
  report.memory_digest = staging.memory().full_digest();
  report.disk_digest = staging.disk().digest();
  return report;
}

}  // namespace here::mgmt
