// Fleet-level protection policy (the §7.7 deployment story, automated):
// pick a partner host running a *different* hypervisor for each protected
// domain, start a replication engine, and — once a failover has happened and
// the failed host has been repaired — automatically re-protect the surviving
// replica in the reverse direction, restoring redundancy without operator
// scripting.
//
// With fleet scheduling enabled, multi-VM protection becomes an arbitrated
// subsystem instead of N independent engines: every primary host gets one
// shared MigratorPool its engines draw checkpoint threads from, and every
// secondary host gets one LinkArbiter rationing its ingest link across the
// flows that funnel into it. Algorithm 1 still runs per VM, but it observes
// *arbitrated* transfer rates — a neighbour's burst stretches this VM's
// pause, Algorithm 1 widens this VM's period, and each VM's degradation
// stays under its own budget D while the host never oversubscribes the
// link (LinkArbiter::peak_reserved_rate() <= capacity by construction).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mgmt/membership.h"
#include "mgmt/placement.h"
#include "mgmt/virt.h"
#include "replication/migrator_pool.h"
#include "replication/replication_engine.h"
#include "sim/hardware_profile.h"
#include "simnet/link_arbiter.h"

namespace here::mgmt {

class ProtectionManager {
 public:
  ProtectionManager(sim::Simulation& simulation, net::Fabric& fabric,
                    rep::ReplicationConfig engine_defaults = {},
                    sim::HostProfile hardware = sim::grid5000_host());

  // Adds a host to the pool. Interconnect links between host pairs are
  // created lazily when a pairing is made.
  void add_host(hv::Host& host);

  // Shared-resource scheduling for multi-VM fleets. Off by default: without
  // it every engine keeps its private one-client migrator pool and
  // dedicated-wire time model, byte-identical to the single-VM behaviour.
  struct FleetConfig {
    // Size of the migrator thread pool shared by all engines whose primary
    // is the same host.
    std::uint32_t migrator_workers = 4;
    // Capacity of each secondary's ingest link; 0 means "use the engine
    // defaults' wire rate" (time_model.wire_bytes_per_second).
    double link_bytes_per_second = 0.0;
    // Adaptive weight rebalancing: every `weight_poll`, a VM running over
    // its degradation budget has its fabric weight raised in proportion to
    // the overshoot (clamped to [min_weight, max_weight]); a VM comfortably
    // under budget drifts back toward min_weight.
    bool adaptive_weights = false;
    sim::Duration weight_poll = sim::from_millis(500);
    double min_weight = 1.0;
    double max_weight = 8.0;
  };

  // Enables fleet scheduling for protections started *after* this call.
  void enable_fleet_scheduling(FleetConfig config);
  void enable_fleet_scheduling() { enable_fleet_scheduling(FleetConfig{}); }

  // Per-VM overrides applied on top of the engine defaults. Sentinel values
  // (negative budget, zero duration/threads) mean "keep the default".
  struct VmPolicy {
    double target_degradation = -1.0;   // Algorithm 1 budget D
    sim::Duration t_max{};              // period cap Tmax
    std::uint32_t checkpoint_threads = 0;
    double flow_weight = 1.0;           // pool + fabric fair-share weight
  };

  // Protects `vm` (running on `home`, which must be in the pool): selects
  // the least-loaded pool host with a different hypervisor kind as the
  // partner and starts an engine. Control-plane errors are values:
  // kInvalidArgument when `home` is not in the pool (or the engine defaults
  // are invalid), kUnavailable when no live heterogeneous partner exists,
  // and whatever Status the engine's start_protection returns otherwise. A
  // failed start leaves no Protection entry behind.
  [[nodiscard]] Expected<rep::ReplicationEngine*> protect(hv::Vm& vm,
                                                          hv::Host& home);
  [[nodiscard]] Expected<rep::ReplicationEngine*> protect(
      hv::Vm& vm, hv::Host& home, const VmPolicy& policy);

  // Enables the re-protection policy loop: every `poll`, any protection
  // whose engine failed over and whose replica is authoritative gets a new
  // engine toward the best live heterogeneous partner (generation + 1). The
  // new secondary may be the repaired old primary *or* a third host, so
  // protection chains cascade across the pool under back-to-back faults and
  // redundancy is restored as long as N+1 heterogeneous hosts survive.
  void enable_auto_reprotect(sim::Duration poll = sim::from_seconds(1));

  // Durable replica state for protections started *after* this call: each
  // engine generation gets a DurableStore on its secondary host, so a
  // crashed secondary rejoins from snapshot+WAL with per-region delta
  // resync instead of a full re-send (src/replication/durable_store.h).
  // Stores are keyed by host and survive re-protection: when a cascade
  // lands a later generation's replica back on a host that served as
  // secondary before, the surviving store drives the engine's digest-diff
  // delta seed instead of a full N-page copy.
  void enable_durable_replicas(rep::DurableStoreConfig config = {});

  // --- Fleet placement & membership (docs/ARCHITECTURE.md §11) ---------------
  //
  // Consistent-hash placement of domains onto the pool, liveness-driven
  // re-placement, and queueing-aware rebalancing. Implies fleet scheduling
  // (enabled with the current FleetConfig defaults when not already on).
  // Hosts already in the pool become ring members immediately and are
  // tracked by the membership prober; a host that later goes down is
  // drained off the ring (its replicas re-placed with delta reseed where a
  // surviving store exists) and folded back in after re-admission.
  struct FleetPlacementConfig {
    PlacementConfig ring{};
    MembershipManager::Config membership{};
    RebalanceOrchestrator::Config rebalance{};
    // Cadence of the placement loop: repair pass (drained / down-host
    // protections re-placed) then one bounded rebalance plan.
    sim::Duration tick = sim::from_millis(500);
  };
  void enable_fleet_placement(FleetPlacementConfig config);
  void enable_fleet_placement() {
    enable_fleet_placement(FleetPlacementConfig{});
  }

  [[nodiscard]] PlacementRing* placement_ring() { return ring_.get(); }
  [[nodiscard]] MembershipManager* membership() { return membership_.get(); }

  // Creates the domain on the ring-chosen primary host (bounded-load walk
  // over current per-host domain counts) and returns the running VM.
  // kFailedPrecondition when fleet placement is not enabled.
  [[nodiscard]] Expected<hv::Vm*> create_placed_domain(
      const DomainConfig& config);

  // Protects `vm` toward a ring-chosen heterogeneous secondary. The home
  // host is discovered from the owning hypervisor in the pool.
  [[nodiscard]] Expected<rep::ReplicationEngine*> protect_placed(hv::Vm& vm);
  [[nodiscard]] Expected<rep::ReplicationEngine*> protect_placed(
      hv::Vm& vm, const VmPolicy& policy);

  // Drain -> re-place -> delta-reseed: retires the domain's current engine
  // generation and starts a successor replicating to `next` (must be a live
  // pool host heterogeneous with the primary). When `next` served as this
  // domain's secondary before, its host-keyed durable store drives a
  // digest-diff delta seed instead of a full copy. On a failed successor
  // start the old generation stays drained and the placement loop retries
  // on its next tick.
  [[nodiscard]] Status rehome_secondary(const std::string& domain,
                                        hv::Host& next);

  // Placement-loop counters: replica moves executed (repair + rebalance),
  // repair re-placements among them, and rebalance candidates deferred by
  // the moves-per-tick budget.
  [[nodiscard]] std::uint64_t replica_moves() const { return replica_moves_; }
  [[nodiscard]] std::uint64_t placement_repairs() const {
    return placement_repairs_;
  }
  [[nodiscard]] std::uint64_t rebalance_deferred() const {
    return rebalance_deferred_;
  }

  // One re-protection cycle's recovery clock: from the moment the previous
  // generation's engine detected the primary failure to the moment the
  // replacement generation committed epoch 0 (protection restored).
  struct MttrRecord {
    std::uint32_t generation = 0;          // generation that restored cover
    sim::TimePoint failure_detected_at{};  // previous engine's detection
    sim::TimePoint reprotected_at{};       // new engine's epoch-0 commit
    bool complete = false;                 // reprotected_at is valid
  };

  struct Protection {
    std::string domain;
    hv::Host* primary = nullptr;    // current primary
    hv::Host* secondary = nullptr;  // current replica target
    hv::Vm* vm = nullptr;           // current authoritative VM
    std::uint32_t generation = 1;   // bumps on every re-protection
    VmPolicy policy{};              // carried across re-protections
    // Durable stores, at most one per host that ever served as this
    // domain's secondary. A host returning to secondary duty reuses its
    // surviving store (delta rejoin); a first-time secondary gets a fresh
    // one. Declared before `engines` so each store outlives its borrowers.
    struct HostStore {
      hv::Host* host = nullptr;
      std::unique_ptr<rep::DurableStore> store;
    };
    std::vector<HostStore> stores;
    // All engines ever created for this domain; the last is current. Older
    // generations stay alive because their service nodes keep routing
    // clients that have not re-resolved yet.
    std::vector<std::unique_ptr<rep::ReplicationEngine>> engines;
    // One record per re-protection, in generation order.
    std::vector<MttrRecord> mttr;

    [[nodiscard]] rep::ReplicationEngine& engine() const {
      return *engines.back();
    }
    // Store on the *current* secondary (null if none / durability off).
    [[nodiscard]] rep::DurableStore* store() const {
      return store_on(secondary);
    }
    [[nodiscard]] rep::DurableStore* store_on(const hv::Host* host) const {
      for (const auto& hs : stores) {
        if (hs.host == host) return hs.store.get();
      }
      return nullptr;
    }
  };

  [[nodiscard]] const std::vector<std::unique_ptr<Protection>>& protections()
      const {
    return protections_;
  }
  [[nodiscard]] Protection* find(const std::string& domain);

  // Fleet view: protected domains currently served by a live host.
  [[nodiscard]] std::size_t available_count();
  [[nodiscard]] std::uint64_t reprotections() const { return reprotections_; }

  // The shared schedulers, for tests and reports. Null when the host never
  // served in that role (or fleet scheduling is off).
  [[nodiscard]] rep::MigratorPool* migrator_pool_of(const hv::Host& host);
  [[nodiscard]] net::LinkArbiter* link_arbiter_of(const hv::Host& host);

  struct VmReport {
    std::string domain;
    std::uint32_t generation = 1;   // current protection generation
    double budget = 0.0;            // Algorithm 1 target D in effect
    double mean_degradation = 0.0;  // mean t/(t+T) over committed epochs
    std::uint64_t epochs = 0;
    std::uint64_t wire_bytes = 0;   // bytes pushed through the arbiter
    double goodput_mbps = 0.0;      // wire_bytes over granted transfer time
    sim::Duration queueing{};       // time lost to fabric contention
    double weight = 1.0;            // current fabric weight
  };
  // Per-generation time-to-reprotection, flattened across domains in
  // protection order (deterministic).
  struct MttrRow {
    std::string domain;
    std::uint32_t generation = 0;
    sim::Duration mttr{};     // failure detection -> epoch-0 commit
    bool complete = false;    // false while the re-seed is still in flight
  };
  struct FleetReport {
    std::vector<VmReport> vms;      // protection order (deterministic)
    std::vector<MttrRow> reprotect_mttr;
    double link_capacity_bytes_per_s = 0.0;  // 0 when no arbiter exists
    // max over arbiters; the invariant is peak <= capacity, always.
    double peak_reserved_bytes_per_s = 0.0;
    std::uint64_t total_wire_bytes = 0;
  };
  [[nodiscard]] FleetReport fleet_report();

  // Point-in-time restore (read-only): replays `domain`'s current durable
  // store — snapshot plus WAL records up to and including `epoch` — into a
  // throwaway staging area and reports what the replica image looked like
  // at that epoch. The live protection is untouched. kFailedPrecondition
  // when the domain has no durable store or the store rotated past `epoch`;
  // kNotFound for an unknown domain.
  struct RestoreReport {
    std::uint64_t requested_epoch = 0;
    std::uint64_t restored_epoch = 0;  // <= requested (valid-prefix replay)
    std::uint64_t pages_restored = 0;
    std::uint64_t wal_records_replayed = 0;
    std::uint64_t memory_digest = 0;   // full digest of the restored image
    std::uint64_t disk_digest = 0;
  };
  [[nodiscard]] Expected<RestoreReport> restore_to_epoch(
      const std::string& domain, std::uint64_t epoch);

 private:
  void ensure_connected(hv::Host& a, hv::Host& b);
  [[nodiscard]] hv::Host* pick_partner(const hv::Host& home);
  [[nodiscard]] std::size_t load_of(const hv::Host& host) const;
  [[nodiscard]] std::size_t secondary_load_of(const hv::Host& host) const;
  [[nodiscard]] hv::Host* pool_host_of(const hv::Vm& vm);
  // The ring's secondary for `domain`, balancing by secondary load under the
  // cap for a fleet of `protections` protected VMs.
  [[nodiscard]] Expected<hv::Host*> ring_secondary(
      const std::string& domain, const hv::Host& primary,
      const hv::Host* exclude, std::size_t protections) const;
  // Shared tail of protect()/protect_placed(): validates the effective
  // config and starts generation 1.
  [[nodiscard]] Expected<rep::ReplicationEngine*> protect_on(
      hv::Vm& vm, hv::Host& home, hv::Host& partner, const VmPolicy& policy);
  void handle_host_down(hv::Host& host);
  // Re-places a drained protection's replica on the ring's secondary
  // (skipping `exclude`); a failure or no candidate is retried by the
  // placement tick's repair pass.
  void repair_placement(const Protection& protection, const hv::Host* exclude);
  void handle_host_admitted(hv::Host& host);
  void placement_tick();
  void policy_tick();
  void weight_tick();
  [[nodiscard]] rep::MigratorPool& pool_for(hv::Host& primary);
  [[nodiscard]] net::LinkArbiter& arbiter_for(hv::Host& secondary);
  [[nodiscard]] rep::ReplicationConfig config_for(const VmPolicy& policy);
  // Builds the engine environment for one generation: fleet schedulers when
  // enabled, plus the secondary host's DurableStore (owned by `protection`,
  // reused if the host served as secondary before, created otherwise) when
  // durable replicas are on.
  [[nodiscard]] rep::EngineEnv env_for(hv::Host& primary, hv::Host& secondary,
                                       Protection& protection);
  // Connects the pair, pushes a new engine generation (primary -> secondary,
  // the protection's policy) and starts it on `vm`. On failure the
  // generation and any store created for it are rolled back and the status
  // is returned.
  [[nodiscard]] Status start_generation(Protection& protection,
                                        hv::Host& primary,
                                        hv::Host& secondary, hv::Vm& vm);

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  rep::ReplicationConfig defaults_;
  sim::HostProfile hardware_;
  std::vector<hv::Host*> pool_;
  std::vector<std::pair<const hv::Host*, const hv::Host*>> connected_;
  // Shared schedulers are declared before protections_ so the engines that
  // borrow them are destroyed first. Vectors keyed by host pointer with
  // linear search: iteration order is creation order, never pointer order
  // (pointer-keyed maps would make reports nondeterministic).
  FleetConfig fleet_;
  bool fleet_enabled_ = false;
  rep::DurableStoreConfig durable_config_;
  bool durable_enabled_ = false;
  std::vector<std::pair<hv::Host*, std::unique_ptr<rep::MigratorPool>>> pools_;
  std::vector<std::pair<hv::Host*, std::unique_ptr<net::LinkArbiter>>>
      arbiters_;
  // Placement layer (null until enable_fleet_placement). Declared before
  // protections_ so engine generations die before the ring they were placed
  // by.
  FleetPlacementConfig placement_config_;
  bool placement_enabled_ = false;
  std::unique_ptr<PlacementRing> ring_;
  std::unique_ptr<MembershipManager> membership_;
  std::unique_ptr<RebalanceOrchestrator> rebalancer_;
  std::uint64_t replica_moves_ = 0;
  std::uint64_t placement_repairs_ = 0;
  std::uint64_t rebalance_deferred_ = 0;
  std::uint64_t placed_domains_ = 0;
  // Cumulative per-engine queueing at the last placement tick, for deltas.
  std::vector<std::pair<const rep::ReplicationEngine*, sim::Duration>>
      queueing_snapshot_;
  std::vector<std::unique_ptr<Protection>> protections_;
  sim::Duration poll_{};
  bool policy_enabled_ = false;
  bool weight_loop_enabled_ = false;
  std::uint64_t reprotections_ = 0;
};

}  // namespace here::mgmt
