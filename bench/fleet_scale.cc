// Fleet-scale sweep: multi-VM protection under the shared schedulers.
//
// Part 1 — steady state, 1..8 protected VMs on one primary host, all flows
// funneling into one secondary ingest link. Every engine draws checkpoint
// threads from the shared MigratorPool and wire time from the shared
// LinkArbiter; Algorithm 1 sees the *arbitrated* rates. Reported per sweep
// point: aggregate goodput, the arbiter's peak reserved rate against the
// configured link capacity, and the worst per-VM mean degradation against
// its budget D. Acceptance: every VM stays within budget and the link is
// never oversubscribed, at every fleet size.
//
// Part 2 — failover under load: N VMs on N primaries sharing one secondary;
// a deterministic FaultPlan hangs one primary mid-replication. Reported:
// MTTR (fault injection to replica activation, which spans heartbeat loss,
// probe classification, the fencing window and activation) and whether the
// surviving VMs kept committing throughout.
//
// Part 3 (opt-in, `--vms=N`) — consistent-hash fleet placement: N domains
// placed by the ring onto a 4-Xen + 4-KVM pool (ARCHITECTURE.md §11), every
// pairing heterogeneous, per-role load under the bounded-load cap, with the
// membership prober and the queueing-aware rebalancer running throughout and
// adaptive fabric weights on. Reported: per-host primary/secondary loads
// against the cap, keyspace shares, worst degradation, and the placement
// loop's move/deferral counters. `--vms=N` runs *only* this part (so the
// default invocation's stdout stays byte-identical to earlier releases) and
// is what CI's bench-baseline job pins as BENCH_placement.json at N=100.
//
// The whole bench is simulated time from fixed seeds: stdout is
// byte-identical across runs (CI diffs two invocations).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "kvmsim/kvm_hypervisor.h"
#include "mgmt/protection_manager.h"
#include "mgmt/virt.h"
#include "xensim/xen_hypervisor.h"

namespace here::bench {
namespace {

constexpr double kBudget = 0.10;         // Algorithm 1 target D for every VM
constexpr std::uint64_t kVmBytes = 16ULL << 20;
// Steady-state sweeps cap the shared ingest link well below the default
// modelled wire rate so the arbiter actually has to ration it: the 8-VM
// aggregate demand approaches this, queueing becomes visible, and Algorithm 1
// must absorb the arbitration stretch while keeping every VM under budget.
constexpr double kSteadyLinkBytesPerSecond = 25e6 / 8.0;  // 25 Mbit/s

struct FleetHarness {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  std::vector<std::unique_ptr<hv::Host>> hosts;

  hv::Host& add_xen(const std::string& name, std::uint64_t rng_stream) {
    hosts.push_back(std::make_unique<hv::Host>(
        name, fabric,
        std::make_unique<xen::XenHypervisor>(sim, sim::Rng(rng_stream))));
    return *hosts.back();
  }
  hv::Host& add_kvm(const std::string& name, std::uint64_t rng_stream) {
    hosts.push_back(std::make_unique<hv::Host>(
        name, fabric,
        std::make_unique<kvm::KvmHypervisor>(sim, sim::Rng(rng_stream))));
    return *hosts.back();
  }

  bool run_until(const std::function<bool()>& cond, double limit_s,
                 double step_ms = 50.0) {
    const sim::TimePoint deadline = sim.now() + sim::from_seconds(limit_s);
    while (sim.now() < deadline && !cond()) {
      sim.run_for(sim::from_millis(static_cast<std::int64_t>(step_ms)));
    }
    return cond();
  }
};

mgmt::ProtectionManager::VmPolicy fleet_policy() {
  mgmt::ProtectionManager::VmPolicy policy;
  policy.target_degradation = kBudget;
  policy.t_max = sim::from_seconds(1);
  policy.checkpoint_threads = 2;
  policy.flow_weight = 1.0;
  return policy;
}

hv::Vm& spawn_vm(mgmt::VirtConnection& conn, int index) {
  mgmt::DomainConfig domain;
  domain.name = "vm" + std::to_string(index);
  domain.memory_bytes = kVmBytes;
  hv::Vm& vm = *conn.create_domain(domain).value();
  // Distinct-but-fixed write rates so the flows are not symmetric.
  vm.attach_program(std::make_unique<wl::SyntheticProgram>(
      wl::memory_microbench(10.0 + 2.0 * static_cast<double>(index))));
  return vm;
}

// --- Part 1: steady-state scheduling ----------------------------------------------

struct SteadyResult {
  std::size_t vms = 0;
  double aggregate_goodput_mbps = 0.0;  // wire bytes over the measure window
  double capacity_mbps = 0.0;
  double peak_reserved_mbps = 0.0;
  double worst_degradation = 0.0;
  double total_queueing_ms = 0.0;
  std::uint64_t epochs = 0;
  bool within_budget = true;
  bool within_capacity = true;
  mgmt::ProtectionManager::FleetReport report;
};

SteadyResult run_steady(std::size_t vm_count, ObsSession& obs) {
  FleetHarness harness;
  hv::Host& xen = harness.add_xen("xen", 11);
  hv::Host& kvm = harness.add_kvm("kvm", 12);

  rep::ReplicationConfig defaults;
  defaults.tracer = obs.tracer();
  defaults.metrics = obs.metrics();
  mgmt::ProtectionManager manager(harness.sim, harness.fabric, defaults);
  manager.add_host(xen);
  manager.add_host(kvm);
  mgmt::ProtectionManager::FleetConfig fleet_config;
  fleet_config.link_bytes_per_second = kSteadyLinkBytesPerSecond;
  manager.enable_fleet_scheduling(fleet_config);

  mgmt::VirtConnection conn(xen);
  std::vector<rep::ReplicationEngine*> engines;
  for (std::size_t i = 0; i < vm_count; ++i) {
    hv::Vm& vm = spawn_vm(conn, static_cast<int>(i));
    engines.push_back(
        manager.protect(vm, xen, fleet_policy()).value());
  }
  harness.run_until(
      [&] {
        return std::ranges::all_of(engines,
                                   [](auto* e) { return e->seeded(); });
      },
      600);

  const std::uint64_t wire_at_start =
      manager.link_arbiter_of(kvm)->total_bytes();
  const sim::TimePoint t0 = harness.sim.now();
  const sim::Duration window = sim::from_seconds(20);
  harness.sim.run_for(window);

  SteadyResult r;
  r.vms = vm_count;
  r.report = manager.fleet_report();
  const double seconds = sim::to_seconds(harness.sim.now() - t0);
  r.aggregate_goodput_mbps =
      8.0 * static_cast<double>(r.report.total_wire_bytes - wire_at_start) /
      (seconds * 1e6);
  r.capacity_mbps = 8.0 * r.report.link_capacity_bytes_per_s / 1e6;
  r.peak_reserved_mbps = 8.0 * r.report.peak_reserved_bytes_per_s / 1e6;
  r.within_capacity = r.report.peak_reserved_bytes_per_s <=
                      r.report.link_capacity_bytes_per_s * (1.0 + 1e-9);
  for (const auto& vm : r.report.vms) {
    r.worst_degradation = std::max(r.worst_degradation, vm.mean_degradation);
    r.total_queueing_ms += sim::to_millis(vm.queueing);
    r.epochs += vm.epochs;
    if (vm.mean_degradation > vm.budget) r.within_budget = false;
  }
  return r;
}

// --- Part 2: failover while the fleet replicates ----------------------------------

struct FailoverResult {
  std::size_t vms = 0;
  double mttr_ms = 0.0;          // fault injection -> replica activation
  bool failed_over = false;
  bool digest_match = false;     // activated image == last committed
  std::size_t survivors_committing = 0;  // survivors that kept landing epochs
  std::uint64_t survivor_rejects = 0;
  std::uint64_t survivor_corruptions = 0;
};

FailoverResult run_failover(std::size_t vm_count, ObsSession& obs) {
  FleetHarness harness;
  std::vector<hv::Host*> primaries;
  for (std::size_t i = 0; i < vm_count; ++i) {
    primaries.push_back(
        &harness.add_xen("xen" + std::to_string(i), 100 + i));
  }
  hv::Host& kvm = harness.add_kvm("kvm", 200);

  rep::ReplicationConfig defaults;
  defaults.tracer = obs.tracer();
  defaults.metrics = obs.metrics();
  mgmt::ProtectionManager manager(harness.sim, harness.fabric, defaults);
  for (hv::Host* host : primaries) manager.add_host(*host);
  manager.add_host(kvm);
  manager.enable_fleet_scheduling();

  std::vector<rep::ReplicationEngine*> engines;
  for (std::size_t i = 0; i < vm_count; ++i) {
    mgmt::VirtConnection conn(*primaries[i]);
    hv::Vm& vm = spawn_vm(conn, static_cast<int>(i));
    engines.push_back(
        manager.protect(vm, *primaries[i], fleet_policy()).value());
  }
  harness.run_until(
      [&] {
        return std::ranges::all_of(engines,
                                   [](auto* e) { return e->seeded(); });
      },
      600);
  harness.sim.run_for(sim::from_seconds(2));

  faults::FaultInjector injector(harness.sim, harness.fabric, obs.tracer(),
                                 obs.metrics());
  injector.register_host("xen0", *primaries[0]);
  faults::FaultPlan plan;
  const sim::TimePoint inject_at = harness.sim.now() + sim::from_millis(100);
  plan.hang_host("xen0", inject_at);
  injector.arm(plan);

  std::vector<std::uint64_t> epochs_before;
  for (auto* e : engines) epochs_before.push_back(e->stats().checkpoints.size());

  FailoverResult r;
  r.vms = vm_count;
  r.failed_over = harness.run_until(
      [&] { return engines[0]->failed_over(); }, 30, 5.0);
  if (r.failed_over) {
    r.mttr_ms = sim::to_millis(harness.sim.now() - inject_at);
    const rep::EngineStats& stats = engines[0]->stats();
    r.digest_match = stats.replica_digest_at_activation ==
                     stats.committed_digest_at_activation;
  }
  harness.sim.run_for(sim::from_seconds(3));
  for (std::size_t i = 1; i < vm_count; ++i) {
    const rep::EngineStats& stats = engines[i]->stats();
    if (!engines[i]->failed_over() &&
        stats.checkpoints.size() > epochs_before[i]) {
      ++r.survivors_committing;
    }
    r.survivor_rejects += stats.commits_rejected;
    r.survivor_corruptions += stats.regions_corrupted;
  }
  return r;
}

// --- Part 3: consistent-hash placement at fleet scale ------------------------------

// Per-secondary ingest capacity for the placement pool: 100 Mbit/s split
// across the 8 hosts, so ~12 flows per secondary keep the arbiter honest
// without drowning the seeding phase.
constexpr double kPlacementLinkBytesPerSecond = 100e6 / 8.0 / 8.0;

// Host identity is copied out (not pointed at): the harness — and its Host
// objects — dies with run_placement, while these rows outlive it.
struct HostRow {
  std::string name;
  const char* kind = "";  // static storage from hv::to_string
  std::size_t primaries = 0;
  std::size_t secondaries = 0;
  double keyspace_share = 0.0;
};

struct PlacementResult {
  std::size_t vms = 0;
  double seed_time_s = 0.0;
  std::size_t max_primary_load = 0;
  std::size_t max_secondary_load = 0;
  std::size_t load_cap = 0;
  std::size_t hetero_violations = 0;
  bool all_seeded = false;
  double worst_degradation = 0.0;
  double max_weight = 0.0;
  std::uint64_t epochs = 0;
  std::uint64_t replica_moves = 0;
  std::uint64_t repairs = 0;
  std::uint64_t deferred = 0;
  std::uint64_t membership_rounds = 0;
  double aggregate_goodput_mbps = 0.0;
  double capacity_mbps = 0.0;
  double peak_reserved_mbps = 0.0;
  bool within_capacity = true;
  std::vector<HostRow> hosts;
};

PlacementResult run_placement(std::size_t vm_count, ObsSession& obs) {
  FleetHarness harness;
  for (int i = 0; i < 4; ++i) {
    harness.add_xen("xen" + std::to_string(i),
                    11 + static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < 4; ++i) {
    harness.add_kvm("kvm" + std::to_string(i),
                    21 + static_cast<std::uint64_t>(i));
  }

  rep::ReplicationConfig defaults;
  defaults.tracer = obs.tracer();
  defaults.metrics = obs.metrics();
  mgmt::ProtectionManager manager(harness.sim, harness.fabric, defaults);
  for (auto& host : harness.hosts) manager.add_host(*host);

  mgmt::ProtectionManager::FleetConfig fleet_config;
  fleet_config.link_bytes_per_second = kPlacementLinkBytesPerSecond;
  fleet_config.adaptive_weights = true;
  manager.enable_fleet_scheduling(fleet_config);
  manager.enable_fleet_placement();

  std::vector<rep::ReplicationEngine*> engines;
  for (std::size_t i = 0; i < vm_count; ++i) {
    mgmt::DomainConfig domain;
    domain.name = "vm" + std::to_string(i);
    domain.memory_bytes = kVmBytes;
    hv::Vm& vm = *manager.create_placed_domain(domain).value();
    // Distinct-but-fixed write rates so the flows are not symmetric.
    vm.attach_program(std::make_unique<wl::SyntheticProgram>(
        wl::memory_microbench(4.0 + 2.0 * static_cast<double>(i % 10))));
    engines.push_back(manager.protect_placed(vm, fleet_policy()).value());
  }

  const sim::TimePoint t_start = harness.sim.now();
  PlacementResult r;
  r.vms = vm_count;
  r.all_seeded = harness.run_until(
      [&] {
        return std::ranges::all_of(engines,
                                   [](auto* e) { return e->seeded(); });
      },
      600);
  r.seed_time_s = sim::to_seconds(harness.sim.now() - t_start);

  const std::uint64_t wire_at_start = manager.fleet_report().total_wire_bytes;
  const sim::TimePoint t0 = harness.sim.now();
  harness.sim.run_for(sim::from_seconds(20));
  const double seconds = sim::to_seconds(harness.sim.now() - t0);

  const mgmt::ProtectionManager::FleetReport report = manager.fleet_report();
  r.aggregate_goodput_mbps =
      8.0 * static_cast<double>(report.total_wire_bytes - wire_at_start) /
      (seconds * 1e6);
  r.capacity_mbps = 8.0 * report.link_capacity_bytes_per_s / 1e6;
  r.peak_reserved_mbps = 8.0 * report.peak_reserved_bytes_per_s / 1e6;
  r.within_capacity = report.peak_reserved_bytes_per_s <=
                      report.link_capacity_bytes_per_s * (1.0 + 1e-9);
  for (const auto& vm : report.vms) {
    r.worst_degradation = std::max(r.worst_degradation, vm.mean_degradation);
    r.max_weight = std::max(r.max_weight, vm.weight);
    r.epochs += vm.epochs;
  }

  for (auto& host : harness.hosts) {
    HostRow row;
    row.name = host->name();
    row.kind = hv::to_string(host->hypervisor().kind());
    row.keyspace_share = manager.placement_ring()->keyspace_share(*host);
    r.hosts.push_back(row);
  }
  for (const auto& p : manager.protections()) {
    for (std::size_t i = 0; i < r.hosts.size(); ++i) {
      if (harness.hosts[i].get() == p->primary) ++r.hosts[i].primaries;
      if (harness.hosts[i].get() == p->secondary) ++r.hosts[i].secondaries;
    }
    if (p->primary != nullptr && p->secondary != nullptr &&
        p->primary->hypervisor().kind() == p->secondary->hypervisor().kind()) {
      ++r.hetero_violations;
    }
  }
  for (const HostRow& row : r.hosts) {
    r.max_primary_load = std::max(r.max_primary_load, row.primaries);
    r.max_secondary_load = std::max(r.max_secondary_load, row.secondaries);
  }
  r.load_cap = manager.placement_ring()->load_cap(vm_count);
  r.replica_moves = manager.replica_moves();
  r.repairs = manager.placement_repairs();
  r.deferred = manager.rebalance_deferred();
  r.membership_rounds = manager.membership()->rounds();
  return r;
}

void export_placement(ObsSession& obs, const PlacementResult& r) {
  const std::string prefix = "placement.n" + std::to_string(r.vms) + ".";
  obs.bench_value(prefix + "seed_time_s", r.seed_time_s);
  obs.bench_value(prefix + "max_primary_load",
                  static_cast<double>(r.max_primary_load));
  obs.bench_value(prefix + "max_secondary_load",
                  static_cast<double>(r.max_secondary_load));
  obs.bench_value(prefix + "load_cap", static_cast<double>(r.load_cap));
  obs.bench_value(prefix + "hetero_violations",
                  static_cast<double>(r.hetero_violations));
  obs.bench_value(prefix + "worst_degradation", r.worst_degradation);
  obs.bench_value(prefix + "max_weight", r.max_weight);
  obs.bench_value(prefix + "epochs", static_cast<double>(r.epochs));
  obs.bench_value(prefix + "goodput_mbps", r.aggregate_goodput_mbps);
  obs.bench_value(prefix + "peak_reserved_mbps", r.peak_reserved_mbps);
  obs.bench_value(prefix + "replica_moves",
                  static_cast<double>(r.replica_moves));
  obs.bench_value(prefix + "rebalance_deferred",
                  static_cast<double>(r.deferred));
  obs.bench_value(prefix + "membership_rounds",
                  static_cast<double>(r.membership_rounds));
  for (const HostRow& row : r.hosts) {
    const std::string host_prefix = prefix + row.name + ".";
    obs.bench_value(host_prefix + "primaries",
                    static_cast<double>(row.primaries));
    obs.bench_value(host_prefix + "secondaries",
                    static_cast<double>(row.secondaries));
    obs.bench_value(host_prefix + "keyspace_share", row.keyspace_share);
  }
}

int run_placement_mode(std::size_t vm_count, ObsSession& obs) {
  print_title("Fleet placement: " + std::to_string(vm_count) +
              " VMs on 4 Xen + 4 KVM hosts");
  const PlacementResult r = run_placement(vm_count, obs);
  export_placement(obs, r);

  std::printf("  %-6s %6s %10s %12s %10s\n", "host", "kind", "primaries",
              "secondaries", "share");
  for (const HostRow& row : r.hosts) {
    std::printf("  %-6s %6s %10zu %12zu %9.3f%%\n", row.name.c_str(),
                row.kind, row.primaries, row.secondaries,
                100.0 * row.keyspace_share);
  }
  std::printf(
      "\n  seeded=%s in %.1fs  load cap=%zu (max primary %zu, max secondary "
      "%zu)  hetero violations=%zu\n",
      r.all_seeded ? "yes" : "NO", r.seed_time_s, r.load_cap,
      r.max_primary_load, r.max_secondary_load, r.hetero_violations);
  std::printf(
      "  goodput=%.1f Mbps  peak reserved=%.1f/%.1f Mbps  worst D_T=%.4f  "
      "max weight=%.2f  epochs=%llu\n",
      r.aggregate_goodput_mbps, r.peak_reserved_mbps, r.capacity_mbps,
      r.worst_degradation, r.max_weight,
      static_cast<unsigned long long>(r.epochs));
  std::printf(
      "  replica moves=%llu (repairs %llu, deferred %llu)  membership "
      "rounds=%llu\n",
      static_cast<unsigned long long>(r.replica_moves),
      static_cast<unsigned long long>(r.repairs),
      static_cast<unsigned long long>(r.deferred),
      static_cast<unsigned long long>(r.membership_rounds));

  const bool ok = r.all_seeded && r.hetero_violations == 0 &&
                  r.max_primary_load <= r.load_cap &&
                  r.max_secondary_load <= r.load_cap && r.within_capacity;
  std::printf("\n  verdict: %s\n", ok ? "ok" : "FAIL");
  if (!ok) std::printf("\nFLEET PLACEMENT: acceptance FAILED\n");
  const bool finished = obs.finish();
  return ok && finished ? 0 : 1;
}

// --- Reporting --------------------------------------------------------------------

void export_steady(ObsSession& obs, const SteadyResult& r) {
  const std::string prefix = "fleet_scale.n" + std::to_string(r.vms) + ".";
  obs.bench_value(prefix + "goodput_mbps", r.aggregate_goodput_mbps);
  obs.bench_value(prefix + "peak_reserved_mbps", r.peak_reserved_mbps);
  obs.bench_value(prefix + "worst_degradation", r.worst_degradation);
  obs.bench_value(prefix + "queueing_ms", r.total_queueing_ms);
  obs.bench_value(prefix + "epochs", static_cast<double>(r.epochs));
  obs::MetricsRegistry* metrics = obs.metrics();
  if (metrics == nullptr) return;
  metrics->gauge(prefix + "goodput_mbps").set(r.aggregate_goodput_mbps);
  metrics->gauge(prefix + "peak_reserved_mbps").set(r.peak_reserved_mbps);
  metrics->gauge(prefix + "worst_degradation").set(r.worst_degradation);
  metrics->gauge(prefix + "queueing_ms").set(r.total_queueing_ms);
  metrics->gauge(prefix + "epochs").set(static_cast<double>(r.epochs));
}

void export_failover(ObsSession& obs, const FailoverResult& r) {
  const std::string prefix =
      "fleet_scale.failover_n" + std::to_string(r.vms) + ".";
  obs.bench_value(prefix + "mttr_ms", r.mttr_ms);
  obs.bench_value(prefix + "survivors_committing",
                  static_cast<double>(r.survivors_committing));
  obs::MetricsRegistry* metrics = obs.metrics();
  if (metrics == nullptr) return;
  metrics->gauge(prefix + "mttr_ms").set(r.mttr_ms);
  metrics->gauge(prefix + "survivors_committing")
      .set(static_cast<double>(r.survivors_committing));
}

}  // namespace
}  // namespace here::bench

int main(int argc, char** argv) {
  using namespace here;
  using namespace here::bench;
  ObsSession obs(argc, argv);
  std::size_t placement_vms = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--vms=", 0) == 0) {
      placement_vms = static_cast<std::size_t>(
          std::strtoull(arg.substr(6).data(), nullptr, 10));
    }
  }
  if (placement_vms > 0) return run_placement_mode(placement_vms, obs);
  bool ok = true;

  print_title("Fleet scale: steady-state scheduling, 1-8 VMs on one link");
  std::printf("  %3s %14s %14s %14s %10s %8s %12s %8s %8s\n", "VMs",
              "goodput[Mbps]", "reserved[Mbps]", "capacity[Mbps]",
              "worst D_T", "budget", "queue[ms]", "epochs", "verdict");
  for (std::size_t n = 1; n <= 8; ++n) {
    const SteadyResult r = run_steady(n, obs);
    export_steady(obs, r);
    const bool pass = r.within_budget && r.within_capacity;
    ok = ok && pass;
    std::printf("  %3zu %14.1f %14.1f %14.1f %10.4f %8.2f %12.1f %8llu %8s\n",
                r.vms, r.aggregate_goodput_mbps, r.peak_reserved_mbps,
                r.capacity_mbps, r.worst_degradation, kBudget,
                r.total_queueing_ms,
                static_cast<unsigned long long>(r.epochs),
                pass ? "ok" : "FAIL");
    if (n == 8) {
      print_title("Per-VM breakdown at 8 VMs");
      std::printf("  %-6s %8s %10s %8s %14s %12s %8s\n", "vm", "weight",
                  "mean D_T", "budget", "goodput[Mbps]", "queue[ms]",
                  "epochs");
      for (const auto& vm : r.report.vms) {
        std::printf("  %-6s %8.1f %10.4f %8.2f %14.1f %12.1f %8llu\n",
                    vm.domain.c_str(), vm.weight, vm.mean_degradation,
                    vm.budget, vm.goodput_mbps, sim::to_millis(vm.queueing),
                    static_cast<unsigned long long>(vm.epochs));
      }
    }
  }

  print_title("Fleet scale: failover MTTR with neighbours replicating");
  std::printf("  %3s %12s %10s %8s %12s %10s %8s\n", "VMs", "MTTR[ms]",
              "activated", "digest", "survivors", "rejects", "verdict");
  for (const std::size_t n : {2ULL, 4ULL, 8ULL}) {
    const FailoverResult r = run_failover(n, obs);
    export_failover(obs, r);
    const bool pass = r.failed_over && r.digest_match &&
                      r.survivors_committing == n - 1 &&
                      r.survivor_rejects == 0 && r.survivor_corruptions == 0;
    ok = ok && pass;
    std::printf("  %3zu %12.1f %10s %8s %9zu/%-2zu %10llu %8s\n", r.vms,
                r.mttr_ms, r.failed_over ? "yes" : "NO",
                r.digest_match ? "match" : "MISMATCH", r.survivors_committing,
                r.vms - 1, static_cast<unsigned long long>(r.survivor_rejects),
                pass ? "ok" : "FAIL");
  }

  if (!ok) std::printf("\nFLEET SCALE: acceptance FAILED\n");
  const bool finished = obs.finish();
  return ok && finished ? 0 : 1;
}
