// Cross-VM failover isolation: a primary-host DoS fault (FaultPlan
// kHostHang) against ONE VM of a 4-VM fleet must fail over that VM alone —
// fenced, completed, digest-verified — while the other three VMs, which
// share the hung VM's secondary ingest link and keep replicating throughout,
// never miss a commit or corrupt an epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "kvmsim/kvm_hypervisor.h"
#include "mgmt/protection_manager.h"
#include "mgmt/virt.h"
#include "workload/synthetic.h"
#include "xensim/xen_hypervisor.h"

namespace here::mgmt {
namespace {

TEST(FleetFailover, HostDosFailsOverOneVmWhileNeighboursKeepCommitting) {
  sim::Simulation sim;
  net::Fabric fabric(sim);

  // Four Xen primaries, one VM each, all replicating into ONE shared KVM
  // secondary — its ingest link is the arbitration point, so the hung VM's
  // failover runs while the survivors' checkpoint flows keep crossing it.
  std::vector<std::unique_ptr<hv::Host>> primaries;
  for (int i = 0; i < 4; ++i) {
    primaries.push_back(std::make_unique<hv::Host>(
        "xen" + std::to_string(i), fabric,
        std::make_unique<xen::XenHypervisor>(sim, sim::Rng(100 + i))));
  }
  hv::Host kvm("kvm", fabric,
               std::make_unique<kvm::KvmHypervisor>(sim, sim::Rng(200)));

  rep::ReplicationConfig defaults;
  defaults.period.t_max = sim::from_millis(500);
  ProtectionManager manager(sim, fabric, defaults);
  for (auto& host : primaries) manager.add_host(*host);
  manager.add_host(kvm);
  manager.enable_fleet_scheduling();

  std::vector<rep::ReplicationEngine*> engines;
  for (int i = 0; i < 4; ++i) {
    VirtConnection conn(*primaries[i]);
    DomainConfig domain;
    domain.name = "vm" + std::to_string(i);
    domain.memory_bytes = 16ULL << 20;
    hv::Vm& vm = *conn.create_domain(domain).value();
    vm.attach_program(
        std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(10)));
    Expected<rep::ReplicationEngine*> protect =
        manager.protect(vm, *primaries[i]);
    ASSERT_TRUE(protect.ok()) << protect.status().to_string();
    ASSERT_EQ(manager.find(domain.name)->secondary, &kvm);
    engines.push_back(protect.value());
  }
  // One shared arbiter, four flows into it.
  ASSERT_NE(manager.link_arbiter_of(kvm), nullptr);
  EXPECT_EQ(manager.link_arbiter_of(kvm)->flow_count(), 4u);

  const auto run_until = [&](const std::function<bool()>& cond,
                             double limit_s) {
    const sim::TimePoint deadline = sim.now() + sim::from_seconds(limit_s);
    while (sim.now() < deadline && !cond()) sim.run_for(sim::from_millis(50));
    return cond();
  };
  ASSERT_TRUE(run_until(
      [&] {
        return std::ranges::all_of(engines,
                                   [](auto* e) { return e->seeded(); });
      },
      600));
  sim.run_for(sim::from_seconds(2));

  // DoS the first VM's primary via a deterministic fault plan: the host
  // hangs (stops responding; links stay up), which is exactly the ambiguous
  // shape fencing exists for.
  faults::FaultInjector injector(sim, fabric);
  injector.register_host("xen0", *primaries[0]);
  faults::FaultPlan plan;
  plan.hang_host("xen0", sim.now() + sim::from_millis(250));
  injector.arm(plan);

  const std::vector<std::uint64_t> epochs_before = [&] {
    std::vector<std::uint64_t> v;
    for (auto* e : engines) v.push_back(e->stats().checkpoints.size());
    return v;
  }();

  ASSERT_TRUE(run_until([&] { return engines[0]->failed_over(); }, 30));

  // The DoSed VM's failover fenced and completed: service moved to the
  // replica, and the activated image is byte-identical to the last
  // committed checkpoint (memory and disk).
  EXPECT_TRUE(engines[0]->service_available());
  const rep::EngineStats& failed = engines[0]->stats();
  EXPECT_EQ(failed.replica_digest_at_activation,
            failed.committed_digest_at_activation);
  EXPECT_EQ(failed.replica_disk_digest_at_activation,
            failed.committed_disk_digest_at_activation);

  // Let the survivors run on; the failover must not have bled into them.
  sim.run_for(sim::from_seconds(3));
  for (int i = 1; i < 4; ++i) {
    SCOPED_TRACE("vm" + std::to_string(i));
    const rep::EngineStats& stats = engines[i]->stats();
    EXPECT_FALSE(engines[i]->failed_over());
    EXPECT_TRUE(engines[i]->service_available());
    // Commit stream intact: epochs kept landing and none were rejected or
    // corrupted by the neighbour's failover traffic.
    EXPECT_GT(stats.checkpoints.size(), epochs_before[i]);
    EXPECT_EQ(stats.commits_rejected, 0u);
    EXPECT_EQ(stats.regions_corrupted, 0u);
  }
}

}  // namespace
}  // namespace here::mgmt
