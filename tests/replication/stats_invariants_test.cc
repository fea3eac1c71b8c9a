// Invariants over the engine's reported statistics — the data every bench
// builds its tables from had better be internally consistent.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "kvmsim/kvm_hypervisor.h"
#include "mgmt/protection_manager.h"
#include "mgmt/virt.h"
#include "obs/metrics.h"
#include "replication/testbed.h"
#include "workload/synthetic.h"
#include "xensim/xen_hypervisor.h"

namespace here::rep {
namespace {

TEST(StatsInvariants, CheckpointRecordsAreWellFormed) {
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("vm", 2, 64ULL << 20);
  config.engine.period.t_max = sim::from_millis(700);
  config.engine.period.target_degradation = 0.25;
  config.engine.period.sigma = sim::from_millis(100);
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(25)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(20));

  const auto& stats = bed.engine().stats();
  ASSERT_GT(stats.checkpoints.size(), 5u);

  sim::TimePoint last_time{};
  std::uint64_t last_epoch = 0;
  sim::Duration pause_sum{};
  for (const auto& record : stats.checkpoints) {
    // Monotone completion times and strictly increasing epochs.
    EXPECT_GT(record.completed_at, last_time);
    EXPECT_GT(record.epoch, last_epoch);
    last_time = record.completed_at;
    last_epoch = record.epoch;
    // Period within policy bounds (+1ms slack for event rounding).
    EXPECT_LE(record.period_used,
              config.engine.period.t_max + sim::from_millis(1));
    // Degradation consistent with its definition.
    const double expect_deg =
        sim::to_seconds(record.pause) /
        (sim::to_seconds(record.pause) + sim::to_seconds(record.period_used));
    EXPECT_NEAR(record.degradation, expect_deg, 1e-9);
    EXPECT_EQ(record.bytes_model,
              record.dirty_pages_model * common::kPageSize);
    pause_sum += record.pause;
  }
  EXPECT_EQ(stats.total_pause, pause_sum);
  // Replication CPU work is at least the critical-path pause copy time.
  EXPECT_GT(stats.replication_cpu.count(), 0);
  // The period series tracks checkpoint counts.
  EXPECT_GE(stats.period_series.points().size(), stats.checkpoints.size());
}

TEST(StatsInvariants, OutboundAccountingBalances) {
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("vm", 2, 48ULL << 20);
  config.engine.period.t_max = sim::from_millis(500);
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(std::make_unique<wl::SyntheticProgram>(
      wl::memory_microbench(15)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(5));

  const auto& outbound = bed.engine().outbound();
  EXPECT_EQ(outbound.captured_total(),
            outbound.released_total() + outbound.dropped_total() +
                outbound.pending());

  bed.primary().inject_fault(hv::FaultKind::kCrash);
  bed.run_until([&] { return bed.engine().failed_over(); },
                sim::from_seconds(10));
  EXPECT_EQ(outbound.pending(), 0u);  // dropped at failover
  EXPECT_EQ(bed.engine().stats().packets_dropped_at_failover,
            outbound.dropped_total());
}

// --- One set of books: every rep.* counter mirrors its EngineStats field -----

// The counter rows this registry holds, by name; a row whose gate kept it
// unregistered is absent.
std::vector<std::pair<const EngineCounterRow*, std::uint64_t>> registered(
    const obs::MetricsRegistry& metrics) {
  std::vector<std::pair<const EngineCounterRow*, std::uint64_t>> out;
  for (const EngineCounterRow& row : engine_counter_rows()) {
    if (const obs::Counter* c = metrics.find_counter(row.metric)) {
      out.emplace_back(&row, c->value());
    }
  }
  return out;
}

TEST(StatsInvariants, CountersEqualTheirStatsFieldsUnderFaults) {
  obs::MetricsRegistry metrics;
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("vm", 2, 32ULL << 20);
  config.engine.period.t_max = sim::from_millis(400);
  config.engine.ft.scrub_interval = sim::from_millis(250);
  config.engine.ft.fencing_window = sim::from_seconds(2);
  config.engine.metrics = &metrics;
  config.durable_replica = true;
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(15)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(1));
  const net::NodeId ic_a = bed.primary().ic_node();
  const net::NodeId ic_b = bed.secondary().ic_node();

  // A bit-error link: frames fail verification and are retransmitted.
  bed.fabric().set_link_bit_error_rate(ic_a, ic_b, 1e-7);
  bed.simulation().run_for(sim::from_seconds(3));
  bed.fabric().set_link_bit_error_rate(ic_a, ic_b, 0.0);

  // Post-commit rot in the replica: the scrubber repairs it.
  bed.engine().staging()->memory().page_mut(vm.memory().pages() - 1)[0] ^= 0xff;
  bed.simulation().run_for(sim::from_seconds(1));

  // Heartbeat loss healed inside the fencing window: the failover is fenced.
  bed.fabric().set_link_down(ic_a, ic_b, true);
  bed.simulation().run_for(sim::from_millis(400));
  bed.fabric().set_link_down(ic_a, ic_b, false);
  bed.simulation().run_for(sim::from_seconds(3));

  // A durable secondary crashes and rejoins from snapshot+WAL.
  bed.engine().inject_secondary_crash(sim::from_millis(300));
  bed.simulation().run_for(sim::from_seconds(4));

  const EngineStats& stats = bed.engine().stats();
  ASSERT_FALSE(bed.engine().failed_over());
  EXPECT_GT(stats.regions_corrupted, 0u);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_GT(stats.scrub_repairs, 0u);
  EXPECT_EQ(stats.failovers_fenced, 1u);
  EXPECT_EQ(stats.rejoins, 1u);
  EXPECT_GT(stats.wal_appends, 0u);

  // Without encoders the enc_* rows stay unregistered; every other row is.
  const auto rows = registered(metrics);
  EXPECT_EQ(rows.size(), engine_counter_rows().size() - 5);
  for (const auto& [row, value] : rows) {
    EXPECT_EQ(value, row->value(stats)) << row->metric;
  }
  EXPECT_EQ(stats.epochs_committed, stats.checkpoints.size());
}

TEST(StatsInvariants, FleetCountersAreTheSumOverEngines) {
  obs::MetricsRegistry metrics;
  sim::Simulation sim;
  net::Fabric fabric(sim);
  auto xen = std::make_unique<hv::Host>(
      "xen", fabric, std::make_unique<xen::XenHypervisor>(sim, sim::Rng(7)));
  auto kvm = std::make_unique<hv::Host>(
      "kvm", fabric, std::make_unique<kvm::KvmHypervisor>(sim, sim::Rng(8)));

  ReplicationConfig defaults;
  defaults.period.t_max = sim::from_millis(500);
  defaults.period.target_degradation = 0.1;
  defaults.checkpoint_threads = 2;
  defaults.encoders = EncoderConfig::all();
  defaults.metrics = &metrics;
  mgmt::ProtectionManager manager(sim, fabric, defaults);
  manager.add_host(*xen);
  manager.add_host(*kvm);
  mgmt::ProtectionManager::FleetConfig fleet_config;
  fleet_config.migrator_workers = 3;
  manager.enable_fleet_scheduling(fleet_config);

  mgmt::VirtConnection conn(*xen);
  std::vector<ReplicationEngine*> engines;
  for (int i = 0; i < 4; ++i) {
    mgmt::DomainConfig domain;
    domain.name = "vm" + std::to_string(i);
    domain.memory_bytes = 16ULL << 20;
    hv::Vm& vm = *conn.create_domain(domain).value();
    vm.attach_program(std::make_unique<wl::SyntheticProgram>(
        wl::memory_microbench(10.0 + 2.0 * i)));
    Expected<ReplicationEngine*> engine = manager.protect(vm, *xen);
    ASSERT_TRUE(engine.ok()) << engine.status().to_string();
    engines.push_back(engine.value());
  }
  const sim::TimePoint deadline = sim.now() + sim::from_seconds(600);
  while (sim.now() < deadline &&
         !std::ranges::all_of(engines, [](auto* e) { return e->seeded(); })) {
    sim.run_for(sim::from_millis(50));
  }
  ASSERT_TRUE(
      std::ranges::all_of(engines, [](auto* e) { return e->seeded(); }));
  sim.run_for(sim::from_seconds(5));

  const auto rows = registered(metrics);
  EXPECT_EQ(rows.size(), engine_counter_rows().size() - 3);  // no store
  for (const auto& [row, value] : rows) {
    std::uint64_t sum = 0;
    for (const ReplicationEngine* e : engines) sum += row->value(e->stats());
    EXPECT_EQ(value, sum) << row->metric;
  }
  EXPECT_GT(metrics.find_counter("rep.enc_bytes_in")->value(), 0u);
}

TEST(StatsInvariants, EveryEngineCounterIsDocumented) {
  std::ifstream in(std::string(HERE_SOURCE_DIR) + "/docs/observability.md");
  ASSERT_TRUE(in.good());
  std::stringstream doc;
  doc << in.rdbuf();
  for (const EngineCounterRow& row : engine_counter_rows()) {
    const std::string cell = "| `" + std::string(row.metric) + "` |";
    EXPECT_NE(doc.str().find(cell), std::string::npos)
        << row.metric << " is missing from the docs/observability.md table";
  }
}

TEST(StatsInvariants, TestbedRunUntilRespectsLimit) {
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("vm", 1, 16ULL << 20);
  Testbed bed(config);
  const sim::TimePoint before = bed.simulation().now();
  EXPECT_FALSE(bed.run_until([] { return false; }, sim::from_seconds(2)));
  EXPECT_GE(bed.simulation().now() - before, sim::from_seconds(2));
  EXPECT_LE(bed.simulation().now() - before, sim::from_seconds(3));
  EXPECT_TRUE(bed.run_until([] { return true; }, sim::from_seconds(1)));
}

}  // namespace
}  // namespace here::rep
