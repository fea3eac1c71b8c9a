// The checkpoint pause has one owner: TimeModel::price_epoch returns it term
// by term (PauseLedger), and the engine schedules exactly what the ledger
// says. These tests run every pricing branch end to end — HERE and Remus,
// encoders, speculative CoW, a durable replica, a lossy, throttled or
// bit-flipping link, a shared link arbiter, an injected migrator stall and a
// slowed disk — and check that every committed epoch's terms sum to its
// pause, and that the commit lands exactly pause (+ background) after the
// pause began, and that a retry after an abort starts only once the aborted
// epoch let the guest run again. They also pin the timeout abort: an epoch
// given up on its projected transfer reserves no link bytes and no CoW
// buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "kvmsim/kvm_hypervisor.h"
#include "obs/trace.h"
#include "replication/replication_engine.h"
#include "sim/hardware_profile.h"
#include "simnet/link_arbiter.h"
#include "workload/synthetic.h"
#include "xensim/xen_hypervisor.h"

namespace here::rep {
namespace {

// Dirties memory like the paper's microbenchmark and streams journal
// writes, so every epoch carries pages and mirrored disk bytes. Each slice's
// end lands in `ran`.
class DiskWriter final : public hv::GuestProgram {
 public:
  explicit DiskWriter(std::shared_ptr<std::vector<sim::TimePoint>> ran)
      : ran_(std::move(ran)) {}
  void start(hv::GuestEnv& env) override { inner_.start(env); }
  void tick(hv::GuestEnv& env, sim::Duration dt) override {
    ran_->push_back(env.now());
    inner_.tick(env, dt);
    const auto writes = static_cast<int>(sim::to_seconds(dt) * 2000.0);
    for (int i = 0; i < writes; ++i) {
      env.disk_write(cursor_ % 50000, 4, 0xA11CE000 + cursor_);
      ++cursor_;
    }
  }
  [[nodiscard]] std::unique_ptr<GuestProgram> clone() const override {
    return std::make_unique<DiskWriter>(*this);
  }

 private:
  wl::SyntheticProgram inner_{wl::memory_microbench(20)};
  std::shared_ptr<std::vector<sim::TimePoint>> ran_;
  std::uint64_t cursor_ = 0;
};

// One cell of the pricing matrix.
struct Cell {
  std::string name;
  EngineMode mode = EngineMode::kHere;
  bool encoders = false;
  bool cow = false;
  bool durable = false;
  double loss = 0.0;
  double bandwidth = 1.0;
  double bit_errors = 0.0;
  bool arbiter = false;
  sim::Duration stall{};  // injected before every 500 ms of the run
  double disk_slowdown = 1.0;
  // Frames lose this share of their tail until an epoch exhausts the
  // retransmit budget and aborts; then the wire heals and the retry goes
  // ahead.
  double truncation = 0.0;
  // The ledger term this cell's branch moves: it must be non-zero in at
  // least one committed epoch, or the cell does not cover its branch.
  sim::Duration PauseLedger::*term = nullptr;
};

void PrintTo(const Cell& cell, std::ostream* os) { *os << cell.name; }

// A primary (Xen), a secondary (KVM, or Xen for Remus) and the engine under
// test; with an arbiter, a neighbour VM on the same pair shares the link.
struct Rig {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  std::unique_ptr<hv::Host> primary;
  std::unique_ptr<hv::Host> secondary;
  std::unique_ptr<net::LinkArbiter> arbiter;
  std::unique_ptr<DurableStore> store;
  std::vector<std::unique_ptr<ReplicationEngine>> engines;
  std::vector<hv::Vm*> vms;
  // When the engine under test's guest ran (slice ends).
  std::shared_ptr<std::vector<sim::TimePoint>> ran =
      std::make_shared<std::vector<sim::TimePoint>>();
  obs::RingBufferRecorder recorder{1u << 20};
  obs::Tracer tracer{&recorder};

  explicit Rig(const Cell& cell) {
    sim::Rng root(7);
    primary = std::make_unique<hv::Host>(
        "xen-a", fabric, std::make_unique<xen::XenHypervisor>(sim, root.fork()));
    std::unique_ptr<hv::Hypervisor> second;
    if (cell.mode == EngineMode::kRemus) {
      second = std::make_unique<xen::XenHypervisor>(sim, root.fork());
    } else {
      second = std::make_unique<kvm::KvmHypervisor>(sim, root.fork());
    }
    secondary = std::make_unique<hv::Host>("b", fabric, std::move(second));
    fabric.connect(primary->ic_node(), secondary->ic_node(),
                   sim::grid5000_host().interconnect);

    ReplicationConfig config;
    config.mode = cell.mode;
    config.checkpoint_threads = 3;
    // Fixed T (no degradation target), so neighbour VMs stay in step.
    config.period.t_max = sim::from_millis(400);
    if (cell.encoders) config.encoders = EncoderConfig::all();
    config.speculative_cow = cell.cow;
    EngineEnv env;
    if (cell.durable) {
      store = std::make_unique<DurableStore>(DurableStoreConfig{});
      env.durable_store = store.get();
    }
    if (cell.arbiter) {
      arbiter = std::make_unique<net::LinkArbiter>(
          sim, config.time_model.wire_bytes_per_second);
      env.link_arbiter = arbiter.get();
    }
    const std::size_t n = cell.arbiter ? 2 : 1;
    for (std::size_t i = 0; i < n; ++i) {
      ReplicationConfig c = config;
      if (i == 0) c.tracer = &tracer;
      EngineEnv e = env;
      if (i > 0) e.durable_store = nullptr;
      engines.push_back(std::make_unique<ReplicationEngine>(
          sim, fabric, *primary, *secondary, c, e));
      hv::Vm& vm = primary->hypervisor().create_vm(hv::make_vm_spec(
          "vm" + std::to_string(i), 2, 128ULL << 20, /*scale=*/2));
      vm.attach_program(std::make_unique<DiskWriter>(
          i == 0 ? ran : std::make_shared<std::vector<sim::TimePoint>>()));
      primary->hypervisor().start(vm);
      vms.push_back(&vm);
      EXPECT_TRUE(engines.back()->start_protection(vm).ok());
    }
  }

  ReplicationEngine& engine() { return *engines[0]; }

  void run(const Cell& cell) {
    const sim::TimePoint deadline = sim.now() + sim::from_seconds(600);
    while (sim.now() < deadline &&
           !(engines[0]->seeded() && engines.back()->seeded())) {
      sim.run_for(sim::from_millis(50));
    }
    ASSERT_TRUE(engines[0]->seeded());
    const net::NodeId a = primary->ic_node();
    const net::NodeId b = secondary->ic_node();
    if (cell.loss > 0.0) fabric.set_link_loss(a, b, cell.loss);
    if (cell.bandwidth < 1.0) fabric.set_link_bandwidth_factor(a, b, cell.bandwidth);
    if (cell.bit_errors > 0.0) fabric.set_link_bit_error_rate(a, b, cell.bit_errors);
    if (cell.disk_slowdown > 1.0) {
      primary->hypervisor().disk(*vms[0]).set_slowdown(cell.disk_slowdown);
    }
    if (cell.truncation > 0.0) {
      fabric.set_link_truncation(a, b, cell.truncation);
      engines[0]->inject_migrator_stall(cell.stall);
      while (engines[0]->stats().epochs_aborted == 0) {
        sim.run_for(sim::from_millis(1));
      }
      fabric.set_link_truncation(a, b, 0.0);
    }
    for (int i = 0; i < 10; ++i) {
      engines[0]->inject_migrator_stall(cell.stall);
      sim.run_for(sim::from_millis(500));
    }
  }
};

// The ledger's terms, summed here one by one rather than through pause():
// a term that pause() forgot would make the scheduled pause disagree.
sim::Duration transfer_terms(const PauseLedger& l) {
  return l.copy + l.retransmit + l.net_penalty_copy + l.arbitration +
         l.state + l.disk + l.net_penalty_state + l.durable_append;
}

sim::Duration pause_terms(const PauseLedger& l) {
  return l.setup + l.vm_pause + l.vm_resume + l.scan + l.stall +
         (l.speculative_cow ? l.cow_snapshot : transfer_terms(l));
}

sim::Duration background_terms(const PauseLedger& l) {
  return l.speculative_cow ? transfer_terms(l) : sim::Duration{};
}

std::uint64_t epoch_of(const obs::TraceEvent& e) {
  for (const auto& [key, value] : e.args) {
    if (key == "epoch") return value.as_uint64();
  }
  return ~std::uint64_t{0};
}

class PauseLedgerMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(PauseLedgerMatrix, TermsSumToEveryCommittedPause) {
  const Cell& cell = GetParam();
  Rig rig(cell);
  rig.run(cell);
  const EngineStats& stats = rig.engine().stats();
  ASSERT_GE(stats.checkpoints.size(), 4u);

  bool branch_moved = cell.term == nullptr;
  for (const CheckpointRecord& r : stats.checkpoints) {
    EXPECT_EQ(pause_terms(r.ledger), r.pause) << "epoch " << r.epoch;
    EXPECT_EQ(r.ledger.pause(), r.pause) << "epoch " << r.epoch;
    EXPECT_EQ(r.ledger.background(), background_terms(r.ledger));
    EXPECT_EQ(r.ledger.speculative_cow, cell.cow);
    EXPECT_GT(r.ledger.disk, sim::Duration::zero());
    if (cell.term != nullptr && r.ledger.*(cell.term) > sim::Duration::zero()) {
      branch_moved = true;
    }
  }
  EXPECT_TRUE(branch_moved) << "no committed epoch exercised the branch";

  // The engine scheduled exactly the ledger: each commit lands pause (plus,
  // under CoW, the background transfer) after its last ckpt.pause began.
  const std::vector<obs::TraceEvent> events = rig.recorder.snapshot();
  ASSERT_EQ(rig.recorder.overwritten(), 0u);
  std::size_t checked = 0;
  for (const CheckpointRecord& r : stats.checkpoints) {
    const obs::TraceEvent* span = nullptr;
    for (const obs::TraceEvent& e : events) {
      if (e.ts_ns > r.completed_at.ns()) break;
      if (e.name == "ckpt.pause" && epoch_of(e) == r.epoch) span = &e;
    }
    ASSERT_NE(span, nullptr) << "epoch " << r.epoch;
    EXPECT_EQ(span->dur_ns, pause_terms(r.ledger).count());
    EXPECT_EQ(r.completed_at.ns() - span->ts_ns,
              (pause_terms(r.ledger) + background_terms(r.ledger)).count())
        << "epoch " << r.epoch;
    ++checked;
  }
  EXPECT_EQ(checked, stats.checkpoints.size());

  // An aborted epoch ends when its guest resumes, and the retry's backoff
  // counts from there: the guest runs again (its first slice ends one tick
  // after the resume) before the next pause begins.
  std::size_t aborts = 0;
  for (auto abort = events.begin(); abort != events.end(); ++abort) {
    if (abort->name != "epoch.abort") continue;
    ++aborts;
    const auto next_pause =
        std::find_if(abort, events.end(), [](const obs::TraceEvent& e) {
          return e.name == "ckpt.pause";
        });
    if (next_pause == events.end()) continue;
    const auto slice =
        std::upper_bound(rig.ran->begin(), rig.ran->end(),
                         sim::TimePoint{} + sim::Duration{abort->ts_ns});
    ASSERT_NE(slice, rig.ran->end());
    const std::int64_t resumed =
        slice->ns() - rig.primary->hypervisor().tick_interval.count();
    EXPECT_GE(next_pause->ts_ns, resumed)
        << "retry captured at " << next_pause->ts_ns
        << " ns, before the epoch aborted at " << abort->ts_ns
        << " ns let the guest run (" << resumed << " ns)";
  }
  EXPECT_EQ(aborts, stats.epochs_aborted);
  if (cell.truncation > 0.0) {
    EXPECT_GT(aborts, 0u) << "no epoch aborted, so the cell checks nothing";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Branches, PauseLedgerMatrix,
    ::testing::Values(
        Cell{.name = "here_raw", .term = &PauseLedger::copy},
        Cell{.name = "here_encoders", .encoders = true,
             .term = &PauseLedger::copy},
        Cell{.name = "remus", .mode = EngineMode::kRemus,
             .term = &PauseLedger::copy},
        Cell{.name = "cow", .cow = true, .term = &PauseLedger::cow_snapshot},
        Cell{.name = "cow_encoders", .encoders = true, .cow = true,
             .term = &PauseLedger::cow_snapshot},
        Cell{.name = "durable", .durable = true,
             .term = &PauseLedger::durable_append},
        Cell{.name = "lossy", .loss = 0.002,
             .term = &PauseLedger::net_penalty_copy},
        Cell{.name = "throttled", .bandwidth = 0.25,
             .term = &PauseLedger::net_penalty_state},
        Cell{.name = "bit_errors", .bit_errors = 1e-6,
             .term = &PauseLedger::retransmit},
        Cell{.name = "arbiter", .arbiter = true,
             .term = &PauseLedger::arbitration},
        Cell{.name = "stall", .stall = sim::from_millis(30),
             .term = &PauseLedger::stall},
        // The stall makes each aborted epoch hold the guest ~150 ms, past the
        // first retry backoff.
        Cell{.name = "truncated", .stall = sim::from_millis(150),
             .truncation = 1.0, .term = &PauseLedger::stall},
        Cell{.name = "slow_disk", .disk_slowdown = 8.0,
             .term = &PauseLedger::disk}),
    [](const ::testing::TestParamInfo<Cell>& info) { return info.param.name; });

// An epoch aborted on ft.checkpoint_timeout never transfers: its bytes must
// not be reserved on the shared link (neighbours would queue behind a ghost
// transfer) and, under CoW, no snapshot buffer was ever taken.
TEST(CheckpointTimeout, AbortedEpochReservesNoLinkAndNoCowBuffer) {
  sim::Simulation sim;
  net::Fabric fabric(sim);
  sim::Rng root(5);
  hv::Host steady("xen-a", fabric,
                  std::make_unique<xen::XenHypervisor>(sim, root.fork()));
  hv::Host doomed("xen-b", fabric,
                  std::make_unique<xen::XenHypervisor>(sim, root.fork()));
  hv::Host replica("kvm", fabric,
                   std::make_unique<kvm::KvmHypervisor>(sim, root.fork()));
  fabric.connect(steady.ic_node(), replica.ic_node(),
                 sim::grid5000_host().interconnect);
  fabric.connect(doomed.ic_node(), replica.ic_node(),
                 sim::grid5000_host().interconnect);
  net::LinkArbiter arbiter(sim, TimeModelConfig{}.wire_bytes_per_second);
  const EngineEnv env{.link_arbiter = &arbiter};

  ReplicationConfig config;
  config.period.t_max = sim::from_millis(300);
  config.speculative_cow = true;
  ReplicationEngine ok_engine(sim, fabric, steady, replica, config, env);
  config.ft.checkpoint_timeout = sim::from_micros(1);  // every epoch aborts
  ReplicationEngine timed_out(sim, fabric, doomed, replica, config, env);

  for (auto [host, engine] : {std::pair{&steady, &ok_engine},
                              std::pair{&doomed, &timed_out}}) {
    hv::Vm& vm = host->hypervisor().create_vm(
        hv::make_vm_spec(host->name() + "-vm", 2, 64ULL << 20));
    vm.attach_program(
        std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(20)));
    host->hypervisor().start(vm);
    ASSERT_TRUE(engine->start_protection(vm).ok());
  }
  sim.run_for(sim::from_seconds(30));
  ASSERT_TRUE(timed_out.seeded());

  EXPECT_GT(timed_out.stats().epochs_aborted, 2u);
  EXPECT_TRUE(timed_out.stats().checkpoints.empty());
  const net::LinkArbiter::FlowStats& doomed_flow =
      arbiter.stats(timed_out.arbiter_flow());
  EXPECT_EQ(doomed_flow.requests, 0u);
  EXPECT_EQ(doomed_flow.bytes, 0u);
  EXPECT_EQ(doomed.replication_memory_peak(), 0u);
  // The neighbour's epochs did go ahead, reserving and snapshotting.
  EXPECT_GT(arbiter.stats(ok_engine.arbiter_flow()).requests, 2u);
  EXPECT_GT(steady.replication_memory_peak(), 0u);
}

}  // namespace
}  // namespace here::rep
