// Unit tests for the replication building blocks: the period manager
// (Algorithm 1), the outbound I/O buffer, replica staging and the time
// model.
#include <gtest/gtest.h>

#include "replication/io_buffer.h"
#include "replication/period_manager.h"
#include "replication/staging.h"
#include "replication/time_model.h"
#include "replication/wire.h"
#include "simnet/fabric.h"

namespace here::rep {
namespace {

// --- PeriodManager (Algorithm 1) -----------------------------------------------

PeriodConfig pc(double t_max_s, double d, double sigma_s) {
  PeriodConfig config;
  config.t_max = sim::from_seconds(t_max_s);
  config.target_degradation = d;
  config.sigma = sim::from_seconds(sigma_s);
  return config;
}

TEST(PeriodManager, StartsAtTmax) {
  PeriodManager pm(pc(10, 0.3, 1));
  EXPECT_EQ(pm.current(), sim::from_seconds(10));
}

TEST(PeriodManager, FixedWhenTargetIsZero) {
  PeriodManager pm(pc(5, 0.0, 1));
  EXPECT_FALSE(pm.adaptive());
  for (int i = 0; i < 10; ++i) pm.observe_epoch(sim::from_seconds(4));
  EXPECT_EQ(pm.current(), sim::from_seconds(5));
  // Degradation is still computed for reporting.
  EXPECT_NEAR(pm.last_degradation(), 4.0 / 9.0, 1e-9);
}

TEST(PeriodManager, TightensWhileUnderBudget) {
  PeriodManager pm(pc(10, 0.3, 1));
  pm.observe_epoch(sim::from_millis(100));  // tiny pause: D_curr << D
  EXPECT_EQ(pm.current(), sim::from_seconds(9));
  pm.observe_epoch(sim::from_millis(100));
  EXPECT_EQ(pm.current(), sim::from_seconds(8));
}

TEST(PeriodManager, WalksBackOnFirstOvershoot) {
  PeriodManager pm(pc(10, 0.3, 1));
  pm.observe_epoch(sim::from_millis(100));  // T: 10 -> 9 (Tprev = 10)
  ASSERT_EQ(pm.current(), sim::from_seconds(9));
  // Overshoot at T=9: t=9s -> D_curr = 0.5 > 0.3, Dprev was fine.
  pm.observe_epoch(sim::from_seconds(9));
  EXPECT_EQ(pm.current(), sim::from_seconds(10));  // back to Tprev
}

TEST(PeriodManager, MidpointJumpOnSustainedOvershoot) {
  PeriodManager pm(pc(20, 0.3, 1));
  // Drive T down to 16 with tiny pauses.
  for (int i = 0; i < 4; ++i) pm.observe_epoch(sim::from_millis(10));
  ASSERT_EQ(pm.current(), sim::from_seconds(16));
  pm.observe_epoch(sim::from_seconds(30));  // overshoot -> walk back to 17
  EXPECT_EQ(pm.current(), sim::from_seconds(17));
  pm.observe_epoch(sim::from_seconds(30));  // still over -> midpoint (17+20)/2
  // 18.5 s rounded to the sigma grid (Algorithm 1 line 13: round(., sigma)).
  EXPECT_EQ(pm.current(), sim::from_seconds(19));
}

TEST(PeriodManager, NeverExceedsTmaxNorDropsBelowSigma) {
  PeriodManager pm(pc(5, 0.3, 1));
  for (int i = 0; i < 100; ++i) pm.observe_epoch(sim::from_millis(1));
  EXPECT_EQ(pm.current(), sim::from_seconds(1));  // floor at sigma
  for (int i = 0; i < 100; ++i) pm.observe_epoch(sim::from_seconds(60));
  EXPECT_LE(pm.current(), sim::from_seconds(5));  // hard cap
}

TEST(PeriodManager, DegradationFormula) {
  PeriodManager pm(pc(8, 0.0, 1));
  pm.observe_epoch(sim::from_seconds(2));
  EXPECT_NEAR(pm.last_degradation(), 0.2, 1e-9);  // 2 / (2 + 8)
}

// Property: whatever the pause sequence, T stays within [sigma, Tmax].
class PeriodManagerBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PeriodManagerBounds, AlwaysWithinBounds) {
  PeriodManager pm(pc(12, 0.25, 0.5));
  sim::Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    pm.observe_epoch(sim::from_millis(rng.uniform_real(0.1, 20000.0)));
    EXPECT_GE(pm.current(), sim::from_millis(500));
    EXPECT_LE(pm.current(), sim::from_seconds(12));
    // T stays on the sigma grid (Algorithm 1 adjusts in sigma steps).
    EXPECT_EQ(pm.current().count() % sim::from_millis(500).count(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeriodManagerBounds,
                         ::testing::Range<std::uint64_t>(0, 10));

// --- OutboundBuffer ---------------------------------------------------------------

struct BufferFixture {
  sim::Simulation sim;
  net::Fabric fabric{sim};
  std::vector<std::uint64_t> delivered;
  net::NodeId a, b;
  OutboundBuffer buffer{fabric};

  BufferFixture() {
    a = fabric.add_node("a", {});
    b = fabric.add_node("b", [this](const net::Packet& p) {
      delivered.push_back(p.tag);
    });
    fabric.connect(a, b, sim::grid5000_host().ethernet);
  }

  net::Packet packet(std::uint64_t tag) const {
    net::Packet p;
    p.src = a;
    p.dst = b;
    p.size_bytes = 100;
    p.tag = tag;
    return p;
  }
};

TEST(OutboundBuffer, HoldsUntilEpochCommits) {
  BufferFixture f;
  f.buffer.capture(f.packet(1), 5, f.sim.now());
  f.buffer.capture(f.packet(2), 5, f.sim.now());
  f.buffer.capture(f.packet(3), 6, f.sim.now());
  EXPECT_EQ(f.buffer.pending(), 3u);

  EXPECT_EQ(f.buffer.release_up_to(4, f.sim.now()), 0u);
  EXPECT_EQ(f.buffer.release_up_to(5, f.sim.now()), 2u);
  f.sim.run();
  EXPECT_EQ(f.delivered, (std::vector<std::uint64_t>{1, 2}));

  EXPECT_EQ(f.buffer.release_up_to(6, f.sim.now()), 1u);
  f.sim.run();
  EXPECT_EQ(f.delivered.size(), 3u);
  EXPECT_EQ(f.buffer.released_total(), 3u);
}

TEST(OutboundBuffer, DropAllLosesUnreleased) {
  BufferFixture f;
  f.buffer.capture(f.packet(1), 1, f.sim.now());
  f.buffer.capture(f.packet(2), 2, f.sim.now());
  EXPECT_EQ(f.buffer.drop_all(), 2u);
  EXPECT_EQ(f.buffer.pending(), 0u);
  EXPECT_EQ(f.buffer.pending_bytes(), 0u);
  f.sim.run();
  EXPECT_TRUE(f.delivered.empty());
  EXPECT_EQ(f.buffer.dropped_total(), 2u);
}

TEST(OutboundBuffer, RecordsBufferingDelay) {
  BufferFixture f;
  f.buffer.capture(f.packet(1), 1, f.sim.now());
  f.sim.run_until(sim::TimePoint{} + sim::from_seconds(3));
  f.buffer.release_up_to(1, f.sim.now());
  ASSERT_EQ(f.buffer.delay_ms().count(), 1u);
  EXPECT_NEAR(f.buffer.delay_ms().mean(), 3000.0, 1.0);
}

TEST(OutboundBuffer, PendingBytesAccounting) {
  BufferFixture f;
  f.buffer.capture(f.packet(1), 1, f.sim.now());
  f.buffer.capture(f.packet(2), 1, f.sim.now());
  EXPECT_EQ(f.buffer.pending_bytes(), 200u);
  f.buffer.release_up_to(1, f.sim.now());
  EXPECT_EQ(f.buffer.pending_bytes(), 0u);
}

// --- ReplicaStaging -----------------------------------------------------------------

std::vector<std::uint8_t> filled_page(std::uint8_t value) {
  return std::vector<std::uint8_t>(common::kPageSize, value);
}

// A sealed frame carrying `gfns` (all in one region), each page filled with
// `value`.
wire::RegionFrame make_frame(std::uint64_t epoch, std::uint64_t seq,
                             std::vector<common::Gfn> gfns,
                             std::uint8_t value) {
  wire::RegionFrame frame;
  frame.epoch = epoch;
  frame.seq = seq;
  frame.region =
      static_cast<std::uint32_t>(gfns.front() / common::kPagesPerRegion);
  frame.gfns = std::move(gfns);
  frame.bytes.assign(frame.gfns.size() * common::kPageSize, value);
  wire::seal_frame(frame);
  return frame;
}

// Opens `epoch`, arms its header and offers every frame (all must verify).
void stage_epoch(ReplicaStaging& staging, std::uint64_t epoch,
                 const std::vector<wire::RegionFrame>& frames) {
  std::uint64_t digest = wire::digest_init();
  for (const wire::RegionFrame& f : frames) digest = wire::digest_fold(digest, f);
  staging.begin_epoch(epoch);
  staging.expect_epoch({epoch, frames.size(), digest});
  for (const wire::RegionFrame& f : frames) {
    ASSERT_EQ(staging.receive_frame(f), FrameVerdict::kOk);
  }
}

TEST(ReplicaStaging, SeedPagesLandDirectly) {
  ReplicaStaging staging(hv::make_vm_spec("t", 1, 1ULL << 20), 2);
  staging.install_seed_page(3, filled_page(0xaa));
  EXPECT_EQ(staging.memory().page(3)[0], 0xaa);
  EXPECT_EQ(staging.seeded_pages(), 1u);
}

TEST(ReplicaStaging, EpochCommitIsAtomic) {
  ReplicaStaging staging(hv::make_vm_spec("t", 1, 4ULL << 20), 1);
  stage_epoch(staging, 1,
              {make_frame(1, 0, {5}, 0x11), make_frame(1, 1, {600}, 0x22)});
  // Verified frames are staged, not applied, until the commit.
  EXPECT_EQ(staging.memory().page(5)[0], 0x00);
  EXPECT_EQ(staging.memory().page(600)[0], 0x00);
  const auto applied = staging.commit();
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 2u);
  EXPECT_EQ(staging.memory().page(5)[0], 0x11);
  EXPECT_EQ(staging.memory().page(600)[0], 0x22);
  EXPECT_EQ(staging.committed_epoch(), 1u);
}

TEST(ReplicaStaging, AbortDiscardsPartialEpoch) {
  ReplicaStaging staging(hv::make_vm_spec("t", 1, 1ULL << 20), 1);
  stage_epoch(staging, 1, {make_frame(1, 0, {5}, 0x11)});
  EXPECT_TRUE(staging.commit().ok());
  stage_epoch(staging, 2, {make_frame(2, 0, {5}, 0x99)});
  staging.abort_epoch();
  // The partially transferred epoch 2 must not be visible.
  EXPECT_EQ(staging.memory().page(5)[0], 0x11);
  EXPECT_EQ(staging.committed_epoch(), 1u);
  // A later epoch still works.
  stage_epoch(staging, 3, {make_frame(3, 0, {5}, 0x33)});
  EXPECT_TRUE(staging.commit().ok());
  EXPECT_EQ(staging.memory().page(5)[0], 0x33);
}

TEST(ReplicaStaging, LastWriterWinsWithinEpoch) {
  ReplicaStaging staging(hv::make_vm_spec("t", 1, 1ULL << 20), 1);
  // Two seqs carry the same gfn (a retransmit): the higher seq lands last.
  stage_epoch(staging, 1,
              {make_frame(1, 0, {7}, 0x01), make_frame(1, 1, {7}, 0x02)});
  EXPECT_TRUE(staging.commit().ok());
  EXPECT_EQ(staging.memory().page(7)[0], 0x02);
}

TEST(ReplicaStaging, PeakBufferAccounting) {
  ReplicaStaging staging(hv::make_vm_spec("t", 1, 1ULL << 20), 1);
  stage_epoch(staging, 1, {make_frame(1, 0, {1, 2}, 0x01)});
  EXPECT_TRUE(staging.commit().ok());
  EXPECT_EQ(staging.peak_buffered_bytes(), 2 * common::kPageSize);
  stage_epoch(staging, 2, {make_frame(2, 0, {3}, 0x02)});
  EXPECT_TRUE(staging.commit().ok());
  EXPECT_EQ(staging.peak_buffered_bytes(), 2 * common::kPageSize);  // a peak
}

TEST(ReplicaStaging, ProgramSnapshotHandover) {
  ReplicaStaging staging(hv::make_vm_spec("t", 1, 1ULL << 20), 1);
  class Dummy : public hv::GuestProgram {
   public:
    void tick(hv::GuestEnv&, sim::Duration) override {}
    [[nodiscard]] std::unique_ptr<GuestProgram> clone() const override {
      return std::make_unique<Dummy>(*this);
    }
  };
  staging.begin_epoch(1);
  staging.set_pending_program(std::make_unique<Dummy>());
  EXPECT_TRUE(staging.commit().ok());
  EXPECT_NE(staging.take_committed_program(), nullptr);
  EXPECT_EQ(staging.take_committed_program(), nullptr);  // moved out
}

// --- TimeModel -------------------------------------------------------------------------

TEST(TimeModel, EfficiencyAnchorsAndInterpolation) {
  constexpr const double* kEff = TimeModel::kCopyEff;
  EXPECT_DOUBLE_EQ(TimeModel::efficiency(kEff, 1), 1.0);
  EXPECT_DOUBLE_EQ(TimeModel::efficiency(kEff, 2), 0.85);
  EXPECT_DOUBLE_EQ(TimeModel::efficiency(kEff, 4), 0.55);
  EXPECT_DOUBLE_EQ(TimeModel::efficiency(kEff, 8), 0.40);
  EXPECT_DOUBLE_EQ(TimeModel::efficiency(kEff, 16), 0.40);
  const double e3 = TimeModel::efficiency(kEff, 3);
  EXPECT_GT(e3, 0.55);
  EXPECT_LT(e3, 0.85);
}

// Copy cost of an even split of `pages` over `threads` un-encoded workers.
sim::Duration even_copy(const TimeModel& model, std::uint64_t pages,
                        std::uint32_t threads) {
  const std::uint64_t max_worker = (pages + threads - 1) / threads;
  return model.checkpoint_copy(model.shard_cpu(max_worker, threads, {}),
                               common::pages_to_bytes(pages));
}

TEST(TimeModel, CopyIsLinearInPages) {
  TimeModel model;
  const auto t1 = even_copy(model, 1000, 1);
  const auto t2 = even_copy(model, 2000, 1);
  EXPECT_NEAR(static_cast<double>(t2.count()),
              2.0 * static_cast<double>(t1.count()), 1e3);
}

TEST(TimeModel, ParallelismHelpsButSubLinearly) {
  TimeModel model;
  const auto t1 = even_copy(model, 400000, 1);
  const auto t4 = even_copy(model, 400000, 4);
  const double speedup =
      static_cast<double>(t1.count()) / static_cast<double>(t4.count());
  EXPECT_GT(speedup, 2.0);
  EXPECT_LT(speedup, 4.0);
}

TEST(TimeModel, WireBoundsLargeTransfers) {
  TimeModelConfig config;
  config.wire_bytes_per_second = 125e6;  // 1 GbE: slower than the CPU
  TimeModel model(config);
  const auto t = even_copy(model, 1 << 20, 4);
  // 4 GiB at 125 MB/s ~ 34.4 s, far above the ~2.6 s CPU term: the copy
  // is exactly the wire time.
  EXPECT_EQ(t, model.wire_time(common::pages_to_bytes(1 << 20)));
  EXPECT_GT(sim::to_seconds(t), 34.0);
}

// Exact nanoseconds of the un-encoded checkpoint copy under the default
// model, one row per (threads, pages) with an even split. Pins the shard
// pricing (truncation included) so a refactor of the cost path cannot move
// a pause by even 1 ns.
TEST(TimeModel, CheckpointCopyGoldenGrid) {
  struct Row {
    std::uint32_t threads;
    std::uint64_t pages;
    std::int64_t ns;
  };
  constexpr Row kGrid[] = {
      {1, 0, 0}, {1, 1, 5500}, {1, 1000, 5500000}, {1, 262144, 1441792000},
      {2, 0, 0}, {2, 1, 6470}, {2, 1000, 3235294}, {2, 262144, 848112941},
      {3, 0, 0}, {3, 1, 8347}, {3, 1000, 2787924}, {3, 262144, 729384538},
      {4, 0, 0}, {4, 1, 10000}, {4, 1000, 2500000}, {4, 262144, 655360000},
      {8, 0, 0}, {8, 1, 13750}, {8, 1000, 1718750}, {8, 262144, 450560000},
  };
  TimeModel model;
  for (const Row& row : kGrid) {
    EXPECT_EQ(even_copy(model, row.pages, row.threads).count(), row.ns)
        << "threads " << row.threads << ", pages " << row.pages;
  }
}

// One checkpoint epoch of the pause-ledger matrix (pause_ledger_test.cc):
// a 2 vCPU Xen -> KVM VM of 16384 real pages at model_scale 2 streaming
// journal writes. The inputs are what that epoch counted.
EpochWork recorded_epoch(std::vector<EncodeWork> shards,
                         std::uint64_t max_worker, std::uint64_t payload_bytes,
                         std::uint64_t disk_bytes = 1597440) {
  EpochWork w;
  w.pages = 16384;
  w.model_scale = 2;
  w.threads = static_cast<std::uint32_t>(shards.size());
  w.shards = std::move(shards);
  w.max_worker_pages = max_worker;
  w.payload_bytes = payload_bytes;
  w.disk_bytes = disk_bytes;
  w.state = sim::Duration{100386};  // save + Xen -> KVM translation
  w.vm_pause = sim::Duration{800000};
  w.vm_resume = sim::Duration{700000};
  return w;
}

EncodeWork raw(std::uint64_t pages) { return {.raw_pages = pages}; }

// Exact nanoseconds of every other pricing function under the default
// model, recorded before the calibration became TimeModel constants. Pins
// each formula's truncation so a refactor cannot move a modelled time. The
// price_epoch rows, one per pricing branch, were recorded from the engine
// before it handed pricing to price_epoch: the pause, CoW background and
// §8.7 CPU it charged for exactly these inputs.
TEST(TimeModel, PricingGoldenGrid) {
  const TimeModel m;
  const EpochWork here = recorded_epoch({raw(37), raw(29), raw(32)}, 37, 401408);
  const EpochWork encoded = recorded_epoch(
      {{29, 29, 29, 0}, {32, 32, 32, 0}, {37, 37, 37, 0}}, 37, 1223);
  EpochWork remus = recorded_epoch({raw(100)}, 100, 409600);
  remus.state = sim::Duration{386};  // Xen -> Xen: save only
  EpochWork cow = recorded_epoch({raw(35), raw(32), raw(32)}, 35, 405504, 1638400);
  cow.speculative_cow = true;
  EpochWork cow_encoded = recorded_epoch(
      {{32, 32, 32, 0}, {32, 32, 32, 0}, {35, 35, 35, 0}}, 35, 1235, 1638400);
  cow_encoded.speculative_cow = true;
  EpochWork durable = here;
  durable.durable = true;
  EpochWork lossy = here;
  lossy.link_loss = 0.002;
  EpochWork throttled = here;
  throttled.bandwidth_factor = 0.25;
  EpochWork retransmit = recorded_epoch({raw(37), raw(26), raw(37)}, 37, 409600);
  retransmit.retransmit_bytes = 294912;
  EpochWork arbitrated = recorded_epoch({raw(36), raw(31), raw(29)}, 36, 393216);
  arbitrated.arbitration = sim::Duration{66776};
  EpochWork stalled = here;
  stalled.stall = sim::from_millis(30);
  EpochWork slow_disk = here;
  slow_disk.disk_slowdown = 8.0;
  struct Row {
    const char* call;
    sim::Duration got;
    std::int64_t ns;
  };
  const Row kGrid[] = {
      {"scan(1, 1)", m.scan(1, 1), 8},
      {"scan(1, 3)", m.scan(1, 3), 3},
      {"scan(1, 4)", m.scan(1, 4), 2},
      {"scan(1, 8)", m.scan(1, 8), 1},
      {"scan(1000, 1)", m.scan(1000, 1), 8000},
      {"scan(1000, 3)", m.scan(1000, 3), 3137},
      {"scan(1000, 4)", m.scan(1000, 4), 2352},
      {"scan(1000, 8)", m.scan(1000, 8), 1176},
      {"scan(5000000, 1)", m.scan(5000000, 1), 40000000},
      {"scan(5000000, 3)", m.scan(5000000, 3), 15686274},
      {"scan(5000000, 4)", m.scan(5000000, 4), 11764705},
      {"scan(5000000, 8)", m.scan(5000000, 8), 5882352},
      {"seed_copy(1, 1, 1)", m.seed_copy(1, 1, 1), 5500},
      {"seed_copy(1000, 1000, 1)", m.seed_copy(1000, 1000, 1), 5500000},
      {"seed_copy(250, 1000, 4)", m.seed_copy(250, 1000, 4), 4166666},
      {"seed_copy(100000, 400000, 4)", m.seed_copy(100000, 400000, 4), 1666666666},
      {"seed_copy(87382, 262144, 3)", m.seed_copy(87382, 262144, 3), 1225673218},
      {"seed_copy(32768, 262144, 8)", m.seed_copy(32768, 262144, 8), 720896000},
      {"pml_drain(1)", m.pml_drain(1), 60},
      {"pml_drain(1000)", m.pml_drain(1000), 60000},
      {"pml_drain(262144)", m.pml_drain(262144), 15728640},
      {"cow_snapshot(1, 1)", m.cow_snapshot(1, 1), 700},
      {"cow_snapshot(1000, 1)", m.cow_snapshot(1000, 1), 700000},
      {"cow_snapshot(1000, 4)", m.cow_snapshot(1000, 4), 777777},
      {"cow_snapshot(262144, 8)", m.cow_snapshot(262144, 8), 203889777},
      {"encode_cpu(1, 0, 0)", m.encode_cpu(1, 0, 0), 160},
      {"encode_cpu(0, 1, 0)", m.encode_cpu(0, 1, 0), 400},
      {"encode_cpu(0, 0, 1)", m.encode_cpu(0, 0, 1), 1100},
      {"encode_cpu(1000, 500, 250)", m.encode_cpu(1000, 500, 250), 635000},
      {"wire_time(1)", m.wire_time(1), 0},
      {"wire_time(4096)", m.wire_time(4096), 327},
      {"wire_time(1ULL << 30)", m.wire_time(1ULL << 30), 85899345},
      {"wire_time(20ULL << 30)", m.wire_time(20ULL << 30), 1717986918},
      {"durable_append(0)", m.durable_append(0), 20000},
      {"durable_append(4096)", m.durable_append(4096), 22048},
      {"durable_append(1ULL << 30)", m.durable_append(1ULL << 30), 536890912},
      {"durable_replay(0, 0)", m.durable_replay(0, 0), 0},
      {"durable_replay(4096, 1)", m.durable_replay(4096, 1), 52048},
      {"durable_replay(1ULL << 30, 100)", m.durable_replay(1ULL << 30, 100), 541870912},
      {"here pause", m.price_epoch(here).pause(), 2658665},
      {"here cpu", m.replication_cpu(here, m.price_epoch(here)), 2144430},
      {"encoded pause", m.price_epoch(encoded).pause(), 2163822},
      {"encoded cpu", m.replication_cpu(encoded, m.price_epoch(encoded)), 833763},
      {"remus pause", m.price_epoch(remus).pause(), 3200325},
      {"remus cpu", m.replication_cpu(remus, m.price_epoch(remus)), 1562144},
      {"cow pause", m.price_epoch(cow).pause(), 1857245},
      {"cow background", m.price_epoch(cow).background(), 825753},
      {"cow cpu", m.replication_cpu(cow, m.price_epoch(cow)), 2161124},
      {"cow_encoded pause", m.price_epoch(cow_encoded).pause(), 1857245},
      {"cow_encoded background", m.price_epoch(cow_encoded).background(), 357658},
      {"cow_encoded cpu", m.replication_cpu(cow_encoded, m.price_epoch(cow_encoded)), 837083},
      {"durable pause", m.price_epoch(durable).pause(), 3878793},
      {"lossy pause", m.price_epoch(lossy).pause(), 2660379},
      {"throttled pause", m.price_epoch(throttled).pause(), 5226257},
      {"retransmit pause", m.price_epoch(retransmit).pause(), 2705850},
      {"retransmit cpu", m.replication_cpu(retransmit, m.price_epoch(retransmit)), 2177818},
      {"arbitrated pause", m.price_epoch(arbitrated).pause(), 2708747},
      {"stalled pause", m.price_epoch(stalled).pause(), 32658665},
      {"slow_disk pause", m.price_epoch(slow_disk).pause(), 3553230},
  };
  for (const EpochWork* w :
       std::initializer_list<const EpochWork*>{
           &here, &encoded, &remus, &durable, &lossy, &throttled, &retransmit,
           &arbitrated, &stalled, &slow_disk}) {
    EXPECT_EQ(m.price_epoch(*w).background(), sim::Duration::zero());
  }
  for (const Row& row : kGrid) EXPECT_EQ(row.got.count(), row.ns) << row.call;
}

TEST(TimeModel, ScanScalesWithThreads) {
  TimeModel model;
  const auto s1 = model.scan(5'000'000, 1);
  const auto s4 = model.scan(5'000'000, 4);
  EXPECT_NEAR(sim::to_millis(s1), 40.0, 1.0);  // 20 GB scan ~ 40 ms
  EXPECT_LT(s4, s1 / 3);
}

TEST(TimeModel, SeedingScalesWorseThanCheckpointing) {
  TimeModel model;
  const auto seed4 = model.seed_copy(100000, 400000, 4);
  const auto ckpt4 = even_copy(model, 400000, 4);
  EXPECT_GT(seed4, ckpt4);  // PML drain + problematic tracking overhead
}

}  // namespace
}  // namespace here::rep
