// Durable replica state (snapshot + WAL) and the rejoin path:
//   * 50-seed replay determinism — the same seed drives the same epochs into
//     two independent stores, and both recoveries produce byte-identical
//     images (and match the live staging they were logged from);
//   * torn-write / truncated-tail refusal — damaged WAL suffixes are never
//     replayed; recovery stops at the last intact record;
//   * snapshot + WAL point-in-time restore across rotation;
//   * engine-level rejoin: a crashed secondary recovers locally, resyncs
//     only divergent regions by delta, and a later failover still activates
//     exactly the committed image;
//   * no-store fallback: without a DurableStore the rejoin is a full resync;
//   * a snapshot that does not fit the staging image is refused whole.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "hv/disk.h"
#include "hv/hypervisor.h"
#include "replication/durable_store.h"
#include "replication/staging.h"
#include "replication/testbed.h"
#include "replication/wire.h"
#include "sim/rng.h"
#include "workload/synthetic.h"

namespace here::rep {
namespace {

// 8 MiB VM: 2048 pages, 4 regions of 512 pages each.
hv::VmSpec small_spec() { return hv::make_vm_spec("t", 1, 8ULL << 20); }

wire::RegionFrame make_frame(std::uint64_t epoch, std::uint64_t seq,
                             std::vector<common::Gfn> gfns,
                             const std::vector<std::uint8_t>& bytes) {
  wire::RegionFrame frame;
  frame.epoch = epoch;
  frame.seq = seq;
  frame.region =
      static_cast<std::uint32_t>(gfns.front() / common::kPagesPerRegion);
  frame.gfns = std::move(gfns);
  frame.bytes = bytes;
  wire::seal_frame(frame);
  return frame;
}

wire::EpochHeader header_for(std::uint64_t epoch,
                             const std::vector<wire::RegionFrame>& frames) {
  std::uint64_t digest = wire::digest_init();
  for (const wire::RegionFrame& f : frames) {
    digest = wire::digest_fold(digest, f);
  }
  return {epoch, frames.size(), digest};
}

// Seeds `staging` with deterministic content, snapshots it into `store`,
// attaches the store, and drives `epochs` committed epochs of seeded-random
// frames and disk writes through the verified-frame path.
void drive_epochs(std::uint64_t seed, std::uint32_t epochs,
                  DurableStore& store, ReplicaStaging& staging) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> page(common::kPageSize, 0);
  for (common::Gfn g = 0; g < staging.memory().pages(); g += 7) {
    for (auto& b : page) b = static_cast<std::uint8_t>(rng.uniform(256));
    staging.install_seed_page(g, page);
  }
  hv::VirtualDisk disk(4096);
  for (std::uint64_t s = 0; s < 64; ++s) {
    disk.apply({.sector = s, .sectors = 1, .stamp = rng.uniform(1u << 30)});
  }
  staging.seed_disk(disk);
  store.write_snapshot(0, staging.memory(), staging.disk());
  staging.attach_durable_store(&store);

  for (std::uint64_t e = 1; e <= epochs; ++e) {
    staging.begin_epoch(e);
    std::vector<wire::RegionFrame> frames;
    const std::uint32_t nframes = 1 + static_cast<std::uint32_t>(rng.uniform(3));
    for (std::uint64_t seq = 0; seq < nframes; ++seq) {
      const common::Gfn gfn = rng.uniform(staging.memory().pages());
      for (auto& b : page) b = static_cast<std::uint8_t>(rng.uniform(256));
      frames.push_back(make_frame(e, seq, {gfn}, page));
    }
    staging.expect_epoch(header_for(e, frames));
    for (const wire::RegionFrame& f : frames) {
      ASSERT_EQ(staging.receive_frame(f), FrameVerdict::kOk);
    }
    staging.buffer_disk_writes(
        {{.sector = rng.uniform(4096), .sectors = 1, .stamp = e * 1000 + 1}});
    ASSERT_TRUE(staging.commit().ok()) << "epoch " << e;
  }
}

// --- WAL replay determinism ---------------------------------------------------

TEST(Durability, FiftySeedReplayDeterminism) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    // Two independent runs of the same seeded epoch stream...
    DurableStore store_a, store_b;
    ReplicaStaging live_a(small_spec(), 1), live_b(small_spec(), 1);
    drive_epochs(seed, 6, store_a, live_a);
    drive_epochs(seed, 6, store_b, live_b);

    // ...each recovered into a fresh staging...
    ReplicaStaging rec_a(small_spec(), 1), rec_b(small_spec(), 1);
    const auto ra = RecoveryManager(store_a).recover(rec_a);
    const auto rb = RecoveryManager(store_b).recover(rec_b);
    ASSERT_TRUE(ra.ok()) << "seed " << seed;
    ASSERT_TRUE(rb.ok()) << "seed " << seed;

    // ...produce byte-identical images that match the live staging.
    EXPECT_EQ(rec_a.memory().full_digest(), rec_b.memory().full_digest())
        << "seed " << seed;
    EXPECT_EQ(rec_a.memory().full_digest(), live_a.memory().full_digest())
        << "seed " << seed;
    EXPECT_EQ(rec_a.disk().digest(), live_a.disk().digest()) << "seed " << seed;
    EXPECT_EQ((*ra).recovered_epoch, live_a.committed_epoch()) << "seed " << seed;
    EXPECT_EQ((*ra).wal_records_refused, 0u) << "seed " << seed;
    EXPECT_EQ(rec_a.committed_epoch(), live_a.committed_epoch());
    // WAL carries no machine state: protection is reduced until the next
    // live commit, so failover off a freshly recovered image is impossible.
    EXPECT_FALSE(rec_a.has_committed());
  }
}

// --- Damaged-tail refusal -----------------------------------------------------

TEST(Durability, TornWriteTailRefusedValidPrefixReplays) {
  DurableStore store({.snapshot_interval_epochs = 100});
  ReplicaStaging live(small_spec(), 1);
  drive_epochs(7, 5, store, live);
  ASSERT_EQ(store.wal_record_count(), 5u);

  store.damage_wal_tail(16);  // torn write inside the last record's CRC/tail

  const DurableStore::Log log = store.read_log();
  EXPECT_TRUE(log.damaged_tail);
  EXPECT_EQ(log.records.size(), 4u);  // valid prefix only

  ReplicaStaging rec(small_spec(), 1);
  const auto result = RecoveryManager(store).recover(rec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result).recovered_epoch, 4u);
  EXPECT_EQ((*result).wal_records_replayed, 4u);
  EXPECT_GE((*result).wal_records_refused, 1u);
  // The recovered image is exactly the epoch-4 image: replaying the live
  // stream again up to epoch 4 must agree.
  DurableStore redo_store;
  ReplicaStaging redo(small_spec(), 1);
  drive_epochs(7, 4, redo_store, redo);
  EXPECT_EQ(rec.memory().full_digest(), redo.memory().full_digest());
}

TEST(Durability, TruncatedTailRefusedValidPrefixReplays) {
  DurableStore store({.snapshot_interval_epochs = 100});
  ReplicaStaging live(small_spec(), 1);
  drive_epochs(11, 5, store, live);

  store.truncate_wal_tail(10);  // power cut mid-append

  const DurableStore::Log log = store.read_log();
  EXPECT_TRUE(log.damaged_tail);
  EXPECT_EQ(log.records.size(), 4u);

  ReplicaStaging rec(small_spec(), 1);
  const auto result = RecoveryManager(store).recover(rec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result).recovered_epoch, 4u);
  EXPECT_GE((*result).wal_records_refused, 1u);
}

TEST(Durability, NoSnapshotMeansNoLocalRecovery) {
  DurableStore store;
  ReplicaStaging rec(small_spec(), 1);
  const auto result = RecoveryManager(store).recover(rec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(Durability, SnapshotLargerThanStagingRefusedBeforeInstall) {
  // A 16 MiB image's snapshot offered to an 8 MiB staging area: pages past
  // the end cannot be installed, so recovery refuses before installing any
  // (the engine then falls back to a full seed).
  ReplicaStaging big(hv::make_vm_spec("t", 1, 16ULL << 20), 1);
  big.install_seed_page(5, std::vector<std::uint8_t>(common::kPageSize, 0x11));
  big.install_seed_page(3000,
                        std::vector<std::uint8_t>(common::kPageSize, 0x22));
  DurableStore store;
  store.write_snapshot(0, big.memory(), big.disk());

  ReplicaStaging rec(small_spec(), 1);
  const auto result = RecoveryManager(store).recover(rec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(rec.seeded_pages(), 0u);
  EXPECT_EQ(rec.memory().page(5)[0], 0x00);
}

// --- Snapshot + WAL point-in-time restore ------------------------------------

TEST(Durability, RotationSnapshotsAndPointInTimeRestore) {
  // Interval 3: epochs 3 and 6 rotate the WAL into fresh snapshots.
  DurableStore store({.snapshot_interval_epochs = 3});
  ReplicaStaging live(small_spec(), 1);
  drive_epochs(13, 8, store, live);

  EXPECT_GE(store.stats().snapshots, 3u);  // seed snapshot + two rotations
  EXPECT_EQ(store.wal_record_count(), 2u);  // epochs 7, 8 since the last one

  ReplicaStaging rec(small_spec(), 1);
  const auto result = RecoveryManager(store).recover(rec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result).snapshot_epoch, 6u);
  EXPECT_EQ((*result).recovered_epoch, 8u);
  EXPECT_EQ((*result).wal_records_replayed, 2u);
  EXPECT_EQ(rec.memory().full_digest(), live.memory().full_digest());
  EXPECT_EQ(rec.disk().digest(), live.disk().digest());
  // Scrub references were baselined off the recovered image.
  for (std::uint32_t r = 0; r < rec.region_count(); ++r) {
    EXPECT_EQ(rec.committed_region_digest(r), rec.live_region_digest(r))
        << "region " << r;
  }
}

// --- Engine-level rejoin ------------------------------------------------------

TestbedConfig durable_bed_config(std::uint64_t seed) {
  TestbedConfig config;
  config.seed = seed;
  config.vm_spec = hv::make_vm_spec("vm", 2, 32ULL << 20);
  config.engine.mode = EngineMode::kHere;
  config.engine.period.t_max = sim::from_millis(300);
  config.durable_replica = true;
  config.durable.snapshot_interval_epochs = 8;
  return config;
}

TEST(DurabilityRejoin, SecondaryCrashRejoinsByDeltaUnderSeededPlan) {
  Testbed bed(durable_bed_config(21));
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(24)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(3));
  const std::size_t epochs_before = bed.engine().stats().checkpoints.size();
  ASSERT_GT(epochs_before, 0u);

  // Seeded plan: corrupt the WAL tail, then crash the secondary. Recovery
  // loses at most the torn record; the digest diff repairs the rest.
  faults::FaultInjector injector(bed.simulation(), bed.fabric());
  injector.register_testbed(bed);
  faults::FaultPlan plan;
  const sim::TimePoint t0 = bed.simulation().now();
  plan.wal_torn_write("engine", t0 + sim::from_millis(100), 32);
  plan.secondary_crash("engine", t0 + sim::from_millis(200),
                       sim::from_millis(500));
  injector.arm(plan);

  bed.simulation().run_for(sim::from_seconds(5));

  const EngineStats& stats = bed.engine().stats();
  EXPECT_EQ(stats.secondary_crashes, 1u);
  EXPECT_EQ(stats.rejoins, 1u);
  EXPECT_EQ(stats.full_resyncs, 0u);  // local recovery, not a reseed
  EXPECT_FALSE(bed.engine().rejoining());
  EXPECT_GT(stats.last_rejoin_time, sim::Duration::zero());
  // Delta resync: strictly fewer regions re-sent than a full reseed ships.
  const std::uint64_t pages = common::bytes_to_pages(32ULL << 20);
  const std::uint64_t regions =
      (pages + common::kPagesPerRegion - 1) / common::kPagesPerRegion;
  EXPECT_LT(stats.resync_regions, regions);
  // Protection resumed: new epochs committed after the rejoin.
  EXPECT_GT(stats.checkpoints.size(), epochs_before);

  // The strongest integrity check: a later primary failover must activate
  // exactly the committed image, bit for bit, on the rejoined secondary.
  bed.simulation().run_for(sim::from_seconds(1));
  bed.primary().inject_fault(hv::FaultKind::kCrash);
  bed.simulation().run_for(sim::from_seconds(5));
  ASSERT_TRUE(bed.engine().failed_over());
  EXPECT_EQ(stats.replica_digest_at_activation,
            stats.committed_digest_at_activation);
  EXPECT_EQ(stats.replica_disk_digest_at_activation,
            stats.committed_disk_digest_at_activation);
}

TEST(DurabilityRejoin, WithoutStoreRejoinFallsBackToFullResync) {
  TestbedConfig config = durable_bed_config(22);
  config.durable_replica = false;  // no store: nothing to recover from
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(24)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(2));

  bed.engine().inject_secondary_crash(sim::from_millis(400));
  bed.simulation().run_for(sim::from_seconds(5));

  const EngineStats& stats = bed.engine().stats();
  EXPECT_EQ(stats.secondary_crashes, 1u);
  EXPECT_EQ(stats.rejoins, 0u);
  EXPECT_EQ(stats.full_resyncs, 1u);
  const std::uint64_t pages = common::bytes_to_pages(32ULL << 20);
  const std::uint64_t regions =
      (pages + common::kPagesPerRegion - 1) / common::kPagesPerRegion;
  EXPECT_EQ(stats.resync_regions, regions);  // everything re-sent
  EXPECT_FALSE(bed.engine().rejoining());
  // Protection still comes back — just the expensive way.
  const std::size_t epochs = stats.checkpoints.size();
  bed.simulation().run_for(sim::from_seconds(2));
  EXPECT_GT(bed.engine().stats().checkpoints.size(), epochs);
}

TEST(DurabilityRejoin, RejoinDeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    Testbed bed(durable_bed_config(seed));
    hv::Vm& vm = bed.create_vm(
        std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(24)));
    bed.protect(vm);
    bed.run_until_seeded();
    bed.simulation().run_for(sim::from_seconds(2));
    bed.engine().inject_secondary_crash(sim::from_millis(300));
    bed.simulation().run_for(sim::from_seconds(4));
    const EngineStats& stats = bed.engine().stats();
    return std::tuple{stats.resync_regions, stats.wal_records_replayed,
                      stats.last_rejoin_time, stats.checkpoints.size()};
  };
  EXPECT_EQ(run(33), run(33));
}

}  // namespace
}  // namespace here::rep
