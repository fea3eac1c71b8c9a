// Rejoin-by-delta vs full reseed after a secondary host crash.
//
// A crashed secondary used to cost a full N-page reseed before protection
// resumed. With a DurableStore the secondary recovers *locally* from its
// snapshot + WAL and only the regions that diverged while it was down are
// re-sent (per-region digest diff through the encoder path). This sweep
// measures the crash-to-protected time across dirty-fraction-at-crash (the
// workload's write rate — how much of the image goes stale during the
// outage) and WAL depth (DurableStoreConfig::snapshot_interval_epochs), and
// compares it against the no-store full-resync baseline.
//
// Acceptance: at <= 50% dirty fraction the durable rejoin must come in
// materially below the full reseed for every WAL depth.
//
// With --bench-out=FILE the sweep's scalars land in a flat JSON file; the
// run is deterministic simulation, so CI executes the binary twice and
// requires the two files byte-identical.
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "replication/durable_store.h"

namespace {

using namespace here;
using namespace here::bench;

struct Cell {
  double rejoin_ms = 0.0;        // crash -> first post-rejoin commit
  double resync_regions = 0.0;   // regions with post-recovery divergence
  double resync_pages = 0.0;     // real pages re-sent after the page diff
  double wal_replayed = 0.0;     // WAL records replayed at recovery
};

constexpr double kRunSeconds = 8.0;
constexpr sim::Duration kRebootAfter = sim::from_millis(500);

Cell run(double load_percent, std::uint32_t wal_depth, bool durable) {
  rep::TestbedConfig tb;
  tb.vm_spec = paper_vm(4.0);
  tb.engine.mode = rep::EngineMode::kHere;
  tb.engine.checkpoint_threads = 4;
  tb.engine.period.t_max = sim::from_millis(500);
  tb.durable_replica = durable;
  tb.durable.snapshot_interval_epochs = wal_depth;
  rep::Testbed bed(tb);

  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(load_percent)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(kRunSeconds));

  // Tear the WAL tail so recovery lands one epoch behind the committed
  // image — a clean crash replays everything and the digest diff finds
  // nothing, which would hide the delta-resync path this sweep measures.
  if (durable) bed.durable_store()->damage_wal_tail(24);
  bed.secondary().inject_fault(hv::FaultKind::kCrash);
  bed.simulation().schedule_after(
      kRebootAfter, [&bed] { bed.secondary().repair(); }, "secondary-repair");
  const bool recovered = bed.run_until(
      [&] {
        return !bed.engine().rejoining() &&
               bed.engine().stats().secondary_crashes == 1;
      },
      sim::from_seconds(60));
  if (!recovered) {
    std::fprintf(stderr,
                 "rejoin_resync: rejoin did not complete (load %.0f%%, "
                 "wal depth %u, durable %d)\n",
                 load_percent, wal_depth, durable ? 1 : 0);
    std::abort();
  }

  const rep::EngineStats& stats = bed.engine().stats();
  Cell cell;
  cell.rejoin_ms = sim::to_millis(stats.last_rejoin_time);
  cell.resync_regions = static_cast<double>(stats.resync_regions);
  cell.resync_pages = static_cast<double>(stats.resync_pages);
  cell.wal_replayed = static_cast<double>(stats.wal_records_replayed);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs(argc, argv);

  const double loads[] = {5.0, 20.0, 50.0};       // dirty fraction at crash
  const std::uint32_t wal_depths[] = {4, 16};     // epochs between snapshots

  print_title(
      "Rejoin by delta resync vs full reseed "
      "(4 GB VM, secondary crash + 500 ms reboot, T = 500 ms, P = 4)");
  std::printf("%-10s %-10s %14s %14s %10s %10s %10s\n", "dirty", "WAL depth",
              "rejoin (ms)", "reseed (ms)", "speedup", "regions", "replayed");

  bool ok = true;
  for (const double load : loads) {
    // The full-reseed baseline has no WAL; one run per load level.
    const Cell reseed = run(load, 8, /*durable=*/false);
    const std::string load_key = "rejoin." + std::to_string(static_cast<int>(load)) + "pct.";
    obs.bench_value(load_key + "reseed_ms", reseed.rejoin_ms);
    for (const std::uint32_t depth : wal_depths) {
      const Cell cell = run(load, depth, /*durable=*/true);
      const std::string prefix = load_key + "wal" + std::to_string(depth) + ".";
      obs.bench_value(prefix + "rejoin_ms", cell.rejoin_ms);
      obs.bench_value(prefix + "resync_regions", cell.resync_regions);
      obs.bench_value(prefix + "resync_pages", cell.resync_pages);
      obs.bench_value(prefix + "wal_replayed", cell.wal_replayed);
      const double speedup =
          cell.rejoin_ms > 0.0 ? reseed.rejoin_ms / cell.rejoin_ms : 0.0;
      obs.bench_value(prefix + "speedup", speedup);
      std::printf("%-9.0f%% %-10u %14.1f %14.1f %9.1fx %10.0f %10.0f\n", load,
                  depth, cell.rejoin_ms, reseed.rejoin_ms, speedup,
                  cell.resync_regions, cell.wal_replayed);
      // Acceptance: at <= 50% dirty the delta rejoin must beat the reseed.
      if (!(cell.rejoin_ms < reseed.rejoin_ms)) {
        ok = false;
        std::printf("    ^ FAIL: rejoin not below full reseed\n");
      }
    }
  }

  std::printf(
      "\nLocal snapshot+WAL recovery turns the crash cost from \"re-send\n"
      "everything\" into \"replay locally, then re-send only the regions the\n"
      "primary dirtied while the secondary was down\" — the win shrinks as\n"
      "the dirty fraction grows, exactly as the digest diff predicts.\n");
  if (!ok) std::printf("\nREJOIN RESYNC: acceptance FAILED\n");
  const bool finished = obs.finish();
  return ok && finished ? 0 : 1;
}
