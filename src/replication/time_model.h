// Calibrated virtual-time cost model for replication operations.
//
// The data plane (page copies) runs for real on worker threads; the
// *reported* durations come from this model, calibrated against the paper's
// testbed (Table 3: Xeon Gold 6130, Omni-Path 100 Gbit/s). The calibration
// is a set of constants; only the wire rate is configurable (the encoder
// ablation sweeps it):
//
//   * kPerPageCopy (~5.5 us) — single-threaded userspace cost to map a
//     foreign page, memcpy it and push it into the migration stream. This
//     reproduces Xen's ~29 s idle 20 GB migration (Fig. 6) and Remus's ~4 s
//     checkpoint transfers under 30 % load (Fig. 8b). The wire itself is
//     ~0.33 us/page at 100 Gbit/s, so replication is CPU-bound — which is
//     exactly why HERE's multithreading pays off (§7.2).
//   * kPerPageScan (~8 ns) — log-dirty bitmap scan per *scanned* (not
//     dirty) page; scanning 20 GB costs ~40 ms, the dominant term for idle
//     VMs (Fig. 8a).
//   * thread efficiency curves — sub-linear scaling from shared-bitmap and
//     stream contention. Checkpoint copies scale ~2.2x at P=4 (the paper's
//     49 % loaded improvement); seeding scales ~1.3x (25 % idle improvement,
//     Fig. 6) because PML draining and problematic-page tracking add
//     per-page work.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace here::rep {

struct TimeModelConfig {
  // Interconnect (Omni-Path HFI 100).
  double wire_bytes_per_second = 12.5e9;
};

class TimeModel {
 public:
  static constexpr sim::Duration kPerPageCopy{5500};   // 5.5 us
  static constexpr sim::Duration kPerPageScan{8};      // 8 ns
  static constexpr sim::Duration kPerPmlEntry{60};     // PML ring drain
  static constexpr sim::Duration kCheckpointSetup = sim::from_micros(200);
  static constexpr sim::Duration kStateTranslatePerVcpu = sim::from_micros(50);
  // One-time cost to spin up per-vCPU migrator threads + PML (HERE seeding).
  static constexpr sim::Duration kSeedSetup = sim::from_millis(400);

  // Per-thread efficiency at P = 1/2/4/8 (geometric interpolation between).
  static constexpr double kCopyEff[4] = {1.0, 0.85, 0.55, 0.40};
  static constexpr double kSeedEff[4] = {1.0, 0.50, 0.33, 0.25};
  static constexpr double kScanEff = 0.85;

  // Local CoW page duplication (speculative checkpointing): a plain local
  // memcpy, ~6 GB/s per thread.
  static constexpr sim::Duration kPerPageCow{700};  // 0.7 us

  // Content-aware encoder stage (src/replication/encoder.h) cycle costs.
  // Each encoder declares its per-page CPU here so the engine reports the
  // *real* copy cost of the encoded stream to PeriodManager/Algorithm 1:
  //   * zero_scan: read 4 KiB and compare against zero (~25 GB/s);
  //   * page_hash: one page-content digest, costed as on the calibrated
  //     host, whatever hv::page_digest's real speed;
  //   * delta_encode: XOR against the shadow + RLE emit.
  static constexpr sim::Duration kEncodeZeroScanPerPage{160};   // 0.16 us
  static constexpr sim::Duration kEncodePageHashPerPage{400};   // 0.4 us
  static constexpr sim::Duration kEncodeDeltaPerPage{1100};     // 1.1 us

  // Durable replica store (src/replication/durable_store.h): sequential
  // append/replay bandwidth of the secondary's local NVMe plus per-record
  // overheads. Appends overlap the network transfer on the secondary, so a
  // WAL append only shows up in the pause when it outlasts the wire.
  static constexpr double kDurableBytesPerSecond = 2.0e9;
  // Per-record overheads of a WAL append and of a replayed record.
  static constexpr sim::Duration kDurableAppendSetup = sim::from_micros(20);
  static constexpr sim::Duration kDurableReplaySetup = sim::from_micros(50);

  explicit TimeModel(TimeModelConfig config = {}) : config_(config) {}

  // Continuous-replication checkpoint copy: `max_worker_cpu` is the slowest
  // worker's shard cost (the critical path, priced with shard_cpu) and the
  // wire term serializes the payload bytes — encoded ones when encoders run,
  // which is the whole point of driving α down. Result = max(both).
  [[nodiscard]] sim::Duration checkpoint_copy(sim::Duration max_worker_cpu,
                                              std::uint64_t wire_bytes) const;

  // CPU cost of one worker's shard. Only raw pages pay the full per-page
  // stream copy: a collapsed page (zero/skip/delta) is read in place by the
  // encoder — which holds a persistent mapping and its own shadow — and
  // emits a header or a few delta bytes instead of the 4 KiB memcpy into the
  // migration stream. Its cycles are `encode_cpu`, which rides on top (zero
  // on the un-encoded stream).
  [[nodiscard]] sim::Duration shard_cpu(std::uint64_t raw_pages,
                                        std::uint32_t threads,
                                        sim::Duration encode_cpu) const;

  // Prices one worker's encoder work (model-scaled page counts).
  [[nodiscard]] sim::Duration encode_cpu(std::uint64_t zero_scans,
                                         std::uint64_t hashes,
                                         std::uint64_t delta_pages) const;

  // Seeding-phase (live migration) copy of one iteration.
  [[nodiscard]] sim::Duration seed_copy(std::uint64_t max_worker_pages,
                                        std::uint64_t total_pages,
                                        std::uint32_t threads) const;

  // Dirty-log scan over `pages_scanned` page slots with `threads` workers.
  [[nodiscard]] sim::Duration scan(std::uint64_t pages_scanned,
                                   std::uint32_t threads) const;

  // Local copy-on-write snapshot of the dirty set (speculative checkpointing:
  // pages are duplicated into a local buffer at memcpy speed so the VM can
  // resume before the network transfer finishes).
  [[nodiscard]] sim::Duration cow_snapshot(std::uint64_t max_worker_pages,
                                           std::uint32_t threads) const;

  // PML drain of `entries` logged writes (per-vCPU, no cross-vCPU stalls).
  [[nodiscard]] sim::Duration pml_drain(std::uint64_t entries) const;

  [[nodiscard]] sim::Duration wire_time(std::uint64_t bytes) const;

  // Durable WAL append of one epoch record (`bytes` on local storage).
  [[nodiscard]] sim::Duration durable_append(std::uint64_t bytes) const;

  // Recovery replay: sequential read of snapshot + WAL plus per-record
  // verification/apply overhead.
  [[nodiscard]] sim::Duration durable_replay(std::uint64_t bytes,
                                             std::uint64_t records) const;

  [[nodiscard]] static double efficiency(const double eff[4], std::uint32_t threads);

 private:
  TimeModelConfig config_;
};

}  // namespace here::rep
