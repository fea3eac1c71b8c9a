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
//
// price_epoch() is the one owner of the checkpoint pause t = αN/P + C: the
// engine hands it the epoch's plain counts (EpochWork) and gets back every
// term of the pause (PauseLedger).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace here::rep {

struct TimeModelConfig {
  // Interconnect (Omni-Path HFI 100).
  double wire_bytes_per_second = 12.5e9;
};

// One migrator worker's share of an epoch (real page counts): the pages
// that took the full stream copy plus the encoder's work. Without encoders
// only raw_pages is set.
struct EncodeWork {
  std::uint64_t zero_scans = 0;   // pages checked for all-zero content
  std::uint64_t hashes = 0;       // page content hashes computed
  std::uint64_t delta_pages = 0;  // pages XOR+RLE transformed
  std::uint64_t raw_pages = 0;    // fell back to raw: full stream copy
  std::uint64_t bytes_out = 0;    // encoded payload bytes produced
};

// What one checkpoint epoch did, as the data-plane stages counted it: real
// page and payload counts, which pricing multiplies by model_scale. Disk
// bytes are already in model units — guest programs issue disk writes at
// their modelled op rates.
struct EpochWork {
  std::uint64_t pages = 0;        // VM pages: the dirty-bitmap slots walked
  std::uint64_t model_scale = 1;
  std::uint32_t threads = 1;      // migrator threads granted
  std::vector<EncodeWork> shards;  // one per worker
  std::uint64_t max_worker_pages = 0;  // busiest worker's captured pages
  std::uint64_t payload_bytes = 0;     // sealed frame payloads
  std::uint64_t retransmit_bytes = 0;  // NACKed payloads re-shipped
  std::uint64_t disk_bytes = 0;        // mirrored disk writes (model units)
  sim::Duration state{};  // machine-state save + translation
  double link_loss = 0.0;
  double bandwidth_factor = 1.0;
  sim::Duration arbitration{};  // shared-link queueing: actual - ideal
  double disk_slowdown = 1.0;
  bool durable = false;          // replica WAL-appends before its ack
  bool speculative_cow = false;  // transfer runs after the guest resumes
  sim::Duration stall{};         // injected migrator stall
  sim::Duration vm_pause{};
  sim::Duration vm_resume{};

  // Model bytes that cross the replication link: payload plus disk mirror.
  [[nodiscard]] std::uint64_t wire_bytes() const {
    return payload_bytes * model_scale + disk_bytes;
  }
};

// The checkpoint pause, term by term. Each stretch term is the difference
// the stretch adds, so the terms sum exactly to the pause.
struct PauseLedger {
  sim::Duration setup{};
  sim::Duration vm_pause{};
  sim::Duration vm_resume{};
  sim::Duration scan{};
  sim::Duration copy{};  // slowest shard's CPU vs the payload's wire time
  sim::Duration retransmit{};
  sim::Duration net_penalty_copy{};   // lossy/throttled link: copy+retransmit
  sim::Duration arbitration{};
  sim::Duration state{};  // machine state, translation and checkpoint ACK
  sim::Duration disk{};   // disk mirror on the wire, stretched by slowdown
  sim::Duration net_penalty_state{};  // lossy/throttled link: state+disk
  sim::Duration durable_append{};
  sim::Duration cow_snapshot{};
  sim::Duration stall{};
  bool speculative_cow = false;

  // Everything paid before any byte moves: the constants C and the scan.
  [[nodiscard]] sim::Duration before_transfer() const {
    return setup + vm_pause + vm_resume + scan;
  }
  // The migrators' push of the payload: its span on the worker lanes.
  [[nodiscard]] sim::Duration transfer() const {
    return copy + retransmit + net_penalty_copy + arbitration;
  }
  // State, disk mirror and durable ack: the commit's tail.
  [[nodiscard]] sim::Duration commit_tail() const {
    return state + disk + net_penalty_state + durable_append;
  }
  // t: how long the guest stays paused.
  [[nodiscard]] sim::Duration pause() const {
    return before_transfer() +
           (speculative_cow ? cow_snapshot : transfer() + commit_tail()) +
           stall;
  }
  // Speculative CoW only: the transfer that runs after the guest resumes.
  [[nodiscard]] sim::Duration background() const {
    return speculative_cow ? transfer() + commit_tail() : sim::Duration{};
  }
};

class TimeModel {
 public:
  static constexpr sim::Duration kPerPageCopy{5500};   // 5.5 us
  static constexpr sim::Duration kPerPageScan{8};      // 8 ns
  static constexpr sim::Duration kPerPmlEntry{60};     // PML ring drain
  static constexpr sim::Duration kCheckpointSetup = sim::from_micros(200);
  // Checkpoint ACK round trip on the interconnect.
  static constexpr sim::Duration kCheckpointAck = sim::from_micros(10);
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

  // Prices one continuous-phase checkpoint epoch, t = f(N)/P + C (Eq. 3/4).
  // Under speculative CoW the dirty set is only duplicated locally during
  // the pause and the network push runs in the background. With encoders
  // the wire term serializes the *encoded* bytes and the CPU term pays the
  // encode cycles — the real cost of the cheaper stream, which is what
  // PeriodManager/Algorithm 1 re-optimise T and P against.
  [[nodiscard]] PauseLedger price_epoch(const EpochWork& work) const;

  // §8.7: CPU time the epoch burns on the primary (work, not makespan):
  // every raw page's stream copy, every worker's scan and encode cycles,
  // and the setup.
  [[nodiscard]] sim::Duration replication_cpu(const EpochWork& work,
                                              const PauseLedger& ledger) const;

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
