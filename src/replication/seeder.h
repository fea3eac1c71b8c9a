// Seeding phase: iterative live pre-copy of the protected VM into the
// replica staging area (paper §3.2 step 2-3, optimized per §7.2(1)).
//
// Two operating modes, matching the paper's comparison:
//   * kXenDefault — stock Xen migration: one migrator thread, global
//     shadow-paging dirty bitmap, up to 5 pre-copy iterations;
//   * kHereMultithreaded — HERE: one migrator thread per vCPU, each draining
//     its own PML ring without interrupting other vCPUs. Pages transferred
//     by more than one thread are "problematic" (may be torn by concurrent
//     modification) and are re-sent during the final stop-and-copy.
//
// Page copies are real memcpys executed on the worker pool; durations come
// from the TimeModel. On completion the VM is left *paused* with the staging
// memory byte-identical to the source — the caller resumes it (replication)
// or activates the destination (migration).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "obs/trace.h"
#include "replication/staging.h"
#include "replication/time_model.h"
#include "sim/event_queue.h"
#include "hv/hypervisor.h"

namespace here::rep {

enum class SeedMode : std::uint8_t { kXenDefault, kHereMultithreaded };

// Xen's pre-copy cap: live rounds before the stop-and-copy is forced.
inline constexpr std::uint32_t kSeedMaxIterations = 5;

struct SeedConfig {
  SeedMode mode = SeedMode::kHereMultithreaded;
  // Stop iterating once the dirty set falls below this many (real) pages.
  std::uint64_t threshold_pages = 64;
};

struct SeedResult {
  sim::Duration total_time{};      // first byte to VM-paused-and-consistent
  sim::Duration stop_copy_time{};  // final paused phase
  std::uint32_t iterations = 0;    // live pre-copy rounds (incl. full pass)
  std::uint64_t pages_sent = 0;    // includes re-sends
  std::uint64_t problematic_pages = 0;
  std::uint64_t bytes_sent = 0;
};

class Seeder {
 public:
  using DoneFn = std::function<void(const SeedResult&)>;

  // kHereMultithreaded requires a hypervisor with per-vCPU PML support
  // (the Xen model); kXenDefault works with any dirty-bitmap-capable
  // hypervisor, which is how the reverse (KVM-primary) direction seeds.
  // `tracer` (optional, borrowed) receives "seed" category spans: one per
  // pre-copy round plus the final stop-and-copy, keyed on simulated time.
  Seeder(sim::Simulation& simulation, const TimeModel& model,
         common::ThreadPool& pool, hv::Hypervisor& hypervisor, hv::Vm& vm,
         ReplicaStaging& staging, SeedConfig config,
         obs::Tracer* tracer = nullptr);

  // Destroying a seeder mid-flight cancels its pending event: the engine's
  // seeding-retry path tears an attempt down and builds a fresh one.
  ~Seeder();

  // Begins seeding (asynchronous in virtual time). The VM must be running.
  void start(DoneFn done);

  [[nodiscard]] const SeedResult& result() const { return result_; }
  [[nodiscard]] bool finished() const { return finished_; }

 private:
  [[nodiscard]] std::uint32_t workers() const;
  [[nodiscard]] std::uint64_t model_pages(std::uint64_t real_pages) const;

  // Captures the current dirty set into per-worker lists; returns total
  // (with duplicates) and fills `scan_cost` with the capture's time cost.
  std::uint64_t capture_dirty(std::vector<std::vector<common::Gfn>>& per_worker,
                              sim::Duration& scan_cost);

  // Copies `gfns` (deduped) into staging on the worker pool.
  void copy_pages(const std::vector<common::Gfn>& gfns);

  void run_full_pass();
  void run_iteration();
  void final_stop_copy();

  sim::Simulation& sim_;
  const TimeModel& model_;
  common::ThreadPool& pool_;
  hv::Hypervisor& hv_;
  hv::Vm& vm_;
  ReplicaStaging& staging_;
  SeedConfig config_;
  obs::Tracer* tracer_;

  DoneFn done_;
  SeedResult result_;
  sim::TimePoint started_at_{};
  std::uint32_t iteration_ = 0;
  bool finished_ = false;
  // The single in-flight event (rounds are strictly sequential); cancelled
  // on destruction so a torn-down attempt never fires into freed memory.
  sim::EventId pending_event_;

  // Problematic-page tracking (HERE mode): pages sent by more than one
  // migrator thread within the same concurrent round, whose arrival order at
  // the receiver is therefore not guaranteed. (Rounds are barrier-separated,
  // so cross-round re-sends are safely ordered.) Re-sent at stop-and-copy.
  std::unique_ptr<common::DirtyBitmap> problematic_;
};

}  // namespace here::rep
