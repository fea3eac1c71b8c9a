// Host-level shared migrator pool (multi-VM protection).
//
// Without a shared pool, a host protecting N VMs would oversubscribe its
// migrator cores N-fold: every engine would plan its pause as if it had the
// whole machine. The MigratorPool makes that contention explicit and
// *scheduled* — one real worker pool per primary host, shared by all
// engines, with per-engine fair-share admission and tagged work accounting.
// A standalone engine owns a pool of its own, of which it is the only
// client, so its grants are always its full configured parallelism.
//
// Admission model (virtual time, deterministic): a checkpoint burst asks for
// a thread grant at its start. The grant is the client's weighted fair share
// of the workers among the bursts busy at that instant — never below one
// thread, never above what the client asked for. Grants are non-preemptive:
// a burst that finds the pool crowded simply receives a smaller share, which
// stretches its pause, which Algorithm 1 then feeds back into that VM's own
// period. One VM's burst therefore slows its neighbours *proportionally*
// (weighted fair share) instead of starving them outright, and the engine's
// epoch-age invariant stays bounded (tests/mgmt/fleet_property_test.cc).
//
// The real page copies still execute on the shared workers (run_shards), so
// the data plane remains genuinely concurrent; only the busy-window
// bookkeeping lives in virtual time. Scheduler state is guarded by a ranked
// mutex (rank 50, below the pool queue's 100) because the per-shard
// accounting is updated from the worker threads themselves.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"

namespace here::rep {

class MigratorPool {
 public:
  using ClientId = std::uint32_t;
  static constexpr ClientId kInvalidClient =
      std::numeric_limits<ClientId>::max();

  // Spawns one real worker pool with `workers` threads (>= 1; 0 clamps).
  MigratorPool(sim::Simulation& simulation, std::uint32_t workers);

  MigratorPool(const MigratorPool&) = delete;
  MigratorPool& operator=(const MigratorPool&) = delete;

  // Registers an engine as a pool client. `tag` labels its work in stats and
  // metrics (typically the protected VM's name); `requested_threads` caps
  // any grant; `weight` scales its fair share (> 0, else clamped to 1).
  ClientId register_client(std::string tag, std::uint32_t requested_threads,
                           double weight = 1.0);

  struct Grant {
    std::uint32_t threads = 1;     // granted migrator threads for this burst
    std::uint32_t contending = 1;  // clients busy at admission, incl. self
  };

  // Admits a checkpoint burst starting now. The grant is
  //   clamp(floor(workers * w_self / sum of busy clients' weights), 1,
  //         requested_threads)
  // where "busy" means a previously committed burst's window still covers
  // the current virtual time.
  [[nodiscard]] Grant begin_burst(ClientId client);

  // Marks the client busy for `busy_for` from now (the pause plus any
  // background transfer the engine just scheduled). Called once per admitted
  // burst, on every outcome — commit and abort paths alike — so a crowded
  // instant is visible to the next admission regardless of how this burst
  // ends.
  void commit_burst(ClientId client, sim::Duration busy_for);

  // What a shard batch does, for the per-client accounting: dirty-set
  // capture/copy work, content-aware encode passes (the encoder stage is
  // granted pool work like any other burst phase), or the replica's commit
  // (verify, apply, region references) and its durable snapshot rotation.
  enum class WorkKind : std::uint8_t { kCopy, kEncode, kCommit };

  // Runs fn(shard) for shard in [0, shards) on the real workers and blocks
  // until all complete; shards are tagged to `client` (and `kind`) in the
  // accounting. `shards` is the burst's granted thread count, so distinct
  // shard indices never alias (the engine partitions regions by shard index).
  void run_shards(ClientId client, std::uint32_t shards,
                  const std::function<void(std::uint32_t)>& fn,
                  WorkKind kind = WorkKind::kCopy);

  // The underlying real pool, for one-time work that is not a checkpoint
  // burst (the seeding phase drives this directly).
  [[nodiscard]] common::ThreadPool& workers() { return pool_; }

  struct ClientStats {
    std::string tag;
    double weight = 1.0;
    std::uint32_t requested_threads = 0;
    std::uint64_t bursts = 0;
    std::uint64_t contended_bursts = 0;    // admitted with other clients busy
    std::uint64_t granted_thread_sum = 0;  // sum of grants over bursts
    std::uint32_t min_grant = 0;           // smallest grant ever (0 = none yet)
    std::uint64_t shards_run = 0;
    std::uint64_t encode_shards_run = 0;   // subset of shards: WorkKind::kEncode
    std::uint64_t commit_shards_run = 0;   // subset of shards: WorkKind::kCommit
    sim::TimePoint last_burst_end{};       // end of the latest busy window
  };

  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
  [[nodiscard]] ClientStats client_stats(ClientId client) const;
  // Largest number of simultaneously busy clients ever observed at admission.
  [[nodiscard]] std::uint32_t peak_contending() const {
    return peak_contending_;
  }

  // Borrowed metrics registry (may be null; must outlive the pool). Keeps
  // pool.bursts / pool.contended_bursts counters and a pool.grant_threads
  // histogram.
  void attach_obs(obs::MetricsRegistry* metrics);

 private:
  struct Client {
    ClientStats stats;
    sim::TimePoint busy_until{};
  };

  sim::Simulation& sim_;
  common::ThreadPool pool_;
  std::vector<Client> clients_;  // indexed by ClientId (registration order)
  std::uint32_t peak_contending_ = 0;
  // Rank 50: acquired alone on the sim thread, and by workers that hold no
  // other ranked mutex. run_shards submits to the pool queue (rank 100)
  // without holding this.
  mutable common::RankedMutex mu_{common::LockRank::kMigratorSched,
                                  "rep.migrator_sched"};

  obs::Counter* m_bursts_ = nullptr;
  obs::Counter* m_contended_ = nullptr;
  obs::FixedHistogram* m_grant_threads_ = nullptr;
};

// One client's handle on the pool for work outside a capture burst: the
// replica's commit and snapshot writer run their shards through it. `count`
// is the shard count the client's grant allows; a default handle (no pool)
// runs everything on the caller's thread.
struct PoolShards {
  MigratorPool* pool = nullptr;
  MigratorPool::ClientId client = MigratorPool::kInvalidClient;
  std::uint32_t count = 1;

  // Calls fn(w) for w in [0, shards) and returns when all are done: on the
  // pool's workers (tagged `kind`) when a pool is attached and shards > 1,
  // else inline in ascending order, with no std::function built. No lock
  // may be held across it.
  template <typename Fn>
  void run(std::uint32_t shards, MigratorPool::WorkKind kind, Fn&& fn) const {
    if (pool != nullptr && shards > 1) {
      pool->run_shards(client, shards, fn, kind);
      return;
    }
    for (std::uint32_t w = 0; w < shards; ++w) fn(w);
  }
};

}  // namespace here::rep
