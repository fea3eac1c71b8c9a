// The HERE replication engine (paper §5): orchestrates seeding, continuous
// multithreaded checkpointing, outbound I/O buffering, state translation,
// heartbeat monitoring and failover of one protected VM from a primary host
// to a secondary host — which may run a *different* hypervisor
// (heterogeneous replication) or the same one (the Remus baseline).
//
// Lifecycle:
//   start_protection(vm)
//     -> seeding (live pre-copy, §7.2(1)); failed attempts retry with
//        exponential backoff up to ft.seed_max_attempts
//     -> epoch 0 committed (memory + translated machine state + program)
//     -> continuous checkpoints every T (§7.2(2)), T driven by the dynamic
//        period manager (§5.4) unless a fixed period is configured; an epoch
//        whose transfer cannot complete (link down, or projected to exceed
//        ft.checkpoint_timeout) is aborted and retried, the backoff counted
//        from the guest's resume — its dirty pages and disk writes are folded
//        back into the running epoch, so output commit is preserved across
//        the abort
//     -> on primary failure (heartbeat loss or explicit trigger): the last
//        committed checkpoint activates on the secondary hypervisor; the
//        guest agent switches device families; unreleased outbound packets
//        are dropped (never seen by clients — output commit).
//
// Hardening knobs live in FaultToleranceConfig; every default preserves the
// original fail-stop behaviour bit-for-bit, so fault-free runs are
// unchanged. Lifecycle consumers read stats() (every checkpoint's
// CheckpointRecord, with its PauseLedger), the rep.* metrics and the trace.
//
// The class is implemented in four files, one per lifecycle seam:
// replication_engine.cc (construction, seeding, drain, packet paths),
// engine_checkpoint.cc, engine_failover.cc and engine_rejoin.cc
// (docs/ARCHITECTURE.md, "Engine source map").
#pragma once

#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "hv/host.h"
#include "kvmsim/kvm_hypervisor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replication/detectors.h"
#include "replication/durable_store.h"
#include "replication/encoder.h"
#include "replication/io_buffer.h"
#include "replication/migrator_pool.h"
#include "replication/period_manager.h"
#include "replication/seeder.h"
#include "replication/staging.h"
#include "replication/time_model.h"
#include "sim/stats.h"
#include "simnet/link_arbiter.h"
#include "xensim/xen_hypervisor.h"

namespace here::rep {

enum class EngineMode : std::uint8_t {
  kRemus,  // baseline: single-threaded, same-hypervisor replica
  kHere,   // multithreaded, heterogeneous replica, dynamic period
};

// Control-message kinds on the replication interconnect / management
// network. (Guest traffic uses kind 0.)
inline constexpr std::uint32_t kHeartbeatKind = 0xbeef;
inline constexpr std::uint32_t kProbeRequestKind = 0xbef0;
inline constexpr std::uint32_t kProbeReplyKind = 0xbef1;
// Resume-probe arbitration (recovered-primary / failover race). The tag
// field carries the engine's probe token so multiple engines sharing a host
// pair never cross wires.
inline constexpr std::uint32_t kResumeProbeKind = 0xbef2;
inline constexpr std::uint32_t kResumeGrantKind = 0xbef3;
inline constexpr std::uint32_t kResumeDenyKind = 0xbef4;

// Backoff before re-attempting an aborted checkpoint, counted from the
// aborted epoch's resume (same exponential rule as seeding, capped at the
// period ceiling t_max).
inline constexpr sim::Duration kCheckpointRetryBackoff = sim::from_millis(100);
// Checkpoint-stream integrity: rounds of selective retransmission for regions
// whose frames fail CRC verification, before the epoch falls back to
// abort-and-retry. Retransmitted bytes inflate the epoch's transfer cost, so
// repairs still land inside checkpoint_timeout (or trip it).
inline constexpr std::uint32_t kRetransmitBudget = 3;
// How long the watchdog waits for a management-network probe reply, and the
// resend interval of a recovered primary's resume probe.
inline constexpr sim::Duration kProbeTimeout = sim::from_millis(50);

// Engine-hardening knobs. Zero-valued durations disable the corresponding
// mechanism; the defaults reproduce the original fail-stop engine exactly.
struct FaultToleranceConfig {
  // Seeding: total attempts (1 = the original single-shot behaviour). A
  // failed attempt tears down its seeder/staging and rebuilds from scratch.
  std::uint32_t seed_max_attempts = 1;
  // Per-attempt deadline; 0 disables. Without a deadline a primary crash
  // mid-seeding silently abandons protection (there is no completion event
  // to observe), so retries only engage when this is set.
  sim::Duration seed_attempt_timeout{};
  // Backoff before attempt n+1: seed_retry_backoff << min(n-1, 6).
  sim::Duration seed_retry_backoff = sim::from_millis(250);
  // Abort a checkpoint whose projected pause + background transfer exceeds
  // this; 0 disables. The epoch's state folds back into the running epoch.
  sim::Duration checkpoint_timeout{};
  // On heartbeat loss, ping the primary over the *management* network to
  // distinguish an interconnect partition from a host crash before failing
  // over (stats().failure_classification records the verdict).
  bool probe_on_heartbeat_loss = false;
  // Split-brain fencing: delay replica activation after a heartbeat-loss
  // failover by this window; if primary heartbeats resume within it, the
  // failover is cancelled ("fenced") and checkpointing restarts, so at most
  // one VM ever serves the service address. 0 = activate immediately.
  // Explicit trigger_failover()/detector failovers are never fenced.
  sim::Duration fencing_window{};
  // Background scrubbing: audit the replica's committed image against the
  // per-region digests recorded at commit every `scrub_interval`, scheduling
  // a full re-send of any region that diverged after commit. 0 disables.
  sim::Duration scrub_interval{};
};

// Host-shared services the engine *borrows* from its environment, passed at
// construction next to (not inside) ReplicationConfig: the config describes
// policy knobs that are meaningful per engine, the environment names
// longer-lived infrastructure that is owned elsewhere and must outlive the
// engine. A default-constructed EngineEnv is the standalone engine (private
// migrator pool, dedicated wire, no durability).
struct EngineEnv {
  // Shared host migrator pool: when set, checkpoint bursts draw fair-share
  // thread grants from it, so N engines on one host contend explicitly. Null
  // gives the engine a private pool whose only client it is, so every grant
  // is the full configured parallelism.
  MigratorPool* migrator_pool = nullptr;
  // Shared replication-link bandwidth arbiter: when set, every epoch
  // transfer reserves WFQ capacity and contention stretches the pause.
  // Null models the wire as dedicated, unchanged.
  net::LinkArbiter* link_arbiter = nullptr;
  // Secondary-local durable store (durable_store.h): when set, every
  // committed epoch is WAL-appended before the commit is acked, and a
  // crashed secondary (inject_secondary_crash) rejoins from snapshot+WAL
  // with per-region delta resync instead of a full re-send. Null means a
  // secondary crash costs the full-reseed-equivalent resync.
  DurableStore* durable_store = nullptr;
};

struct ReplicationConfig {
  EngineMode mode = EngineMode::kHere;
  // Migrator threads for the continuous phase (paper evaluates P = #vCPUs).
  // Forced to 1 in Remus mode.
  std::uint32_t checkpoint_threads = 4;
  // Checkpoint period policy. target_degradation == 0 gives a fixed period
  // T == t_max (both for Remus and the "HERE(T,0%)" configurations).
  PeriodConfig period;
  SeedConfig seed;
  sim::Duration heartbeat_interval = sim::from_millis(25);
  sim::Duration heartbeat_timeout = sim::from_millis(100);
  TimeModelConfig time_model;
  // Content-aware checkpoint encoders (src/replication/encoder.h): shrink
  // what reaches the migrator pool and the wire (zero elision, XOR-delta,
  // content-hash skip) on wire version 1. All-off keeps the engine on wire
  // version 0, byte-identical to the un-encoded stream.
  EncoderConfig encoders;
  // Speculative copy-on-write checkpointing (the Remus paper's classic
  // optimization, extension here): the dirty set is duplicated into a local
  // buffer at memcpy speed, the VM resumes immediately, and the network
  // transfer proceeds in the background. Slashes the pause t (and thus the
  // degradation); output commit still waits for the background transfer, so
  // client-visible latency is unchanged.
  bool speculative_cow = false;
  // Engine-hardening behaviour under injected faults (src/faults).
  FaultToleranceConfig ft;
  // Fair-share weight of this engine on the shared pool and link (> 0).
  // Only consulted when EngineEnv carries a pool or arbiter.
  double flow_weight = 1.0;
  // Highest checkpoint wire version this engine's *replica* advertises
  // (rolling-upgrade pinning). A v1-capable secondary pinned to v0 makes the
  // primary negotiate the raw stream down — and suppresses the encoder stage
  // entirely, since encoded bytes can never travel in v0 frames.
  std::uint16_t replica_max_wire_version = wire::kWireVersionEncoded;
  // Observability (src/obs): borrowed pointers, either may be null, both
  // must outlive the engine. The engine (and the components it drives:
  // seeder, outbound buffer, period decisions) emits spans/instants through
  // `tracer` and keeps counters/histograms in `metrics`; with both null the
  // hot paths skip all event construction. Event schema: docs/observability.md.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

// Typed fail-fast validation of the full engine config (period policy,
// thread count, heartbeat cadence, fault-tolerance knobs). The constructor
// rejects invalid configs with std::invalid_argument carrying the same
// message; control-plane callers (src/mgmt) check this first and propagate
// the Status instead of catching.
[[nodiscard]] Status validate_replication_config(const ReplicationConfig& config);

// One continuous-phase checkpoint, as recorded in EngineStats.
struct CheckpointRecord {
  std::uint64_t epoch = 0;
  sim::TimePoint completed_at{};
  sim::Duration period_used{};  // T for the epoch that just ended
  sim::Duration pause{};        // t: VM paused duration (ledger.pause())
  std::uint64_t dirty_pages_model = 0;
  std::uint64_t bytes_model = 0;
  double degradation = 0.0;     // t / (t + T)
  PauseLedger ledger;           // t, term by term
};

struct EngineStats {
  SeedResult seed;
  sim::TimePoint protected_at{};  // epoch 0 committed
  std::vector<CheckpointRecord> checkpoints;
  sim::TimeSeries period_series{"period_s"};
  std::uint64_t epochs_committed = 0;
  std::uint64_t dirty_pages_total = 0;  // model pages over committed epochs
  std::uint64_t bytes_total = 0;        // model bytes over committed epochs
  std::uint64_t heartbeats_sent = 0;
  sim::Duration total_pause{};
  // Replication CPU-seconds consumed on the primary (§8.7).
  sim::Duration replication_cpu{};

  // Hardening counters (all zero on the fault-free path).
  std::uint32_t seed_attempts = 0;    // begun attempts, incl. the first
  std::uint64_t seed_retries = 0;     // retries scheduled after a failed one
  std::uint64_t epochs_aborted = 0;   // checkpoints aborted and retried
  std::uint64_t failovers_fenced = 0; // activations cancelled by fencing

  // Checkpoint-stream integrity counters (zero on an unimpaired wire).
  std::uint64_t regions_corrupted = 0;  // frames that failed verification
  std::uint64_t retransmits = 0;        // frames selectively retransmitted
  std::uint64_t commits_rejected = 0;   // epochs refused by the replica
  std::uint64_t scrub_runs = 0;         // background audits completed
  std::uint64_t scrub_repairs = 0;      // regions re-sent after divergence

  // Content-aware encoder accounting (all zero with encoders off). Real
  // (pre-model_scale) page counts and bytes, cumulative over encode passes
  // including aborted epochs — it measures encode work done, not commits.
  // Refreshed from the encoder at each commit.
  EncodeStats encode;

  // Durable-rejoin accounting (all zero without secondary crashes).
  std::uint64_t secondary_crashes = 0;  // injected secondary process crashes
  std::uint64_t rejoins = 0;            // local snapshot+WAL recoveries
  std::uint64_t full_resyncs = 0;       // rejoins that fell back to re-send-all
  std::uint64_t wal_appends = 0;        // epochs persisted before their ack
  std::uint64_t wal_records_replayed = 0;
  std::uint64_t resync_regions = 0;     // regions with any post-recovery divergence
  std::uint64_t resync_pages = 0;       // real pages re-sent after page-digest diff
  std::uint64_t resync_disk_sectors = 0;  // divergent sectors re-mirrored
  sim::Duration last_rejoin_time{};     // crash -> first post-rejoin commit
  RecoveryResult last_recovery;         // outcome of the last local recovery

  // Recovered-primary arbitration accounting (all zero without recovery
  // faults). Exactly one of {resume_grants, primary_demotions} moves per
  // race: the recovered side either wins (resumes output commit) or loses
  // (demotes to a re-seed candidate) — never both.
  std::uint64_t resume_probes = 0;      // probes sent by the recovered primary
  std::uint64_t resume_grants = 0;      // arbitration won: output commit resumed
  std::uint64_t primary_demotions = 0;  // arbitration lost: primary demoted
  std::uint64_t delta_seeds = 0;        // re-seeds served from a surviving store
  // Watchdog verdict ("", "crash-suspected" or "partition-suspected");
  // populated on heartbeat-loss failovers when probing is enabled.
  std::string failure_classification;

  sim::TimePoint failure_detected_at{};
  sim::TimePoint replica_active_at{};
  // "Replica resumption time" as measured for Fig. 7: from the start of the
  // failover process to the replica VM running.
  sim::Duration resumption_time{};
  std::uint64_t packets_dropped_at_failover = 0;
  // Unreleased output discarded when the generation was drained (replica
  // re-placement); such packets were never client-visible, so dropping them
  // preserves output commit.
  std::uint64_t packets_dropped_at_drain = 0;
  // Memory digests captured at the instant of replica activation (the
  // replica image must equal the committed checkpoint byte-for-byte).
  std::uint64_t replica_digest_at_activation = 0;
  std::uint64_t committed_digest_at_activation = 0;
  std::uint64_t replica_disk_digest_at_activation = 0;
  std::uint64_t committed_disk_digest_at_activation = 0;
};

// When a counter row is registered: always, only with content-aware
// encoders, or only with a durable store — a snapshot names only the
// instruments this configuration can move.
enum class CounterGate : std::uint8_t { kAlways, kEncoders, kDurable };

// One `rep.*` counter and the EngineStats field it mirrors. The engine keeps
// one set of books: every bump lands in the field and, when registered, in
// the counter. Exactly one of `field` and `encode_field` (a field of
// EngineStats::encode) is set.
struct EngineCounterRow {
  const char* metric;
  CounterGate gate;
  std::uint64_t EngineStats::*field = nullptr;
  std::uint64_t EncodeStats::*encode_field = nullptr;

  [[nodiscard]] std::uint64_t value(const EngineStats& stats) const {
    return field != nullptr ? stats.*field : stats.encode.*encode_field;
  }
};

// The engine's counters, in registration order (docs/observability.md).
[[nodiscard]] std::span<const EngineCounterRow> engine_counter_rows();

// The engine's lifecycle, one phase per side of the pair (docs/ARCHITECTURE.md,
// "Engine phases"). Two phases, not one: a recovered primary's arbitration
// can overlap an armed failover on the replica side. Terminal phases sort
// last.
enum class PrimaryPhase : std::uint8_t {
  kSeeding,      // until epoch 0 commits (attempts, retries, delta seed)
  kReplicating,  // continuous checkpointing
  kArbitrating,  // back from a microreboot: guest held paused, probe out
  kDemoted,      // lost the arbitration: stale VM destroyed (terminal)
  kDrained,      // generation retired: inert except for reads (terminal)
};
enum class ReplicaPhase : std::uint8_t {
  kStandby,        // watching heartbeats
  kProbing,        // heartbeats lost: management-network probe out
  kProbeAnswered,  // the primary answered the probe (partition suspected)
  kDown,           // replication process crashed: staging lost
  kRejoining,      // rebooted: protection returns at the first commit
  kFailingOver,    // replica activation scheduled
  kFencing,        // activation held for the fencing window
  kActive,         // the replica runs the service (terminal)
};

class ReplicationEngine {
 public:
  // The paper's prototype replicates Xen -> KVM; this implementation also
  // supports the reverse direction (KVM primary -> Xen secondary, seeding
  // via KVM's dirty bitmap instead of PML rings), which is what enables
  // re-protection after a failover. Remus mode requires a homogeneous
  // pair. Hosts must already be connected on the interconnect fabric.
  // `env` aggregates the host-shared services the engine borrows (pool,
  // link arbiter, durable store); the default EngineEnv is the standalone
  // single-engine environment.
  ReplicationEngine(sim::Simulation& simulation, net::Fabric& fabric,
                    hv::Host& primary, hv::Host& secondary,
                    ReplicationConfig config, EngineEnv env = {});
  ~ReplicationEngine();

  ReplicationEngine(const ReplicationEngine&) = delete;
  ReplicationEngine& operator=(const ReplicationEngine&) = delete;

  // Starts protecting `vm` (owned by the primary's hypervisor; must be
  // running). Reconciles the VM's CPUID policy across both hypervisors,
  // interposes the outbound buffer, seeds the replica, then checkpoints
  // continuously. Returns kFailedPrecondition if the engine is already
  // protecting a VM or `vm` is not running.
  [[nodiscard]] Status start_protection(hv::Vm& vm);

  // External clients address the protected service through this node; the
  // engine re-points it at the replica on failover (IP takeover).
  [[nodiscard]] net::NodeId service_node() const { return service_node_; }

  // Force a failover now (e.g. an attack detector fired, §8.2). Operator
  // failovers are deliberate: they bypass the fencing window.
  void trigger_failover(const std::string& reason);

  // Registers a failure detector, polled on the watchdog cadence once the
  // VM is protected; a firing detector triggers failover.
  void add_detector(std::unique_ptr<FailureDetector> detector);

  // Fault-injection hook (src/faults): stalls the migrator threads, adding
  // `stall` to the next checkpoint's pause (a wedged copy thread in the real
  // system holds the VM paused exactly this way).
  void inject_migrator_stall(sim::Duration stall);

  // Fault-injection hook (src/faults): the secondary's replication process
  // crashes now and reboots after `reboot_after`. The staging area (replica
  // RAM) is lost immediately; the in-flight epoch folds back into the
  // running one and checkpointing stops. On reboot the engine rejoins:
  // with a durable store it recovers locally from snapshot+WAL and re-sends
  // only digest-divergent regions; without one every page is re-sent (the
  // full-reseed-equivalent baseline). Protection (failover eligibility) is
  // restored at the first post-rejoin commit. A guest held paused by a
  // pending resume arbitration stays paused. No-op before epoch 0 commits,
  // while the replica is down or probing a silent primary, and once failover
  // began.
  void inject_secondary_crash(sim::Duration reboot_after);

  // Fault-injection hooks (src/faults): damage the durable WAL tail, as a
  // torn write (XOR corruption) or a truncation (power cut mid-append).
  // No-ops without a durable store.
  void inject_wal_torn_write(std::uint64_t bytes);
  void inject_wal_truncation(std::uint64_t bytes);

  // Retires this engine generation in place so a successor can take over the
  // same (still-running) primary VM toward a different secondary — the
  // drain -> re-place -> delta-reseed path of fleet placement. Every
  // scheduled event is cancelled, an in-flight seed or epoch capture is
  // abandoned (the guest resumes if the drain landed mid-pause, unless a
  // pending resume arbitration holds it), and
  // unreleased buffered output is dropped (never-released output was never
  // client-visible, so output commit holds; counted in
  // stats().packets_dropped_at_drain). The replica staging, durable store
  // and stats stay readable; heartbeats, watchdogs, failovers, rejoins and
  // resume-probe arbitration are permanently disabled. The successor's
  // start_protection re-points the guest tx hook at itself. Idempotent; a
  // no-op on a demoted engine, which has nothing left to retire.
  void drain(const std::string& reason);
  [[nodiscard]] bool drained() const {
    return primary_phase_ == PrimaryPhase::kDrained;
  }

  // True from a secondary crash to the first post-rejoin commit.
  [[nodiscard]] bool rejoining() const {
    return replica_phase_ == ReplicaPhase::kDown ||
           replica_phase_ == ReplicaPhase::kRejoining;
  }

  // True once this engine's primary lost the resume-probe arbitration: its
  // stale VM was destroyed and the engine will never checkpoint again (the
  // control plane re-protects the activated replica with a fresh engine).
  [[nodiscard]] bool primary_demoted() const {
    return primary_phase_ == PrimaryPhase::kDemoted;
  }

  [[nodiscard]] bool protecting() const { return vm_ != nullptr; }
  // Epoch 0 committed: the continuous phase opened epoch 1 (or E+2 after a
  // delta seed), and the epoch count never goes back to 0.
  [[nodiscard]] bool seeded() const { return current_epoch_ > 0; }
  [[nodiscard]] bool failed_over() const {
    return replica_phase_ == ReplicaPhase::kActive;
  }
  [[nodiscard]] bool failover_in_progress() const {
    return replica_phase_ == ReplicaPhase::kFailingOver ||
           replica_phase_ == ReplicaPhase::kFencing;
  }

  [[nodiscard]] hv::Vm* primary_vm() { return vm_; }
  // Null once the twin no longer exists on the secondary (a newer engine
  // generation demoted and destroyed it) — callers get a validated pointer,
  // never a dangling one.
  [[nodiscard]] hv::Vm* replica_vm() {
    if (replica_vm_ != nullptr && !secondary_.hypervisor().owns(*replica_vm_)) {
      return nullptr;
    }
    return replica_vm_;
  }
  // The VM currently responsible for the service.
  [[nodiscard]] hv::Vm* active_vm();

  // True when a running VM (primary or activated replica) can serve clients.
  [[nodiscard]] bool service_available();

  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  [[nodiscard]] OutboundBuffer& outbound() { return outbound_; }
  [[nodiscard]] ReplicaStaging* staging() { return staging_.get(); }
  [[nodiscard]] PeriodManager& period_manager() { return period_; }
  [[nodiscard]] const TimeModel& time_model() const { return model_; }
  [[nodiscard]] const ReplicationConfig& config() const { return config_; }
  [[nodiscard]] const EngineEnv& env() const { return env_; }

  [[nodiscard]] bool heterogeneous() const {
    return primary_.hypervisor().kind() != secondary_.hypervisor().kind();
  }

  // Fleet-scheduling identities, valid once start_protection ran. The pool
  // client is this engine's id on the shared pool, or on its private pool
  // without one; the arbiter flow is only meaningful with an arbiter.
  [[nodiscard]] MigratorPool::ClientId pool_client() const {
    return pool_client_;
  }
  [[nodiscard]] net::LinkArbiter::FlowId arbiter_flow() const {
    return arb_flow_;
  }

 private:
  [[nodiscard]] std::uint32_t threads() const;

  // --- Phases ----------------------------------------------------------------
  // Each entry cancels, in one place, the events its phase forbids.
  void enter(PrimaryPhase next);
  void enter(ReplicaPhase next);
  void cancel_events(std::initializer_list<sim::EventId> ids);
  // Activation is armed or done: the replica is taking the service over.
  [[nodiscard]] bool taking_over() const {
    return failover_in_progress() || failed_over();
  }

  // --- Seeding (with retry) --------------------------------------------------
  void begin_seed_attempt();
  void schedule_seed_retry(const char* why);
  void on_seed_attempt_timeout();
  void on_seeded(const SeedResult& result);
  // Commits the seeded (fresh or delta) image as `epoch`, with machine state
  // and program. Returns the modelled state cost, or the commit's refusal.
  [[nodiscard]] Expected<sim::Duration> commit_seed_epoch(std::uint64_t epoch);
  void commit_initial_checkpoint();

  // --- Continuous checkpointing ---------------------------------------------
  // Enters (or re-enters) the continuous phase now: cancels any pending
  // checkpoint or scrub and re-arms both loops, so neither ever runs twice.
  // No-op unless the primary replicates into a replica that is up and not
  // taking over (a pending arbitration restarts on its grant, a down replica
  // on its rejoin). Every phase that forbids checkpoints cancels both loops
  // on entry, so the loops themselves never check the phase.
  void restart_checkpointing();
  // Arms the next run one period from now (the end of the last epoch).
  void schedule_checkpoint();
  // One epoch: capture -> frame -> seal -> transmit -> price, then one
  // pending step at the resume offset (end_pause). TimeModel::price_epoch
  // owns the pause; the stages below only count what they did into an
  // EpochWork.
  void run_checkpoint();
  // The epoch in flight, owned from its capture until it settles. A primary
  // that dies mid-epoch, or a failover that begins mid-epoch, leaves it in
  // flight with no step pending until a stand-down, a won arbitration, a
  // secondary crash or a drain folds it back.
  struct InflightEpoch {
    std::vector<common::Gfn> gfns;           // the captured dirty set
    std::vector<hv::DiskWrite> disk_writes;  // its mirrored disk writes
    bool paused_guest = false;  // holds the guest it paused, until resumed
    CheckpointRecord record;    // booked when it commits
    sim::EventId step;  // its one pending step: the pause's end, a settle
  };
  struct EpochCapture {
    std::vector<std::uint64_t> worker_pages;  // captured pages per worker
    std::uint64_t pages = 0;                  // captured, real pages
    std::uint16_t wire_version = wire::kWireVersionRaw;
    std::vector<wire::RegionFrame> frames;    // one per dirty region
  };
  // Collects the dirty set across the granted workers (counting the grant
  // and the pages into `work`), keeps it restorable until commit and splits
  // it into one unsealed frame per dirty region.
  EpochCapture capture_epoch(EpochWork& work);
  // Fills the frames' payloads — raw page copies, or the encoder's output —
  // and counts each worker's pages and the payload bytes into `work`.
  void frame_epoch(EpochCapture& c, EpochWork& work);
  // CRCs each frame, folds the rolling digest and arms the replica's
  // expectation of the epoch.
  void seal_epoch(EpochCapture& c);
  // Shared-link arbitration stretch of `wire_bytes` (zero without an
  // arbiter): reserves them on the secondary's ingest link, or only
  // projects the grant when `reserve` is false.
  sim::Duration link_stretch(std::uint64_t wire_bytes, bool reserve);
  // The epoch's ckpt.pause span and one migrator.copy span per worker.
  void trace_epoch(const EpochCapture& c, const EpochWork& work,
                   const PauseLedger& ledger);
  // Pushes the epoch's frames through the interconnect data plane, NACKing
  // and selectively retransmitting corrupt regions up to kRetransmitBudget
  // rounds. Retransmits re-ship the sealed (possibly encoded) frames as-is.
  // Returns payload bytes retransmitted; sets `exhausted` when corrupt
  // regions remain (the caller falls back to abort-and-retry).
  std::uint64_t transmit_epoch_frames(
      const std::vector<wire::RegionFrame>& frames, bool& exhausted);
  void schedule_scrub();
  void run_scrub();
  // Schedules a full re-send of region `r`: drops its encoder references
  // (the next epoch ships it raw) and marks all of its pages dirty.
  void resend_region(std::uint32_t r);
  // The pause of an in-flight epoch that may commit is over. A dead primary
  // keeps the epoch in flight; otherwise a down link aborts it, a CoW epoch
  // lets the guest run and settles when its background transfer lands, and
  // any other settles now.
  void end_pause();
  // Every ending of a checkpoint run: commits the in-flight epoch
  // (`abort_reason` null; a refused commit becomes an abort) or folds it back
  // and books the abort, schedules the next run from now — the period after
  // a commit, the backoff after an abort — and lets the guest run again if
  // the epoch paused it. A dead primary settles nothing: the epoch stays in
  // flight.
  void settle_epoch(const char* abort_reason);
  // Commits the in-flight epoch on the replica, books it and releases its
  // output. Returns false when the replica refuses it.
  bool commit_inflight();
  // `reason` when the interconnect to the replica is down, else null.
  const char* if_link_down(const char* reason);
  // Saves + (if heterogeneous) translates machine state and program snapshot
  // into staging's pending slot. Returns the time cost, without the ACK.
  sim::Duration snapshot_state_and_program();
  // Ends the in-flight epoch, if any, without committing it: cancels its
  // pending step, discards it on both sides of the stream
  // (abort_staged_epoch), then re-marks its pages dirty and restores its
  // mirrored disk writes, so the retry (or a restart) re-ships them. The
  // caller lets the guest run again.
  void fold_back_epoch();
  // The in-flight epoch's pending step (invalid without one), for the phase
  // entries that cancel it.
  [[nodiscard]] sim::EventId epoch_step() const {
    return inflight_ ? inflight_->step : sim::EventId{};
  }
  // Discards the in-flight epoch's staging buffers *and* the encoder's
  // staged reference updates (which must only ever promote when the replica
  // actually commits).
  void abort_staged_epoch();
  // Lets a guest the engine holds paused run again; no-op when the primary
  // is down, the VM is not paused, or the phase holds it (arbitration).
  void resume_guest();
  // Bumps an EngineStats counter field and its registered counter.
  void bump(std::uint64_t EngineStats::*field, std::uint64_t n = 1);
  // Refreshes stats_.encode from the encoder at a commit, mirroring the
  // deltas into the rep.enc_* counters.
  void sync_encode_stats();

  // --- Heartbeat / failover --------------------------------------------------
  void send_heartbeat();
  void watchdog_check();
  void on_heartbeat_lost();
  void finish_probe();
  // `fence_on_heartbeat`: arm split-brain fencing (heartbeat-loss failovers
  // only; explicit triggers and detectors are deliberate and never fenced).
  void begin_failover(const std::string& reason, bool fence_on_heartbeat);
  // Cancels an armed-but-unfired failover: the primary proved alive (its
  // heartbeats, or its resume probe) before the replica activated.
  // Replication resumes, unless an arbitration holds the primary.
  void stand_down_failover(bool by_probe);
  void activate_replica();

  // --- Secondary crash / rejoin ----------------------------------------------
  // Rebuilds staging on secondary reboot: local recovery (durable store) or
  // full resync, then the digest-diff that schedules divergent regions for
  // re-send. Checkpointing resumes after the modelled recovery time.
  void on_secondary_rebooted();

  // --- Recovered-primary arbitration (ReHype microreboot race) ----------------
  // A primary back from a microreboot must not silently resume output
  // commit: the secondary may have failed over (or be mid-failover) while it
  // was dark. The recovered side holds its VM paused and probes; the
  // secondary's event-serialized packet handler is the linearization point
  // — grant (cancelling any armed-but-unfired failover) or deny (it already
  // activated). Exactly one side ends up authoritative.
  void on_primary_recovered();
  void send_resume_probe();
  void on_resume_probe(const net::Packet& packet);  // secondary side
  void on_resume_grant();                           // primary side, won
  void demote_primary(const char* reason);          // primary side, lost
  // Delta re-seed: when the environment's durable store already holds a
  // snapshot+WAL for this VM (a previous engine generation wrote it), seed
  // the replica from local recovery plus a digest diff instead of streaming
  // every page. Returns false (caller full-seeds) when there is no store or
  // recovery fails.
  bool try_delta_seed();

  // --- Store reconcile (delta seed and rejoin) -------------------------------
  // Both recover the replica locally, then reconcile only what diverged.
  void reset_staging();
  // Recovers staging from the durable store's snapshot+WAL and books the
  // replay. Returns the modelled replay time.
  [[nodiscard]] Expected<sim::Duration> recover_from_store();
  struct StoreDiff {
    std::uint64_t regions = 0;       // candidate regions
    std::uint64_t digest_pages = 0;  // pages whose digests crossed the wire
    std::vector<common::Gfn> pages;  // pages that differ from the primary
  };
  // Page-digest diff of the recovered image against primary memory. The
  // candidates are the regions whose recovered digest disagrees with the
  // last-acked mirror (an empty mirror makes every region a candidate).
  StoreDiff diff_recovered_image();
  // Re-mirrors the primary's disk into staging; returns the sectors whose
  // stamps diverged (the ones that re-cross the wire).
  std::uint64_t resync_disk();
  // Attaches the store after recovery (replay never feeds back into the log)
  // and snapshots the reconciled image, superseding the old WAL.
  void reattach_store();
  // Re-mirrors the replica's committed per-region digests on the engine side
  // (durable store only): staging dies with a secondary crash, and the rejoin
  // diff needs the last-acked references.
  void mirror_committed_digests();
  // Mirror plus encoder baseline, taken while the VM is paused and the
  // replica's committed image equals primary memory. A replica pinned below
  // wire v1 suppresses the encoder stage entirely.
  void baseline_references();

  // Sends a 64-byte control message: heartbeat, watchdog probe, resume
  // probe or arbitration verdict.
  void send_control(net::NodeId src, net::NodeId dst, std::uint32_t kind,
                    std::uint64_t tag = 0);
  void on_guest_tx(const net::Packet& packet);
  void on_service_packet(const net::Packet& packet);

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  hv::Host& primary_;
  hv::Host& secondary_;
  ReplicationConfig config_;
  EngineEnv env_;
  TimeModel model_;
  // A standalone engine owns a one-client pool; a fleet engine borrows the
  // host's. `pool_` is whichever one this engine draws from.
  std::unique_ptr<MigratorPool> own_pool_;
  MigratorPool* pool_;
  PeriodManager period_;
  OutboundBuffer outbound_;
  MigratorPool::ClientId pool_client_ = MigratorPool::kInvalidClient;
  net::LinkArbiter::FlowId arb_flow_ = 0;

  net::NodeId service_node_ = net::kInvalidNode;
  hv::Vm* vm_ = nullptr;
  hv::Vm* replica_vm_ = nullptr;
  std::unique_ptr<ReplicaStaging> staging_;
  // Content-aware encoder stage; null when config_.encoders is all-off (the
  // engine then stays on wire version 0). Rebuilt with each seed attempt and
  // baselined at the epoch-0 commit.
  std::unique_ptr<EncoderPipeline> encoder_;
  std::unique_ptr<Seeder> seeder_;
  std::vector<std::unique_ptr<FailureDetector>> detectors_;

  PrimaryPhase primary_phase_ = PrimaryPhase::kSeeding;
  ReplicaPhase replica_phase_ = ReplicaPhase::kStandby;
  std::uint32_t abort_streak_ = 0;   // consecutive aborted checkpoints
  sim::Duration pending_stall_{};    // injected migrator stall, not yet paid
  std::uint64_t current_epoch_ = 0;  // execution epoch being buffered
  std::uint64_t epoch_start_captured_ = 0;  // outbound count at epoch start
  std::vector<hv::DiskWrite> epoch_disk_writes_;  // storage mirror buffer
  std::optional<InflightEpoch> inflight_;  // empty between epochs
  sim::TimePoint last_checkpoint_done_{};
  sim::TimePoint last_heartbeat_rx_{};
  sim::EventId checkpoint_event_;
  sim::EventId heartbeat_event_;
  sim::EventId watchdog_event_;
  // The next seeding step: the attempt deadline, the retry backoff or the
  // epoch-0 commit. At most one of them is ever pending.
  sim::EventId seed_event_;
  sim::EventId probe_event_;
  sim::EventId failover_activate_event_;
  sim::EventId scrub_event_;
  sim::EventId secondary_reboot_event_;

  // Secondary crash / rejoin state. The digest mirror tracks the replica's
  // committed per-region digests on the *engine* side: staging dies with the
  // secondary, and the rejoin diff needs the last-acked references to decide
  // which regions the recovered image is missing.
  sim::TimePoint secondary_crashed_at_{};
  std::vector<std::uint64_t> committed_digest_mirror_;

  // The probe token fences this engine's resume probes from other engines on
  // the same host pair (derived from the VM name, never from pointers —
  // determinism).
  std::uint64_t probe_token_ = 0;
  sim::EventId resume_probe_event_;

  // Registered instruments (empty/null when config_.metrics is null).
  // counters_[i] mirrors engine_counter_rows()[i]; null when its gate is off.
  std::vector<obs::Counter*> counters_;
  obs::FixedHistogram* m_rejoin_ms_ = nullptr;
  obs::FixedHistogram* m_pause_ms_ = nullptr;
  obs::FixedHistogram* m_degradation_pct_ = nullptr;
  obs::FixedHistogram* m_mttr_ms_ = nullptr;
  obs::Gauge* m_period_s_ = nullptr;

  EngineStats stats_;
};

}  // namespace here::rep
