// Deterministic fault plans.
//
// A FaultPlan is pure data: a list of typed fault specifications stamped
// with absolute virtual times. Plans are either scripted (builder methods)
// or generated from a seed (FaultPlan::random) — in both cases the same
// plan armed on the same simulation produces the identical event schedule,
// which is what makes chaos experiments replayable bit-for-bit and lets the
// fault tests golden-compare whole trace files.
//
// Targets are symbolic names ("host-a", "ic", "engine") resolved by the
// FaultInjector at arm() time against its registry, so one plan can replay
// against any compatible topology.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"

namespace here::faults {

enum class FaultType : std::uint8_t {
  // Host faults (target: a registered host).
  kHostCrash,       // fail-stop; endpoints go down. duration>0 auto-repairs.
  kHostHang,        // stops responding, links stay up. duration>0 auto-repairs.
  kHostRepair,      // explicit repair (for scripted crash/repair sequences)
  // Link faults (target: a registered link).
  kLinkPartition,   // both directions silently drop. duration>0 auto-heals.
  kLinkHeal,        // explicit heal
  kLinkLoss,        // magnitude = drop probability; duration>0 restores 0
  kLinkLatency,     // amount = extra latency; duration>0 restores 0
  kLinkBandwidth,   // magnitude = line-rate factor; duration>0 restores 1
  // Data-plane link faults (target: a registered link). These corrupt
  // checkpoint frame *content*; the wire layer's CRCs must catch them.
  kLinkBitErrors,   // magnitude = per-bit flip probability; duration>0 restores 0
  kLinkTruncation,  // magnitude = per-frame truncation prob; duration>0 restores 0
  kLinkDuplication, // magnitude = per-frame duplicate prob; duration>0 restores 0
  kLinkReordering,  // magnitude = per-frame reorder prob; duration>0 restores 0
  // Disk faults (target: a registered host; applies to all its VM disks).
  kDiskSlowdown,    // magnitude = write-cost multiplier; auto-clears
  kDiskWriteErrors, // writes fail while active; auto-clears
  // Engine faults (target: a registered engine).
  kMigratorStall,   // amount = stall added to the next checkpoint pause
  // Durability faults (target: a registered engine). kSecondaryCrash
  // crashes the engine's secondary host and repairs it after `duration` (0
  // means "stay down"); the host's return rejoins the replica from its
  // DurableStore when one is attached, or by a full resync. The WAL faults
  // damage the engine's durable log tail (no-ops without a store) so
  // recovery must refuse the torn/truncated records.
  kSecondaryCrash,  // duration = repair delay
  kWalTornWrite,    // magnitude = bytes scribbled over the WAL tail
  kWalTruncation,   // magnitude = bytes chopped off the WAL tail
  // Primary-recovery faults (target: a registered host). ReHype-style
  // microreboot-in-place: the hypervisor restarts under its guests, which
  // stay paused-but-preserved for the reboot window, then resume.
  kHypervisorMicroreboot,  // amount = reboot window; host must already be failed
  kRecoveryRace,    // crash + immediate microreboot; amount = recovery latency
};

[[nodiscard]] constexpr std::string_view to_string(FaultType type) {
  switch (type) {
    case FaultType::kHostCrash: return "host-crash";
    case FaultType::kHostHang: return "host-hang";
    case FaultType::kHostRepair: return "host-repair";
    case FaultType::kLinkPartition: return "link-partition";
    case FaultType::kLinkHeal: return "link-heal";
    case FaultType::kLinkLoss: return "link-loss";
    case FaultType::kLinkLatency: return "link-latency";
    case FaultType::kLinkBandwidth: return "link-bandwidth";
    case FaultType::kLinkBitErrors: return "link-bit-errors";
    case FaultType::kLinkTruncation: return "link-truncation";
    case FaultType::kLinkDuplication: return "link-duplication";
    case FaultType::kLinkReordering: return "link-reordering";
    case FaultType::kDiskSlowdown: return "disk-slowdown";
    case FaultType::kDiskWriteErrors: return "disk-write-errors";
    case FaultType::kMigratorStall: return "migrator-stall";
    case FaultType::kSecondaryCrash: return "secondary-crash";
    case FaultType::kWalTornWrite: return "wal-torn-write";
    case FaultType::kWalTruncation: return "wal-truncation";
    case FaultType::kHypervisorMicroreboot: return "hypervisor-microreboot";
    case FaultType::kRecoveryRace: return "recovery-race";
  }
  return "unknown";
}

struct FaultSpec {
  FaultType type{};
  sim::TimePoint at{};       // injection time (absolute virtual time)
  sim::Duration duration{};  // > 0: auto-clear at `at + duration`; 0: sticky
  std::string target;        // symbolic host / link / engine name
  double magnitude = 0.0;    // loss probability / bandwidth factor / slowdown
  sim::Duration amount{};    // extra latency / stall length
};

// Knobs for seeded-random plan generation. Event times are uniform in
// [start, end); transient faults hold for uniform [min_hold, max_hold).
struct RandomPlanConfig {
  sim::TimePoint start{sim::from_seconds(1)};
  sim::TimePoint end{sim::from_seconds(30)};
  std::uint32_t events = 8;
  std::vector<std::string> hosts;    // crash/hang/disk targets
  std::vector<std::string> links;    // partition/loss/latency/bw targets
  std::vector<std::string> engines;  // migrator-stall targets
  // Fault-class toggles (a class with no eligible target is skipped too).
  bool host_faults = true;
  bool link_faults = true;
  bool disk_faults = true;
  bool engine_faults = true;
  // Data-plane corruption faults are opt-in: enabling them appends candidate
  // types, which re-maps every (seed, config) pair — existing seeded plans
  // stay stable as long as this is false.
  bool data_faults = false;
  // Durability faults (secondary crash/repair, WAL tail damage) are opt-in
  // for the same reason; their candidates append after the data faults.
  bool durability_faults = false;
  // Primary-recovery faults (host microreboot / recovery race) are opt-in;
  // their candidates append after the durability faults.
  bool recovery_faults = false;
  sim::Duration min_hold = sim::from_millis(200);
  sim::Duration max_hold = sim::from_seconds(2);
  double max_loss = 0.4;             // kLinkLoss magnitude in (0, max_loss]
  double min_bandwidth_factor = 0.1; // kLinkBandwidth in [min, 1)
  double max_disk_slowdown = 8.0;    // kDiskSlowdown in (1, max]
  sim::Duration max_latency_spike = sim::from_millis(5);
  sim::Duration max_stall = sim::from_millis(50);
  std::uint64_t max_wal_damage_bytes = 4096;  // torn-write/truncation sizes
  double max_bit_error_rate = 1e-6;  // kLinkBitErrors magnitude in (0, max]
  double max_frame_fault_prob = 0.2; // truncation/dup/reorder prob in (0, max]
  // Seeded recovery-latency distribution for kRecoveryRace /
  // kHypervisorMicroreboot: the microreboot window is uniform in
  // [min_recovery_latency, max_recovery_latency]. The defaults straddle the
  // failover decision boundary (heartbeat timeout + probe + activation
  // delay), so random plans exercise both race outcomes.
  sim::Duration min_recovery_latency = sim::from_millis(50);
  sim::Duration max_recovery_latency = sim::from_millis(1500);
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // --- Scripted construction (each returns *this for chaining) ---------------

  FaultPlan& add(FaultSpec spec);

  FaultPlan& crash_host(std::string host, sim::TimePoint at,
                        sim::Duration repair_after = {});
  FaultPlan& hang_host(std::string host, sim::TimePoint at,
                       sim::Duration repair_after = {});
  FaultPlan& repair_host(std::string host, sim::TimePoint at);
  FaultPlan& partition_link(std::string link, sim::TimePoint at,
                            sim::Duration heal_after = {});
  FaultPlan& heal_link(std::string link, sim::TimePoint at);
  FaultPlan& link_loss(std::string link, sim::TimePoint at, double probability,
                       sim::Duration clear_after = {});
  FaultPlan& link_latency(std::string link, sim::TimePoint at,
                          sim::Duration extra, sim::Duration clear_after = {});
  FaultPlan& link_bandwidth(std::string link, sim::TimePoint at, double factor,
                            sim::Duration clear_after = {});
  FaultPlan& link_bit_errors(std::string link, sim::TimePoint at, double rate,
                             sim::Duration clear_after = {});
  FaultPlan& link_truncation(std::string link, sim::TimePoint at,
                             double probability,
                             sim::Duration clear_after = {});
  FaultPlan& link_duplication(std::string link, sim::TimePoint at,
                              double probability,
                              sim::Duration clear_after = {});
  FaultPlan& link_reordering(std::string link, sim::TimePoint at,
                             double probability,
                             sim::Duration clear_after = {});
  FaultPlan& disk_slowdown(std::string host, sim::TimePoint at, double factor,
                           sim::Duration clear_after = {});
  FaultPlan& disk_write_errors(std::string host, sim::TimePoint at,
                               sim::Duration clear_after = {});
  FaultPlan& migrator_stall(std::string engine, sim::TimePoint at,
                            sim::Duration stall);
  FaultPlan& secondary_crash(std::string engine, sim::TimePoint at,
                             sim::Duration reboot_after);
  FaultPlan& wal_torn_write(std::string engine, sim::TimePoint at,
                            std::uint64_t bytes);
  FaultPlan& wal_truncation(std::string engine, sim::TimePoint at,
                            std::uint64_t bytes);
  FaultPlan& hypervisor_microreboot(std::string host, sim::TimePoint at,
                                    sim::Duration window);
  FaultPlan& recovery_race(std::string host, sim::TimePoint at,
                           sim::Duration recovery_latency);

  // --- Seeded-random generation ----------------------------------------------

  // Same (seed, config) => identical plan, independent of call context (the
  // generator owns its Rng). Produced specs are already schedule-ordered.
  [[nodiscard]] static FaultPlan random(std::uint64_t seed,
                                        const RandomPlanConfig& config);

  // --- Inspection -------------------------------------------------------------

  [[nodiscard]] const std::vector<FaultSpec>& specs() const { return specs_; }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }
  [[nodiscard]] bool empty() const { return specs_.empty(); }

  // Injection-time-ordered view (stable: equal-time specs keep insertion
  // order, mirroring the simulator's FIFO rule). This is the exact order the
  // injector arms events in.
  [[nodiscard]] std::vector<FaultSpec> schedule() const;

  // One line per spec ("t=2.000s link-partition ic"), for logs and tests.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<FaultSpec> specs_;
};

}  // namespace here::faults
