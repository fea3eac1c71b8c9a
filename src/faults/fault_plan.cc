#include "faults/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace here::faults {

FaultPlan& FaultPlan::add(FaultSpec spec) {
  specs_.push_back(std::move(spec));
  return *this;
}

FaultPlan& FaultPlan::crash_host(std::string host, sim::TimePoint at,
                                 sim::Duration repair_after) {
  return add({.type = FaultType::kHostCrash,
              .at = at,
              .duration = repair_after,
              .target = std::move(host)});
}

FaultPlan& FaultPlan::hang_host(std::string host, sim::TimePoint at,
                                sim::Duration repair_after) {
  return add({.type = FaultType::kHostHang,
              .at = at,
              .duration = repair_after,
              .target = std::move(host)});
}

FaultPlan& FaultPlan::repair_host(std::string host, sim::TimePoint at) {
  return add({.type = FaultType::kHostRepair,
              .at = at,
              .target = std::move(host)});
}

FaultPlan& FaultPlan::partition_link(std::string link, sim::TimePoint at,
                                     sim::Duration heal_after) {
  return add({.type = FaultType::kLinkPartition,
              .at = at,
              .duration = heal_after,
              .target = std::move(link)});
}

FaultPlan& FaultPlan::heal_link(std::string link, sim::TimePoint at) {
  return add({.type = FaultType::kLinkHeal,
              .at = at,
              .target = std::move(link)});
}

FaultPlan& FaultPlan::link_loss(std::string link, sim::TimePoint at,
                                double probability,
                                sim::Duration clear_after) {
  return add({.type = FaultType::kLinkLoss,
              .at = at,
              .duration = clear_after,
              .target = std::move(link),
              .magnitude = probability});
}

FaultPlan& FaultPlan::link_latency(std::string link, sim::TimePoint at,
                                   sim::Duration extra,
                                   sim::Duration clear_after) {
  return add({.type = FaultType::kLinkLatency,
              .at = at,
              .duration = clear_after,
              .target = std::move(link),
              .amount = extra});
}

FaultPlan& FaultPlan::link_bandwidth(std::string link, sim::TimePoint at,
                                     double factor, sim::Duration clear_after) {
  return add({.type = FaultType::kLinkBandwidth,
              .at = at,
              .duration = clear_after,
              .target = std::move(link),
              .magnitude = factor});
}

FaultPlan& FaultPlan::link_bit_errors(std::string link, sim::TimePoint at,
                                      double rate, sim::Duration clear_after) {
  return add({.type = FaultType::kLinkBitErrors,
              .at = at,
              .duration = clear_after,
              .target = std::move(link),
              .magnitude = rate});
}

FaultPlan& FaultPlan::link_truncation(std::string link, sim::TimePoint at,
                                      double probability,
                                      sim::Duration clear_after) {
  return add({.type = FaultType::kLinkTruncation,
              .at = at,
              .duration = clear_after,
              .target = std::move(link),
              .magnitude = probability});
}

FaultPlan& FaultPlan::link_duplication(std::string link, sim::TimePoint at,
                                       double probability,
                                       sim::Duration clear_after) {
  return add({.type = FaultType::kLinkDuplication,
              .at = at,
              .duration = clear_after,
              .target = std::move(link),
              .magnitude = probability});
}

FaultPlan& FaultPlan::link_reordering(std::string link, sim::TimePoint at,
                                      double probability,
                                      sim::Duration clear_after) {
  return add({.type = FaultType::kLinkReordering,
              .at = at,
              .duration = clear_after,
              .target = std::move(link),
              .magnitude = probability});
}

FaultPlan& FaultPlan::disk_slowdown(std::string host, sim::TimePoint at,
                                    double factor, sim::Duration clear_after) {
  return add({.type = FaultType::kDiskSlowdown,
              .at = at,
              .duration = clear_after,
              .target = std::move(host),
              .magnitude = factor});
}

FaultPlan& FaultPlan::disk_write_errors(std::string host, sim::TimePoint at,
                                        sim::Duration clear_after) {
  return add({.type = FaultType::kDiskWriteErrors,
              .at = at,
              .duration = clear_after,
              .target = std::move(host)});
}

FaultPlan& FaultPlan::migrator_stall(std::string engine, sim::TimePoint at,
                                     sim::Duration stall) {
  return add({.type = FaultType::kMigratorStall,
              .at = at,
              .target = std::move(engine),
              .amount = stall});
}

FaultPlan& FaultPlan::secondary_crash(std::string engine, sim::TimePoint at,
                                      sim::Duration reboot_after) {
  return add({.type = FaultType::kSecondaryCrash,
              .at = at,
              .duration = reboot_after,
              .target = std::move(engine)});
}

FaultPlan& FaultPlan::wal_torn_write(std::string engine, sim::TimePoint at,
                                     std::uint64_t bytes) {
  return add({.type = FaultType::kWalTornWrite,
              .at = at,
              .target = std::move(engine),
              .magnitude = static_cast<double>(bytes)});
}

FaultPlan& FaultPlan::wal_truncation(std::string engine, sim::TimePoint at,
                                     std::uint64_t bytes) {
  return add({.type = FaultType::kWalTruncation,
              .at = at,
              .target = std::move(engine),
              .magnitude = static_cast<double>(bytes)});
}

FaultPlan& FaultPlan::hypervisor_microreboot(std::string host,
                                             sim::TimePoint at,
                                             sim::Duration window) {
  return add({.type = FaultType::kHypervisorMicroreboot,
              .at = at,
              .target = std::move(host),
              .amount = window});
}

FaultPlan& FaultPlan::recovery_race(std::string host, sim::TimePoint at,
                                    sim::Duration recovery_latency) {
  return add({.type = FaultType::kRecoveryRace,
              .at = at,
              .target = std::move(host),
              .amount = recovery_latency});
}

std::vector<FaultSpec> FaultPlan::schedule() const {
  std::vector<FaultSpec> out = specs_;
  std::stable_sort(out.begin(), out.end(),
                   [](const FaultSpec& a, const FaultSpec& b) {
                     return a.at < b.at;
                   });
  return out;
}

std::string FaultPlan::to_string() const {
  std::string out;
  char line[192];
  for (const FaultSpec& spec : schedule()) {
    std::snprintf(line, sizeof(line),
                  "t=%.6fs %s %s dur=%.6fs mag=%.4f amt=%.6fs\n",
                  sim::to_seconds(spec.at - sim::TimePoint{}),
                  std::string(faults::to_string(spec.type)).c_str(),
                  spec.target.c_str(), sim::to_seconds(spec.duration),
                  spec.magnitude, sim::to_seconds(spec.amount));
    out += line;
  }
  return out;
}

namespace {

// Uniform duration in [lo, hi] drawn from `rng`; collapses to lo when the
// range is empty or inverted.
sim::Duration uniform_duration(sim::Rng& rng, sim::Duration lo,
                               sim::Duration hi) {
  if (hi <= lo) return lo;
  const auto span = static_cast<std::uint64_t>((hi - lo).count());
  return lo + sim::Duration{static_cast<sim::Duration::rep>(
                  rng.uniform(span + 1))};
}

const std::string& pick(sim::Rng& rng, const std::vector<std::string>& from) {
  return from[static_cast<std::size_t>(rng.uniform(from.size()))];
}

}  // namespace

FaultPlan FaultPlan::random(std::uint64_t seed,
                            const RandomPlanConfig& config) {
  FaultPlan plan;
  sim::Rng rng(seed);

  // Candidate fault types, filtered to classes that are enabled AND have a
  // registered target. The list order is fixed so the (seed, config) mapping
  // is stable across builds.
  std::vector<FaultType> candidates;
  if (config.host_faults && !config.hosts.empty()) {
    candidates.push_back(FaultType::kHostCrash);
    candidates.push_back(FaultType::kHostHang);
  }
  if (config.link_faults && !config.links.empty()) {
    candidates.push_back(FaultType::kLinkPartition);
    candidates.push_back(FaultType::kLinkLoss);
    candidates.push_back(FaultType::kLinkLatency);
    candidates.push_back(FaultType::kLinkBandwidth);
  }
  if (config.disk_faults && !config.hosts.empty()) {
    candidates.push_back(FaultType::kDiskSlowdown);
    candidates.push_back(FaultType::kDiskWriteErrors);
  }
  if (config.engine_faults && !config.engines.empty()) {
    candidates.push_back(FaultType::kMigratorStall);
  }
  // Appended last (and opt-in) so plans generated before data faults existed
  // keep their exact (seed, config) -> spec mapping.
  if (config.data_faults && !config.links.empty()) {
    candidates.push_back(FaultType::kLinkBitErrors);
    candidates.push_back(FaultType::kLinkTruncation);
    candidates.push_back(FaultType::kLinkDuplication);
    candidates.push_back(FaultType::kLinkReordering);
  }
  // Durability faults append after the data faults, same stability argument.
  if (config.durability_faults && !config.engines.empty()) {
    candidates.push_back(FaultType::kSecondaryCrash);
    candidates.push_back(FaultType::kWalTornWrite);
    candidates.push_back(FaultType::kWalTruncation);
  }
  // Recovery faults append after the durability faults, same argument again.
  if (config.recovery_faults && !config.hosts.empty()) {
    candidates.push_back(FaultType::kRecoveryRace);
    candidates.push_back(FaultType::kHypervisorMicroreboot);
  }
  if (candidates.empty() || config.end <= config.start) return plan;

  for (std::uint32_t i = 0; i < config.events; ++i) {
    FaultSpec spec;
    spec.type = candidates[static_cast<std::size_t>(
        rng.uniform(candidates.size()))];
    spec.at = config.start +
              uniform_duration(rng, sim::Duration{}, config.end - config.start);
    spec.duration = uniform_duration(rng, config.min_hold, config.max_hold);
    switch (spec.type) {
      case FaultType::kHostCrash:
      case FaultType::kHostHang:
      case FaultType::kDiskWriteErrors:
        spec.target = pick(rng, config.hosts);
        break;
      case FaultType::kDiskSlowdown:
        spec.target = pick(rng, config.hosts);
        spec.magnitude = 1.0 + rng.uniform01() * (config.max_disk_slowdown - 1.0);
        break;
      case FaultType::kLinkPartition:
        spec.target = pick(rng, config.links);
        break;
      case FaultType::kLinkLoss:
        spec.target = pick(rng, config.links);
        spec.magnitude = rng.uniform01() * config.max_loss;
        break;
      case FaultType::kLinkLatency:
        spec.target = pick(rng, config.links);
        spec.amount = uniform_duration(rng, sim::Duration{1},
                                       config.max_latency_spike);
        break;
      case FaultType::kLinkBandwidth:
        spec.target = pick(rng, config.links);
        spec.magnitude = config.min_bandwidth_factor +
                         rng.uniform01() * (1.0 - config.min_bandwidth_factor);
        break;
      case FaultType::kMigratorStall:
        spec.target = pick(rng, config.engines);
        spec.amount = uniform_duration(rng, sim::Duration{1}, config.max_stall);
        spec.duration = {};  // one-shot, nothing to clear
        break;
      case FaultType::kLinkBitErrors:
        spec.target = pick(rng, config.links);
        spec.magnitude = rng.uniform01() * config.max_bit_error_rate;
        break;
      case FaultType::kLinkTruncation:
      case FaultType::kLinkDuplication:
      case FaultType::kLinkReordering:
        spec.target = pick(rng, config.links);
        spec.magnitude = rng.uniform01() * config.max_frame_fault_prob;
        break;
      case FaultType::kSecondaryCrash:
        spec.target = pick(rng, config.engines);
        break;  // `duration` (drawn above) doubles as the repair delay
      case FaultType::kWalTornWrite:
      case FaultType::kWalTruncation:
        spec.target = pick(rng, config.engines);
        spec.magnitude = static_cast<double>(
            1 + rng.uniform(config.max_wal_damage_bytes));
        spec.duration = {};  // one-shot, nothing to clear
        break;
      case FaultType::kRecoveryRace:
      case FaultType::kHypervisorMicroreboot:
        spec.target = pick(rng, config.hosts);
        spec.amount = uniform_duration(rng, config.min_recovery_latency,
                                       config.max_recovery_latency);
        spec.duration = {};  // recovery completes itself; nothing to clear
        break;
      case FaultType::kHostRepair:
      case FaultType::kLinkHeal:
        break;  // never generated directly; clears come from `duration`
    }
    plan.add(std::move(spec));
  }

  // Pre-sort so specs() already reads in schedule order for random plans.
  plan.specs_ = plan.schedule();
  return plan;
}

}  // namespace here::faults
