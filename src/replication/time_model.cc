#include "replication/time_model.h"

#include <algorithm>
#include <cmath>

#include "common/units.h"

namespace here::rep {

double TimeModel::efficiency(const double eff[4], std::uint32_t threads) {
  if (threads <= 1) return eff[0];
  if (threads >= 8) return eff[3];
  // Geometric interpolation between the 1/2/4/8 anchor points.
  const double log2p = std::log2(static_cast<double>(threads));
  const auto lo = static_cast<std::uint32_t>(log2p);
  const double frac = log2p - static_cast<double>(lo);
  return eff[lo] * std::pow(eff[lo + 1] / eff[lo], frac);
}

namespace {

sim::Duration scale_per_page(sim::Duration per_page, std::uint64_t pages,
                             double inverse_eff) {
  const double ns = static_cast<double>(per_page.count()) *
                    static_cast<double>(pages) * inverse_eff;
  return sim::Duration{static_cast<std::int64_t>(ns)};
}

}  // namespace

sim::Duration TimeModel::checkpoint_copy(sim::Duration max_worker_cpu,
                                         std::uint64_t wire_bytes) const {
  return std::max(max_worker_cpu, wire_time(wire_bytes));
}

sim::Duration TimeModel::shard_cpu(std::uint64_t raw_pages,
                                   std::uint32_t threads,
                                   sim::Duration encode_cpu) const {
  const double eff = efficiency(kCopyEff, threads);
  return scale_per_page(kPerPageCopy, raw_pages, 1.0 / eff) +
         encode_cpu;
}

sim::Duration TimeModel::encode_cpu(std::uint64_t zero_scans,
                                    std::uint64_t hashes,
                                    std::uint64_t delta_pages) const {
  return scale_per_page(kEncodeZeroScanPerPage, zero_scans, 1.0) +
         scale_per_page(kEncodePageHashPerPage, hashes, 1.0) +
         scale_per_page(kEncodeDeltaPerPage, delta_pages, 1.0);
}

sim::Duration TimeModel::seed_copy(std::uint64_t max_worker_pages,
                                   std::uint64_t total_pages,
                                   std::uint32_t threads) const {
  const double eff = efficiency(kSeedEff, threads);
  const sim::Duration cpu =
      scale_per_page(kPerPageCopy, max_worker_pages, 1.0 / eff);
  return std::max(cpu, wire_time(common::pages_to_bytes(total_pages)));
}

sim::Duration TimeModel::scan(std::uint64_t pages_scanned,
                              std::uint32_t threads) const {
  if (threads <= 1) return scale_per_page(kPerPageScan, pages_scanned, 1.0);
  const double speedup = static_cast<double>(threads) * kScanEff;
  return scale_per_page(kPerPageScan, pages_scanned, 1.0 / speedup);
}

sim::Duration TimeModel::cow_snapshot(std::uint64_t max_worker_pages,
                                      std::uint32_t threads) const {
  // Plain local memcpy parallelizes nearly linearly (memory-bandwidth bound
  // only far beyond our thread counts); charge a mild 10% contention tax.
  const double eff = threads <= 1 ? 1.0 : 0.9;
  return scale_per_page(kPerPageCow, max_worker_pages, 1.0 / eff);
}

sim::Duration TimeModel::pml_drain(std::uint64_t entries) const {
  return scale_per_page(kPerPmlEntry, entries, 1.0);
}

sim::Duration TimeModel::wire_time(std::uint64_t bytes) const {
  return sim::from_seconds(static_cast<double>(bytes) /
                           config_.wire_bytes_per_second);
}

sim::Duration TimeModel::durable_append(std::uint64_t bytes) const {
  return kDurableAppendSetup +
         sim::from_seconds(static_cast<double>(bytes) /
                           kDurableBytesPerSecond);
}

sim::Duration TimeModel::durable_replay(std::uint64_t bytes,
                                        std::uint64_t records) const {
  sim::Duration setup{kDurableReplaySetup.count() *
                      static_cast<std::int64_t>(records)};
  return setup + sim::from_seconds(static_cast<double>(bytes) /
                                   kDurableBytesPerSecond);
}

}  // namespace here::rep
