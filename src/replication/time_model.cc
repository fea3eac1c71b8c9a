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

sim::Duration scaled(sim::Duration d, double factor) {
  return sim::Duration{
      static_cast<std::int64_t>(static_cast<double>(d.count()) * factor)};
}

}  // namespace

PauseLedger TimeModel::price_epoch(const EpochWork& work) const {
  PauseLedger l;
  l.setup = kCheckpointSetup;
  l.vm_pause = work.vm_pause;
  l.vm_resume = work.vm_resume;
  const std::uint64_t k = work.model_scale;
  l.scan = scan(work.pages * k, work.threads);
  // The slowest worker is the copy's critical path.
  sim::Duration critical{};
  for (const EncodeWork& s : work.shards) {
    critical = std::max(
        critical, shard_cpu(s.raw_pages * k, work.threads,
                            encode_cpu(s.zero_scans * k, s.hashes * k,
                                       s.delta_pages * k)));
  }
  l.copy = checkpoint_copy(critical, work.payload_bytes * k);
  // Selective retransmissions re-ship their regions' sealed payloads inside
  // the epoch's transfer window, inflating it.
  l.retransmit = wire_time(work.retransmit_bytes * k);
  l.state = work.state + kCheckpointAck;
  // Disk-mirror bytes are already in model units; a slowed-down primary
  // disk (injected fault) stretches the mirror read.
  l.disk = wire_time(work.disk_bytes);
  if (work.disk_slowdown > 1.0) l.disk = scaled(l.disk, work.disk_slowdown);
  // Impaired interconnect: lost checkpoint packets retransmit (1/(1-loss))
  // and a throttled link stretches serialization (1/bandwidth_factor). The
  // guard keeps fault-free runs bit-identical to the unimpaired model.
  double net_penalty = 1.0;
  if (work.link_loss > 0.0) net_penalty /= (1.0 - work.link_loss);
  if (work.bandwidth_factor < 1.0) net_penalty /= work.bandwidth_factor;
  if (net_penalty > 1.0) {
    const sim::Duration wire = l.copy + l.retransmit;
    l.net_penalty_copy = scaled(wire, net_penalty) - wire;
    const sim::Duration tail = l.state + l.disk;
    l.net_penalty_state = scaled(tail, net_penalty) - tail;
  }
  // Shared-link contention stretches the transfer like a slower dedicated
  // wire would; an uncontended grant adds nothing.
  l.arbitration = work.arbitration;
  // Durable ack path: the replica WAL-appends the epoch before acking, so
  // the local NVMe append rides the commit's critical path — local to the
  // secondary, so outside the net penalty.
  if (work.durable) l.durable_append = durable_append(work.wire_bytes());
  l.speculative_cow = work.speculative_cow;
  if (work.speculative_cow) {
    l.cow_snapshot = cow_snapshot(work.max_worker_pages * k, work.threads);
  }
  // An injected migrator stall holds the VM paused for its duration.
  l.stall = work.stall;
  return l;
}

sim::Duration TimeModel::replication_cpu(const EpochWork& work,
                                         const PauseLedger& ledger) const {
  // Only raw pages did the full stream copy; collapsed pages' cycles are in
  // their worker's encode cost.
  const std::uint64_t k = work.model_scale;
  std::uint64_t raw_pages = 0;
  sim::Duration encode{};
  for (const EncodeWork& s : work.shards) {
    raw_pages += s.raw_pages;
    encode += encode_cpu(s.zero_scans * k, s.hashes * k, s.delta_pages * k);
  }
  const double copy_eff = efficiency(kCopyEff, work.threads);
  return sim::Duration{static_cast<std::int64_t>(
             static_cast<double>(kPerPageCopy.count()) *
             static_cast<double>(raw_pages * k) / copy_eff)} +
         ledger.scan * static_cast<std::int64_t>(work.threads) +
         ledger.setup + encode;
}

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
