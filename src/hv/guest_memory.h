// Guest physical memory with real 4 KiB page frames and dirty tracking.
//
// Every guest store goes through write()/write_u64(), which (a) mutates the
// real backing bytes — replication tests byte-verify replica consistency —
// and (b) feeds whichever dirty logs the hypervisor currently has enabled:
// the global shadow-paging bitmap (Xen/Remus path) and/or the per-vCPU PML
// rings (HERE's multithreaded seeding path).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/dirty_bitmap.h"
#include "common/units.h"
#include "hv/pml_ring.h"

namespace here::hv {

// The page-content digest: XXH64 (seed 0) over the page's bytes. It is the
// one function behind every page reference, so the primary's encoder
// references and the replica's committed digests compare directly. Digests
// are only compared for equality, never priced.
[[nodiscard]] std::uint64_t page_digest(std::span<const std::uint8_t> page);

class GuestMemory {
 public:
  // Allocates `pages` zeroed frames for a VM with `vcpus` virtual CPUs.
  GuestMemory(std::uint64_t pages, std::uint32_t vcpus);

  GuestMemory(const GuestMemory&) = delete;
  GuestMemory& operator=(const GuestMemory&) = delete;

  [[nodiscard]] std::uint64_t pages() const { return pages_; }
  [[nodiscard]] std::uint64_t bytes() const { return common::pages_to_bytes(pages_); }
  [[nodiscard]] std::uint32_t vcpus() const { return vcpus_; }

  // --- Guest-side access (dirty-tracked) -----------------------------------

  // Store from vCPU `vcpu` into page `gfn` at byte `offset`.
  void write(std::uint32_t vcpu, common::Gfn gfn, std::size_t offset,
             std::span<const std::uint8_t> data);

  // Convenience 8-byte store (the workload generators' dirtying primitive).
  void write_u64(std::uint32_t vcpu, common::Gfn gfn, std::size_t offset,
                 std::uint64_t value);

  [[nodiscard]] std::uint64_t read_u64(common::Gfn gfn, std::size_t offset) const;

  // --- Host-side access (no dirty tracking) --------------------------------

  [[nodiscard]] std::span<const std::uint8_t> page(common::Gfn gfn) const;
  [[nodiscard]] std::span<std::uint8_t> page_mut(common::Gfn gfn);

  // Raw store that bypasses dirty logging — used when the *replica* engine
  // applies a received checkpoint (those writes must not look like guest
  // activity).
  void install_page(common::Gfn gfn, std::span<const std::uint8_t> data);

  // hv::page_digest of one page; full_digest folds every page's digest, in
  // gfn order, into one value for all memory.
  [[nodiscard]] std::uint64_t page_digest(common::Gfn gfn) const;
  [[nodiscard]] std::uint64_t full_digest() const;

  // --- Dirty tracking control (driven by the owning hypervisor) ------------

  // Global shadow-paging style log (one bitmap for the whole VM).
  void enable_shadow_log(common::DirtyBitmap* bitmap) { shadow_log_ = bitmap; }
  void disable_shadow_log() { shadow_log_ = nullptr; }
  [[nodiscard]] bool shadow_log_enabled() const { return shadow_log_ != nullptr; }

  // Per-vCPU PML rings (HERE's extension). `rings` must outlive tracking and
  // have one entry per vCPU.
  void enable_pml(std::span<PmlRing> rings);
  void disable_pml();
  [[nodiscard]] bool pml_enabled() const { return !pml_rings_.empty(); }

  // Total guest stores since construction (feeds workload accounting).
  [[nodiscard]] std::uint64_t store_count() const { return stores_; }

 private:
  std::uint64_t pages_;
  std::uint32_t vcpus_;
  std::vector<std::uint8_t> frames_;
  common::DirtyBitmap* shadow_log_ = nullptr;
  std::span<PmlRing> pml_rings_;
  std::uint64_t stores_ = 0;
};

}  // namespace here::hv
