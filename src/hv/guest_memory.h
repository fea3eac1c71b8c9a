// Guest physical memory with real 4 KiB page frames and dirty tracking.
//
// Every guest store goes through write()/write_u64(), which (a) mutates the
// real backing bytes — replication tests byte-verify replica consistency —
// and (b) feeds whichever dirty logs the hypervisor currently has enabled:
// the global shadow-paging bitmap (Xen/Remus path) and/or the per-vCPU PML
// rings (HERE's multithreaded seeding path).
//
// Sparse images. Each GuestMemory is one lazily zeroed anonymous mapping, so
// a page costs host memory only once something writes it; a page nobody
// wrote reads as zeros from the kernel's shared zero page. Host memory thus
// scales with the pages the guest touched, not with the image size. Every
// copy keeps that: install_page() writes nothing when both the incoming page
// and the destination page are all-zero (the bytes afterwards are the same
// either way), so seeding, activation and kZero decodes leave untouched
// pages unbacked, and page_digest() answers an all-zero page with its
// pinned digest without hashing it. On hosts with transparent huge pages set
// to `always`, backing grows in 2 MiB steps instead of 4 KiB ones.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>

#include "common/dirty_bitmap.h"
#include "common/units.h"
#include "hv/pml_ring.h"

namespace here::hv {

// True when every byte of `page` is zero: the one zero test behind
// install_page's rule, the digest shortcut, the encoder's zero elision and
// the snapshot's page filter.
[[nodiscard]] bool is_zero_page(std::span<const std::uint8_t> page);

// XXH64 (seed 0) of a 4 KiB all-zero page.
inline constexpr std::uint64_t kZeroPageDigest = 0xac869b6f32d8bbdbULL;

// The page-content digest: XXH64 (seed 0) over the page's bytes. It is the
// one function behind every page reference, so the primary's encoder
// references and the replica's committed digests compare directly. An
// all-zero page returns kZeroPageDigest without hashing; that is exact,
// since XXH64 is a function of the bytes. Digests are only compared for
// equality, never priced.
[[nodiscard]] std::uint64_t page_digest(std::span<const std::uint8_t> page);

class GuestMemory {
 public:
  // Maps `pages` zeroed frames for a VM with `vcpus` virtual CPUs; no page
  // is backed until it is written.
  GuestMemory(std::uint64_t pages, std::uint32_t vcpus);
  ~GuestMemory();

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
  // activity). Writes nothing when `data` and the destination page are both
  // all-zero, so an untouched page stays unbacked.
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
  std::uint8_t* frames_ = nullptr;  // pages_ * kPageSize bytes, mmap'd
  common::DirtyBitmap* shadow_log_ = nullptr;
  std::span<PmlRing> pml_rings_;
  std::uint64_t stores_ = 0;
};

}  // namespace here::hv
