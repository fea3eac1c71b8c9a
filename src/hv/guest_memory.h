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
// scales with the pages the guest touched, not with the image size. Beside
// the mapping, each page carries a one-byte *backed* flag: set by
// write()/write_u64(), page_mut() and install_page() of non-zero data, and
// never cleared. An unbacked page holds only zeros, so the zero and digest
// questions are answered from the flag before any byte is read:
// page_digest() returns kZeroPageDigest for an unbacked page and hashes a
// backed one straight away (a backed page that holds zeros still hashes to
// kZeroPageDigest); install_page() scans the incoming page only when the
// destination is unbacked, and leaves an unbacked destination unbacked when
// the data is all-zero; copy_page() does nothing at all when both ends are
// unbacked. So seeding, activation and kZero decodes leave untouched pages
// unbacked and unread. The flag is a byte, not a packed bit, so pool
// workers may install distinct pages of one image at once. On hosts with
// transparent huge pages set to `always`, backing grows in 2 MiB steps
// instead of 4 KiB ones.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/dirty_bitmap.h"
#include "common/units.h"
#include "hv/pml_ring.h"

namespace here::hv {

// True when every byte of `page` is zero: the one zero test behind
// install_page's rule, the encoder's zero elision and the snapshot's page
// filter, each asked only of a page that is backed or arrives from outside.
[[nodiscard]] bool is_zero_page(std::span<const std::uint8_t> page);

// XXH64 (seed 0) of a 4 KiB all-zero page.
inline constexpr std::uint64_t kZeroPageDigest = 0xac869b6f32d8bbdbULL;

// The bytes of that page: what install_page() takes to clear a page.
inline constexpr std::array<std::uint8_t, common::kPageSize> kZeroPage{};

// The page-content digest: XXH64 (seed 0) over the page's bytes. It is the
// one function behind every page reference, so the primary's encoder
// references and the replica's committed digests compare directly.
// Digests are only compared for equality, never priced.
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
             std::span<const std::uint8_t> data) {
    if (gfn >= pages_ || offset + data.size() > common::kPageSize) {
      throw_out_of_range("GuestMemory::write out of range");
    }
    std::memcpy(frames_ + gfn * common::kPageSize + offset, data.data(),
                data.size());
    note_store(vcpu, gfn);
  }

  // Convenience 8-byte store (the workload generators' dirtying primitive).
  void write_u64(std::uint32_t vcpu, common::Gfn gfn, std::size_t offset,
                 std::uint64_t value) {
    std::uint8_t raw[8];
    std::memcpy(raw, &value, 8);
    write(vcpu, gfn, offset, raw);
  }

  [[nodiscard]] std::uint64_t read_u64(common::Gfn gfn,
                                       std::size_t offset) const {
    if (gfn >= pages_ || offset + 8 > common::kPageSize) {
      throw_out_of_range("GuestMemory::read_u64 out of range");
    }
    std::uint64_t value;
    std::memcpy(&value, frames_ + gfn * common::kPageSize + offset, 8);
    return value;
  }

  // --- Host-side access (no dirty tracking) --------------------------------

  [[nodiscard]] std::span<const std::uint8_t> page(common::Gfn gfn) const;
  // Marks the page backed: whatever the caller writes through the span is
  // read by every later digest (injected rot included).
  [[nodiscard]] std::span<std::uint8_t> page_mut(common::Gfn gfn);

  // False only for a page that has held zeros since construction.
  [[nodiscard]] bool backed(common::Gfn gfn) const {
    if (gfn >= pages_) throw_out_of_range("GuestMemory::backed");
    return backed_[gfn] != 0;
  }

  // False when no page in [first, first + count) is backed: the whole range
  // reads as zeros. Reads only the flags.
  [[nodiscard]] bool any_backed(common::Gfn first, std::uint64_t count) const;

  // Pages backed so far: an upper bound on the pages a full rehash reads.
  // Reads only the flags.
  [[nodiscard]] std::uint64_t backed_pages() const;

  // Raw store that bypasses dirty logging — used when the *replica* engine
  // applies a received checkpoint (those writes must not look like guest
  // activity). A backed destination takes a plain copy; an unbacked one
  // scans `data` and stays unbacked when it is all-zero.
  void install_page(common::Gfn gfn, std::span<const std::uint8_t> data);

  // install_page of page `gfn` of `from` (same gfn), the one image-to-image
  // copy: an unbacked source is known zero without reading it, so when both
  // ends are unbacked nothing is read or written.
  void copy_page(common::Gfn gfn, const GuestMemory& from);

  // hv::page_digest of one page, answered from the backed flag for an
  // unbacked page; full_digest folds every page's digest, in gfn order, into
  // one value for all memory.
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
  [[noreturn]] static void throw_out_of_range(const char* what);

  // The bookkeeping of one guest store: backed flag, count, dirty logs.
  void note_store(std::uint32_t vcpu, common::Gfn gfn) {
    assert(vcpu < vcpus_);
    backed_[gfn] = 1;
    ++stores_;
    if (shadow_log_ != nullptr) shadow_log_->set(gfn);
    if (!pml_rings_.empty()) pml_rings_[vcpu].log(gfn);
  }

  std::uint64_t pages_;
  std::uint32_t vcpus_;
  std::uint8_t* frames_ = nullptr;  // pages_ * kPageSize bytes, mmap'd
  std::vector<std::uint8_t> backed_;  // per page: may hold a non-zero byte
  common::DirtyBitmap* shadow_log_ = nullptr;
  std::span<PmlRing> pml_rings_;
  std::uint64_t stores_ = 0;
};

}  // namespace here::hv
