#include "hv/guest_memory.h"

#include <sys/mman.h>

#include <cassert>
#include <new>
#include <stdexcept>

#include "common/xxh64.h"

namespace here::hv {

using common::kPageSize;

namespace {

// One private anonymous mapping: the kernel hands out zeroed pages and backs
// each only on its first write. Every access below is bounds-checked by hand,
// because ASan does not see into the mapping.
std::uint8_t* map_frames(std::uint64_t pages) {
  if (pages == 0) throw std::invalid_argument("GuestMemory: zero pages");
  void* p = ::mmap(nullptr, pages * kPageSize, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::uint8_t*>(p);
}

}  // namespace

GuestMemory::GuestMemory(std::uint64_t pages, std::uint32_t vcpus)
    : pages_(pages), vcpus_(vcpus) {
  if (vcpus == 0) throw std::invalid_argument("GuestMemory: zero vcpus");
  frames_ = map_frames(pages);
}

GuestMemory::~GuestMemory() { ::munmap(frames_, pages_ * kPageSize); }

bool is_zero_page(std::span<const std::uint8_t> page) {
  // OR-reduce one 64-byte block of words at a time, then the byte tail.
  constexpr std::size_t kBlock = 64;
  const std::uint8_t* p = page.data();
  const std::size_t blocked = page.size() - page.size() % kBlock;
  for (std::size_t off = 0; off < blocked; off += kBlock) {
    std::uint64_t w[kBlock / 8];
    std::memcpy(w, p + off, kBlock);
    if ((w[0] | w[1] | w[2] | w[3] | w[4] | w[5] | w[6] | w[7]) != 0) {
      return false;
    }
  }
  for (std::size_t i = blocked; i < page.size(); ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

void GuestMemory::write(std::uint32_t vcpu, common::Gfn gfn, std::size_t offset,
                        std::span<const std::uint8_t> data) {
  assert(vcpu < vcpus_);
  if (gfn >= pages_ || offset + data.size() > kPageSize) {
    throw std::out_of_range("GuestMemory::write out of range");
  }
  std::memcpy(frames_ + gfn * kPageSize + offset, data.data(), data.size());
  ++stores_;
  if (shadow_log_ != nullptr) shadow_log_->set(gfn);
  if (!pml_rings_.empty()) pml_rings_[vcpu].log(gfn);
}

void GuestMemory::write_u64(std::uint32_t vcpu, common::Gfn gfn,
                            std::size_t offset, std::uint64_t value) {
  std::uint8_t raw[8];
  std::memcpy(raw, &value, 8);
  write(vcpu, gfn, offset, raw);
}

std::uint64_t GuestMemory::read_u64(common::Gfn gfn, std::size_t offset) const {
  if (gfn >= pages_ || offset + 8 > kPageSize) {
    throw std::out_of_range("GuestMemory::read_u64 out of range");
  }
  std::uint64_t value;
  std::memcpy(&value, frames_ + gfn * kPageSize + offset, 8);
  return value;
}

std::span<const std::uint8_t> GuestMemory::page(common::Gfn gfn) const {
  if (gfn >= pages_) throw std::out_of_range("GuestMemory::page");
  return {frames_ + gfn * kPageSize, kPageSize};
}

std::span<std::uint8_t> GuestMemory::page_mut(common::Gfn gfn) {
  if (gfn >= pages_) throw std::out_of_range("GuestMemory::page_mut");
  return {frames_ + gfn * kPageSize, kPageSize};
}

void GuestMemory::install_page(common::Gfn gfn,
                               std::span<const std::uint8_t> data) {
  if (gfn >= pages_ || data.size() != kPageSize) {
    throw std::out_of_range("GuestMemory::install_page");
  }
  std::uint8_t* dest = frames_ + gfn * kPageSize;
  if (is_zero_page(data) && is_zero_page({dest, kPageSize})) return;
  std::memcpy(dest, data.data(), kPageSize);
}

std::uint64_t page_digest(std::span<const std::uint8_t> page) {
  if (page.size() == kPageSize && is_zero_page(page)) return kZeroPageDigest;
  return common::xxh64(page);
}

std::uint64_t GuestMemory::page_digest(common::Gfn gfn) const {
  return hv::page_digest(page(gfn));
}

std::uint64_t GuestMemory::full_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (common::Gfn g = 0; g < pages_; ++g) {
    const std::uint64_t d = page_digest(g);
    h ^= d;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void GuestMemory::enable_pml(std::span<PmlRing> rings) {
  if (rings.size() != vcpus_) {
    throw std::invalid_argument("enable_pml: one ring per vCPU required");
  }
  pml_rings_ = rings;
}

void GuestMemory::disable_pml() { pml_rings_ = {}; }

}  // namespace here::hv
