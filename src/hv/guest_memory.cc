#include "hv/guest_memory.h"

#include <sys/mman.h>

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
  backed_.assign(pages, 0);
  frames_ = map_frames(pages);
}

GuestMemory::~GuestMemory() { ::munmap(frames_, pages_ * kPageSize); }

void GuestMemory::throw_out_of_range(const char* what) {
  throw std::out_of_range(what);
}

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

std::span<const std::uint8_t> GuestMemory::page(common::Gfn gfn) const {
  if (gfn >= pages_) throw std::out_of_range("GuestMemory::page");
  return {frames_ + gfn * kPageSize, kPageSize};
}

std::span<std::uint8_t> GuestMemory::page_mut(common::Gfn gfn) {
  if (gfn >= pages_) throw std::out_of_range("GuestMemory::page_mut");
  backed_[gfn] = 1;
  return {frames_ + gfn * kPageSize, kPageSize};
}

void GuestMemory::install_page(common::Gfn gfn,
                               std::span<const std::uint8_t> data) {
  if (gfn >= pages_ || data.size() != kPageSize) {
    throw std::out_of_range("GuestMemory::install_page");
  }
  if (backed_[gfn] == 0) {
    if (is_zero_page(data)) return;
    backed_[gfn] = 1;
  }
  std::memcpy(frames_ + gfn * kPageSize, data.data(), kPageSize);
}

void GuestMemory::copy_page(common::Gfn gfn, const GuestMemory& from) {
  if (gfn >= pages_ || gfn >= from.pages_) {
    throw std::out_of_range("GuestMemory::copy_page");
  }
  if (from.backed_[gfn] != 0) {
    install_page(gfn, {from.frames_ + gfn * kPageSize, kPageSize});
  } else if (backed_[gfn] != 0) {
    std::memset(frames_ + gfn * kPageSize, 0, kPageSize);
  }
}

std::uint64_t page_digest(std::span<const std::uint8_t> page) {
  return common::xxh64(page);
}

std::uint64_t GuestMemory::page_digest(common::Gfn gfn) const {
  if (gfn >= pages_) throw std::out_of_range("GuestMemory::page_digest");
  if (backed_[gfn] == 0) return kZeroPageDigest;
  return hv::page_digest({frames_ + gfn * kPageSize, kPageSize});
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
