#include "hv/guest_memory.h"

#include <cassert>
#include <stdexcept>

#include "common/xxh64.h"

namespace here::hv {

using common::kPageSize;

GuestMemory::GuestMemory(std::uint64_t pages, std::uint32_t vcpus)
    : pages_(pages), vcpus_(vcpus), frames_(pages * kPageSize, 0) {
  if (pages == 0) throw std::invalid_argument("GuestMemory: zero pages");
  if (vcpus == 0) throw std::invalid_argument("GuestMemory: zero vcpus");
}

void GuestMemory::write(std::uint32_t vcpu, common::Gfn gfn, std::size_t offset,
                        std::span<const std::uint8_t> data) {
  assert(vcpu < vcpus_);
  if (gfn >= pages_ || offset + data.size() > kPageSize) {
    throw std::out_of_range("GuestMemory::write out of range");
  }
  std::memcpy(frames_.data() + gfn * kPageSize + offset, data.data(), data.size());
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
  std::memcpy(&value, frames_.data() + gfn * kPageSize + offset, 8);
  return value;
}

std::span<const std::uint8_t> GuestMemory::page(common::Gfn gfn) const {
  if (gfn >= pages_) throw std::out_of_range("GuestMemory::page");
  return {frames_.data() + gfn * kPageSize, kPageSize};
}

std::span<std::uint8_t> GuestMemory::page_mut(common::Gfn gfn) {
  if (gfn >= pages_) throw std::out_of_range("GuestMemory::page_mut");
  return {frames_.data() + gfn * kPageSize, kPageSize};
}

void GuestMemory::install_page(common::Gfn gfn,
                               std::span<const std::uint8_t> data) {
  if (gfn >= pages_ || data.size() != kPageSize) {
    throw std::out_of_range("GuestMemory::install_page");
  }
  std::memcpy(frames_.data() + gfn * kPageSize, data.data(), kPageSize);
}

std::uint64_t page_digest(std::span<const std::uint8_t> page) {
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
