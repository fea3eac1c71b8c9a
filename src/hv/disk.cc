#include "hv/disk.h"

#include <algorithm>
#include <iterator>

namespace here::hv {

VirtualDisk::Chunk& VirtualDisk::chunk_for(std::uint64_t index) {
  // Ascending restores and writes at the top of the disk skip the search.
  if (!chunks_.empty()) {
    const auto last = std::prev(chunks_.end());
    if (last->first == index) return last->second;
    if (last->first < index) return chunks_.try_emplace(chunks_.end(), index)->second;
  }
  return chunks_[index];
}

void VirtualDisk::set(Chunk& chunk, std::uint64_t offset, std::uint64_t stamp) {
  std::uint64_t& word = chunk.present[offset / 64];
  const std::uint64_t bit = std::uint64_t{1} << (offset % 64);
  if ((word & bit) == 0) ++distinct_;
  word |= bit;
  chunk.stamps[offset] = stamp;
}

bool VirtualDisk::apply(const DiskWrite& write) {
  if (fail_writes_) {
    ++write_errors_;
    return false;
  }
  std::uint64_t sector = write.sector;
  std::uint64_t stamp = write.stamp;
  std::uint64_t left =
      sector < total_sectors_ ? std::min<std::uint64_t>(write.sectors, total_sectors_ - sector)
                              : 0;
  sectors_written_ += left;
  while (left > 0) {
    // One chunk lookup per chunk the write touches.
    Chunk& chunk = chunk_for(sector / kChunkSectors);
    const std::uint64_t first = sector % kChunkSectors;
    const std::uint64_t run = std::min(left, kChunkSectors - first);
    for (std::uint64_t offset = first; offset < first + run; ++offset) {
      set(chunk, offset, stamp++);
    }
    sector += run;
    left -= run;
  }
  return true;
}

void VirtualDisk::restore_stamp(std::uint64_t sector, std::uint64_t stamp) {
  if (sector < total_sectors_) {
    set(chunk_for(sector / kChunkSectors), sector % kChunkSectors, stamp);
  }
}

std::uint64_t VirtualDisk::read_stamp(std::uint64_t sector) const {
  const auto it = chunks_.find(sector / kChunkSectors);
  // Unwritten sectors in a chunk hold the zero-initialised stamp.
  return it == chunks_.end() ? 0 : it->second.stamps[sector % kChunkSectors];
}

std::uint64_t VirtualDisk::digest() const {
  // Order-independent: XOR of per-sector mixes.
  std::uint64_t acc = 0;
  for_each_stamp([&acc](std::uint64_t sector, std::uint64_t stamp) {
    std::uint64_t h = sector * 0x9e3779b97f4a7c15ULL ^ stamp;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    acc ^= h;
  });
  return acc;
}

std::uint64_t VirtualDisk::sectors_differing_in(const VirtualDisk& other) const {
  std::uint64_t differing = 0;
  auto theirs = other.chunks_.begin();
  for (const auto& [index, mine] : chunks_) {
    while (theirs != other.chunks_.end() && theirs->first < index) ++theirs;
    const Chunk* match =
        theirs != other.chunks_.end() && theirs->first == index ? &theirs->second
                                                                : nullptr;
    for (std::uint64_t w = 0; w < mine.present.size(); ++w) {
      for (std::uint64_t bits = mine.present[w]; bits != 0; bits &= bits - 1) {
        const std::uint64_t bit = bits & -bits;
        const std::uint64_t offset = w * 64 + std::countr_zero(bits);
        const bool same = match != nullptr && (match->present[w] & bit) != 0 &&
                          match->stamps[offset] == mine.stamps[offset];
        if (!same) ++differing;
      }
    }
  }
  return differing;
}

}  // namespace here::hv
