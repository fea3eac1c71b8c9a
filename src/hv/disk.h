// Host-side virtual disk backend.
//
// Remus-style replication must keep the replica's *disk* consistent with the
// checkpointed memory image: a committed checkpoint that references disk
// blocks the replica does not have is useless. The primary applies guest
// writes to its local disk immediately (local I/O is not delayed by
// replication); the same writes are shipped with the running epoch and
// applied to the replica's disk atomically at commit.
//
// The disk stores one 8-byte stamp per written sector — enough to
// byte-verify replica/primary consistency without gigabytes of backing
// store. Stamps live in fixed chunks of kChunkSectors sectors, each with a
// presence bitmap, kept in an ordered map by chunk index: the disk
// enumerates its stamps in ascending sector order without sorting, and
// nothing is ever sized from total_sectors() (recovery reads that value from
// untrusted bytes). A dense disk costs about 8 B per written sector; a disk
// with one write per chunk costs a whole chunk (~33 KiB) per write, and no
// workload here writes that sparsely.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <vector>

namespace here::hv {

struct DiskWrite {
  std::uint64_t sector = 0;
  std::uint32_t sectors = 1;
  std::uint64_t stamp = 0;  // content fingerprint written to each sector
};

class VirtualDisk {
 public:
  static constexpr std::uint64_t kChunkSectors = 4096;

  explicit VirtualDisk(std::uint64_t total_sectors = 2ULL << 21)  // 2 TiB
      : total_sectors_(total_sectors) {}

  [[nodiscard]] std::uint64_t total_sectors() const { return total_sectors_; }

  // Applies one write (clamps at the end of the disk). Returns false — and
  // changes nothing — while injected write failures are active; callers that
  // mirror writes must not ship a write the local disk rejected.
  bool apply(const DiskWrite& write);

  // Stamp of one sector (0 if never written).
  [[nodiscard]] std::uint64_t read_stamp(std::uint64_t sector) const;

  // Order-independent digest over all written sectors.
  [[nodiscard]] std::uint64_t digest() const;

  [[nodiscard]] std::uint64_t sectors_written() const { return sectors_written_; }
  // Sectors ever written, a stamp of 0 included.
  [[nodiscard]] std::uint64_t distinct_sectors() const { return distinct_; }

  // Calls visit(sector, stamp) for every written sector, ascending by sector.
  // A fully written 64-sector word is visited in a straight loop; other
  // words one set bit at a time.
  template <typename Visit>
  void for_each_stamp(Visit&& visit) const {
    visit_chunks(chunks_.begin(), chunks_.end(), visit);
  }

  // Chunks holding any written sector; for_each_stamp visits them in
  // ascending order, and the range overload below names them by position
  // in that order.
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

  // Written sectors of each chunk (a popcount of its presence bitmap), in
  // for_each_stamp's chunk order. They sum to distinct_sectors(), so their
  // prefix sums place each chunk's stamps in a serialized run.
  [[nodiscard]] std::vector<std::uint64_t> chunk_sector_counts() const;

  // for_each_stamp over the chunks at positions [first, last) only, so
  // disjoint position ranges may be visited from different threads.
  template <typename Visit>
  void for_each_stamp(std::size_t first, std::size_t last, Visit&& visit) const {
    last = std::min(last, chunks_.size());
    if (first >= last) return;
    const auto begin = std::next(chunks_.begin(), static_cast<std::ptrdiff_t>(first));
    visit_chunks(begin, std::next(begin, static_cast<std::ptrdiff_t>(last - first)),
                 visit);
  }

  // This disk's written sectors that `other` never wrote or holds with a
  // different stamp. Sectors only `other` wrote do not count.
  [[nodiscard]] std::uint64_t sectors_differing_in(const VirtualDisk& other) const;

  // --- Durable-store serialization (src/replication/durable_store) ------------

  // Reinstalls one stamp during recovery. Bypasses fault injection and the
  // write counters: recovery reconstructs state, it does not perform I/O.
  // Clamps at the end of the disk like apply().
  void restore_stamp(std::uint64_t sector, std::uint64_t stamp);

  // --- Fault injection (src/faults drives these) ------------------------------

  // Every write fails (media error) while set; failures are counted.
  void set_write_failures(bool fail) { fail_writes_ = fail; }
  [[nodiscard]] bool failing_writes() const { return fail_writes_; }
  [[nodiscard]] std::uint64_t write_errors() const { return write_errors_; }

  // Slows the replication mirror flush by this factor (>= 1). The data path
  // is unaffected — local writes complete immediately as before — but the
  // engine multiplies its per-epoch disk-mirror transfer cost by it.
  void set_slowdown(double factor) { slowdown_ = factor < 1.0 ? 1.0 : factor; }
  [[nodiscard]] double slowdown() const { return slowdown_; }

  // Copies made of a faulted disk (replica seeding) start healthy.
  void clear_faults() {
    fail_writes_ = false;
    slowdown_ = 1.0;
  }

 private:
  struct Chunk {
    std::array<std::uint64_t, kChunkSectors> stamps{};
    std::array<std::uint64_t, kChunkSectors / 64> present{};
  };

  template <typename Iterator, typename Visit>
  static void visit_chunks(Iterator begin, Iterator end, Visit& visit) {
    for (auto it = begin; it != end; ++it) {
      const Chunk& chunk = it->second;
      const std::uint64_t base = it->first * kChunkSectors;
      for (std::uint64_t w = 0; w < chunk.present.size(); ++w) {
        std::uint64_t bits = chunk.present[w];
        if (bits == ~std::uint64_t{0}) {
          for (std::uint64_t offset = w * 64; offset < w * 64 + 64; ++offset) {
            visit(base + offset, chunk.stamps[offset]);
          }
          continue;
        }
        for (; bits != 0; bits &= bits - 1) {
          const std::uint64_t offset = w * 64 + std::countr_zero(bits);
          visit(base + offset, chunk.stamps[offset]);
        }
      }
    }
  }

  // The chunk holding sectors [index * kChunkSectors, +kChunkSectors),
  // created empty if absent.
  Chunk& chunk_for(std::uint64_t index);
  // Stores the stamp of one sector of `chunk` and marks it present.
  void set(Chunk& chunk, std::uint64_t offset, std::uint64_t stamp);

  std::uint64_t total_sectors_;
  std::map<std::uint64_t, Chunk> chunks_;  // by sector / kChunkSectors
  std::uint64_t distinct_ = 0;
  std::uint64_t sectors_written_ = 0;
  std::uint64_t write_errors_ = 0;
  bool fail_writes_ = false;
  double slowdown_ = 1.0;
};

}  // namespace here::hv
