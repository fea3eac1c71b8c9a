// Data-plane microbenchmarks (google-benchmark): the real-work primitives
// under the simulation's virtual-time shell — page copies, CRC32C, page
// digests, the zero-page test, the XOR-delta encoder, replica commits (raw
// and delta), dirty-bitmap scans, PML ring
// operations and the cross-hypervisor state translation. Anything that runs
// on worker threads or is compared against them is timed in real time, not
// the calling thread's CPU time.
#include <benchmark/benchmark.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/crc32c.h"
#include "common/dirty_bitmap.h"
#include "common/thread_pool.h"
#include "hv/guest_memory.h"
#include "hv/pml_ring.h"
#include "kvmsim/kvm_state.h"
#include "replication/durable_store.h"
#include "replication/encoder.h"
#include "replication/staging.h"
#include "replication/wire.h"
#include "sim/rng.h"
#include "workload/zipfian.h"
#include "xensim/xen_state.h"
#include "xensim/grant_table.h"
#include "xensim/xenstore.h"
#include "hv/disk.h"
#include "xlate/translator.h"

namespace {

using namespace here;

void BM_PageCopy(benchmark::State& state) {
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  hv::GuestMemory src(pages, 1);
  hv::GuestMemory dst(pages, 1);
  for (common::Gfn g = 0; g < pages; ++g) src.write_u64(0, g, 0, g * 7919);
  for (auto _ : state) {
    for (common::Gfn g = 0; g < pages; ++g) dst.install_page(g, src.page(g));
    benchmark::DoNotOptimize(dst.page(0).data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages * common::kPageSize));
}
BENCHMARK(BM_PageCopy)->Arg(1024)->Arg(8192);

void BM_DirtyBitmapScan(benchmark::State& state) {
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  common::DirtyBitmap bitmap(pages);
  sim::Rng rng(7);
  for (std::uint64_t i = 0; i < pages / 10; ++i) bitmap.set(rng.uniform(pages));
  std::vector<common::Gfn> out;
  for (auto _ : state) {
    out.clear();
    bitmap.collect(0, pages, out, /*clear_found=*/false);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages));
}
BENCHMARK(BM_DirtyBitmapScan)->Arg(1 << 16)->Arg(1 << 20);

void BM_PmlLogDrain(benchmark::State& state) {
  hv::PmlRing ring;
  ring.set_page_count(1 << 16);
  sim::Rng rng(11);
  std::vector<common::Gfn> out;
  for (auto _ : state) {
    for (int i = 0; i < 4096; ++i) ring.log(rng.uniform(1 << 16));
    out.clear();
    ring.drain(out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_PmlLogDrain);

void BM_ParallelPageCopy(benchmark::State& state) {
  const std::uint64_t pages = 8192;
  const auto threads = static_cast<std::size_t>(state.range(0));
  hv::GuestMemory src(pages, 1);
  hv::GuestMemory dst(pages, 1);
  common::ThreadPool pool(threads);
  for (auto _ : state) {
    pool.parallel_for(pages, [&](std::size_t g) {
      dst.install_page(g, src.page(g));
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages * common::kPageSize));
}
BENCHMARK(BM_ParallelPageCopy)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// CRC32C over one buffer of Arg 1 bytes: a 4 KiB page, a 2 MiB region
// frame, and 64 MiB, past the caches like a durable snapshot record. Arg 0
// = 1 is the dispatched kernel (three-way SSE4.2 where the CPU has it),
// 0 the portable table loop.
void BM_Crc32c(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  std::vector<std::uint8_t> buffer(static_cast<std::size_t>(state.range(1)));
  sim::Rng rng(13);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    const std::uint32_t crc =
        dispatched ? common::crc32c_update(common::crc32c_init(), buffer)
                   : common::detail::crc32c_update_table(
                         common::crc32c_init(), buffer);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buffer.size()));
  state.SetLabel(dispatched ? common::detail::crc32c_kernel_name() : "table");
}
BENCHMARK(BM_Crc32c)
    ->Args({1, 4 << 10})
    ->Args({1, 2 << 20})
    ->Args({1, 64 << 20})
    ->Args({0, 2 << 20})
    ->UseRealTime();

// The XXH64 page digest (hv::page_digest) behind region references, the
// encoder references and the scrub audit.
void BM_PageDigest(benchmark::State& state) {
  const std::uint64_t pages = 1024;
  hv::GuestMemory mem(pages, 1);
  for (common::Gfn g = 0; g < pages; ++g) mem.write_u64(0, g, 0, g * 7919);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (common::Gfn g = 0; g < pages; ++g) acc ^= mem.page_digest(g);
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages * common::kPageSize));
}
BENCHMARK(BM_PageDigest)->UseRealTime();

// The digest of a page nothing wrote, which GuestMemory answers from the
// page's backed flag without reading it: the scrub audit's and
// full_digest's case over untouched memory.
void BM_PageDigestZero(benchmark::State& state) {
  const std::uint64_t pages = 1024;
  const hv::GuestMemory mem(pages, 1);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (common::Gfn g = 0; g < pages; ++g) acc ^= mem.page_digest(g);
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages * common::kPageSize));
}
BENCHMARK(BM_PageDigestZero)->UseRealTime();

// The digest of a page that was written and then zeroed: backed, so it is
// hashed (to the same kZeroPageDigest). The flag is never cleared, so this
// is the cost BM_PageDigestZero avoids.
void BM_PageDigestBackedZero(benchmark::State& state) {
  const std::uint64_t pages = 1024;
  hv::GuestMemory mem(pages, 1);
  for (common::Gfn g = 0; g < pages; ++g) {
    mem.write_u64(0, g, 0, 1);
    mem.write_u64(0, g, 0, 0);
  }
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (common::Gfn g = 0; g < pages; ++g) acc ^= mem.page_digest(g);
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages * common::kPageSize));
}
BENCHMARK(BM_PageDigestBackedZero)->UseRealTime();

// Installing an all-zero page over a page nothing wrote: the unbacked
// destination costs one scan of the incoming page and writes nothing. The
// case of kZero decodes over untouched replica memory.
void BM_InstallZeroPage(benchmark::State& state) {
  const std::uint64_t pages = 1024;
  hv::GuestMemory mem(pages, 1);
  const std::vector<std::uint8_t> zero(common::kPageSize, 0);
  for (auto _ : state) {
    for (common::Gfn g = 0; g < pages; ++g) mem.install_page(g, zero);
    benchmark::DoNotOptimize(mem.page(0).data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages * common::kPageSize));
}
BENCHMARK(BM_InstallZeroPage)->UseRealTime();

// Copying an untouched image into an untouched image with copy_page: both
// ends unbacked, so nothing is read or written. The case of seeding and
// activation over untouched memory.
void BM_CopyPageUntouched(benchmark::State& state) {
  const std::uint64_t pages = 1024;
  const hv::GuestMemory src(pages, 1);
  hv::GuestMemory dst(pages, 1);
  for (auto _ : state) {
    for (common::Gfn g = 0; g < pages; ++g) dst.copy_page(g, src);
    benchmark::DoNotOptimize(dst.page(0).data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages * common::kPageSize));
}
BENCHMARK(BM_CopyPageUntouched)->UseRealTime();

// The zero-page test behind install_page's rule, and behind zero elision
// and the durable snapshot's filter on backed pages, over all-zero pages:
// the case that reads every byte.
void BM_ZeroPageScan(benchmark::State& state) {
  const std::uint64_t pages = 1024;
  const hv::GuestMemory mem(pages, 1);
  for (auto _ : state) {
    std::uint64_t zero = 0;
    for (common::Gfn g = 0; g < pages; ++g) {
      zero += hv::is_zero_page(mem.page(g)) ? 1 : 0;
    }
    benchmark::DoNotOptimize(zero);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pages * common::kPageSize));
}
BENCHMARK(BM_ZeroPageScan)->UseRealTime();

// A verified replica commit of one dirty page in each of 19 regions:
// receive (CRC verify + buffer) and commit (apply + region references).
void BM_StagingCommit(benchmark::State& state) {
  constexpr std::uint32_t kRegions = 19;
  hv::VmSpec spec;
  spec.name = "bench";
  spec.vcpus = 1;
  spec.pages = std::uint64_t{kRegions} * common::kPagesPerRegion;
  rep::ReplicaStaging staging(spec, 1);
  std::vector<rep::wire::RegionFrame> frames;
  for (std::uint32_t r = 0; r < kRegions; ++r) {
    rep::wire::RegionFrame f;
    f.epoch = 1;
    f.seq = r;
    f.region = r;
    f.gfns = {std::uint64_t{r} * common::kPagesPerRegion + 7};
    f.bytes.assign(common::kPageSize, static_cast<std::uint8_t>(r + 1));
    rep::wire::seal_frame(f);
    frames.push_back(std::move(f));
  }
  rep::wire::EpochHeader header{1, frames.size(), rep::wire::digest_init()};
  for (const auto& f : frames) {
    header.digest = rep::wire::digest_fold(header.digest, f);
  }
  const auto commit_epoch = [&] {
    staging.begin_epoch(1);
    staging.expect_epoch(header);
    for (const auto& f : frames) {
      benchmark::DoNotOptimize(staging.receive_frame(f));
    }
    const Expected<std::uint64_t> applied = staging.commit();
    if (!applied.ok()) throw std::runtime_error("commit refused");
  };
  commit_epoch();  // the first commit baselines every region
  for (auto _ : state) commit_epoch();
  state.SetItemsProcessed(state.iterations() * kRegions);
}
BENCHMARK(BM_StagingCommit)->UseRealTime();

// A random page with `words` of its 512 u64 words rewritten at random
// offsets, as key-value stores dirty pages.
std::vector<std::uint8_t> rewritten_words(const std::vector<std::uint8_t>& base,
                                          std::int64_t words, sim::Rng& rng) {
  std::vector<std::uint8_t> page = base;
  for (std::int64_t i = 0; i < words; ++i) {
    const std::uint64_t at = 8 * rng.uniform(common::kPageSize / 8);
    const std::uint64_t v = rng.next_u64();
    std::memcpy(page.data() + at, &v, 8);
  }
  return page;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, sim::Rng& rng) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

// The XOR+RLE delta of 64 pages against their bases: Arg = u64 words
// rewritten per page, 4 (sparse: a few records) or 128 (dense: a quarter of
// the page, records every few dozen bytes).
void BM_XorRleEncode(benchmark::State& state) {
  constexpr std::size_t kPages = 64;
  sim::Rng rng(29);
  std::vector<std::vector<std::uint8_t>> bases;
  std::vector<std::vector<std::uint8_t>> pages;
  for (std::size_t i = 0; i < kPages; ++i) {
    bases.push_back(random_bytes(common::kPageSize, rng));
    pages.push_back(rewritten_words(bases.back(), state.range(0), rng));
  }
  std::uint64_t out_bytes = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kPages; ++i) {
      const std::vector<std::uint8_t> delta =
          rep::xor_rle_encode(pages[i], bases[i]);
      out_bytes += delta.size();
      benchmark::DoNotOptimize(delta.data());
    }
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kPages * common::kPageSize));
  state.counters["delta_bytes_per_page"] = benchmark::Counter(
      static_cast<double>(out_bytes) /
      static_cast<double>(state.iterations() * kPages));
}
BENCHMARK(BM_XorRleEncode)->Arg(4)->Arg(128)->UseRealTime();

// A verified replica commit of a version-1 epoch of delta pages: 64 pages
// in each of 8 regions, 4 u64 words rewritten per page. Verify hashes each
// base, apply XORs the delta in place and hashes the result. Epochs
// alternate between two images: an XOR delta is its own inverse, so the
// same payloads take the image there and back, each under its own base
// digest.
void BM_StagingCommitDelta(benchmark::State& state) {
  constexpr std::uint32_t kRegions = 8;
  constexpr std::uint32_t kPagesPerFrame = 64;
  hv::VmSpec spec;
  spec.name = "bench";
  spec.vcpus = 1;
  spec.pages = std::uint64_t{kRegions} * common::kPagesPerRegion;
  rep::ReplicaStaging staging(spec, 1);
  sim::Rng rng(31);
  std::vector<rep::wire::RegionFrame> there;
  std::vector<rep::wire::RegionFrame> back;
  for (std::uint32_t r = 0; r < kRegions; ++r) {
    rep::wire::RegionFrame f;
    f.seq = r;
    f.region = r;
    f.version = rep::wire::kWireVersionEncoded;
    rep::wire::RegionFrame g = f;
    for (std::uint32_t i = 0; i < kPagesPerFrame; ++i) {
      const common::Gfn gfn =
          std::uint64_t{r} * common::kPagesPerRegion + 3 * i;
      const std::vector<std::uint8_t> a = random_bytes(common::kPageSize, rng);
      const std::vector<std::uint8_t> b = rewritten_words(a, 4, rng);
      staging.install_seed_page(gfn, a);
      const std::vector<std::uint8_t> delta = rep::xor_rle_encode(b, a);
      const auto length = static_cast<std::uint32_t>(delta.size());
      f.gfns.push_back(gfn);
      g.gfns.push_back(gfn);
      f.pages.push_back(
          {rep::wire::PageEncoding::kDelta, length, hv::page_digest(a)});
      g.pages.push_back(
          {rep::wire::PageEncoding::kDelta, length, hv::page_digest(b)});
      f.bytes.insert(f.bytes.end(), delta.begin(), delta.end());
      g.bytes.insert(g.bytes.end(), delta.begin(), delta.end());
    }
    there.push_back(std::move(f));
    back.push_back(std::move(g));
  }
  staging.begin_epoch(0);
  if (!staging.commit().ok()) throw std::runtime_error("seed commit refused");
  std::uint64_t epoch = 0;
  const auto commit_epoch = [&](std::vector<rep::wire::RegionFrame>& frames) {
    ++epoch;
    rep::wire::EpochHeader header{epoch, frames.size(),
                                  rep::wire::digest_init(),
                                  rep::wire::kWireVersionEncoded};
    for (auto& f : frames) {
      f.epoch = epoch;
      rep::wire::seal_frame(f);
      header.digest = rep::wire::digest_fold(header.digest, f);
    }
    staging.begin_epoch(epoch);
    staging.expect_epoch(header);
    for (const auto& f : frames) {
      benchmark::DoNotOptimize(staging.receive_frame(f));
    }
    const Expected<std::uint64_t> applied = staging.commit();
    if (!applied.ok()) throw std::runtime_error("delta commit refused");
  };
  for (auto _ : state) commit_epoch(epoch % 2 == 0 ? there : back);
  state.SetItemsProcessed(state.iterations() * kRegions * kPagesPerFrame);
}
BENCHMARK(BM_StagingCommitDelta)->UseRealTime();

void BM_StateTranslationXenToKvm(benchmark::State& state) {
  hv::GuestCpuContext cpu;
  sim::Rng rng(3);
  for (auto& g : cpu.gpr) g = rng.next_u64();
  cpu.msrs = {{hv::kMsrLstar, rng.next_u64()}, {hv::kMsrStar, rng.next_u64()}};
  xen::XenMachineState xen_state;
  for (int i = 0; i < 4; ++i) {
    xen_state.vcpus.push_back(xen::to_xen_context(cpu, 123456789));
  }
  xen_state.platform.host_tsc_at_save = 123456789;
  const hv::CpuidPolicy kvm_policy;  // empty host policy: maximal masking
  for (auto _ : state) {
    auto kvm_state = xlate::xen_to_kvm(xen_state, kvm_policy);
    benchmark::DoNotOptimize(kvm_state.vcpus.size());
  }
}
BENCHMARK(BM_StateTranslationXenToKvm);

void BM_ZipfianNext(benchmark::State& state) {
  wl::ScrambledZipfian zipf(1'000'000);
  sim::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.next(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_XenstoreWriteRead(benchmark::State& state) {
  xen::XenStore store;
  int i = 0;
  for (auto _ : state) {
    const std::string path = "/local/domain/1/k" + std::to_string(i++ % 512);
    store.write(path, "v");
    benchmark::DoNotOptimize(store.read(path));
  }
}
BENCHMARK(BM_XenstoreWriteRead);

void BM_XenbusHandshake(benchmark::State& state) {
  std::uint32_t domid = 1;
  for (auto _ : state) {
    xen::XenStore store;
    benchmark::DoNotOptimize(
        xen::run_device_handshake(store, domid++, "vif", 0));
  }
}
BENCHMARK(BM_XenbusHandshake);

void BM_GrantMapUnmap(benchmark::State& state) {
  xen::GrantTable table;
  const xen::GrantRef ref = table.grant_access(0, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.map_grant(ref, 0));
    table.unmap_grant(ref);
  }
}
BENCHMARK(BM_GrantMapUnmap);

void BM_DiskApply(benchmark::State& state) {
  hv::VirtualDisk disk;
  sim::Rng rng(17);
  for (auto _ : state) {
    disk.apply({rng.uniform(1 << 20), 8, rng.next_u64()});
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_DiskApply);

// One durable snapshot rotation (DurableStore::write_snapshot) of a 32 MiB
// image with every page non-zero plus a dense 4 M-sector disk: ~100 MB of
// framed record per iteration. Arg 0 writes each record into a fresh buffer
// and drops the retired one, as a one-off snapshot does; Arg 1 passes the
// retired segment back as the next spare, as ReplicaStaging's rotations do.
void BM_SnapshotWrite(benchmark::State& state) {
  const bool reuse = state.range(0) != 0;
  const std::uint64_t pages = (32ULL << 20) / common::kPageSize;
  hv::GuestMemory mem(pages, 1);
  for (common::Gfn g = 0; g < pages; ++g) mem.write_u64(0, g, 0, g + 1);
  hv::VirtualDisk disk;
  for (std::uint64_t s = 0; s < disk.total_sectors(); s += 8) {
    disk.apply({s, 8, s * 31});
  }
  rep::DurableStore store;
  rep::SnapshotSegment spare;
  for (auto _ : state) {
    if (reuse) {
      spare = store.write_snapshot(1, mem, disk, std::move(spare));
    } else {
      store.write_snapshot(1, mem, disk);
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(store.snapshot_bytes()));
}
BENCHMARK(BM_SnapshotWrite)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
