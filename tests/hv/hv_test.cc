// Tests for the hypervisor-neutral substrate: guest memory + dirty logs,
// PML rings, VM lifecycle and the base hypervisor execution loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/xxh64.h"
#include "hv/disk.h"
#include "hv/dirty_logs.h"
#include "hv/guest_memory.h"
#include "hv/pml_ring.h"
#include "hv/vm.h"
#include "replication/durable_store.h"
#include "sim/rng.h"
#include "tests/resident_memory.h"
#include "xensim/xen_hypervisor.h"

namespace here::hv {
namespace {

// --- GuestMemory -------------------------------------------------------------------

TEST(GuestMemory, ReadWriteRoundTrip) {
  GuestMemory mem(16, 2);
  mem.write_u64(0, 3, 128, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(mem.read_u64(3, 128), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(mem.read_u64(3, 136), 0u);  // zero-initialized
  EXPECT_EQ(mem.store_count(), 1u);
}

TEST(GuestMemory, BoundsChecking) {
  GuestMemory mem(4, 1);
  EXPECT_THROW(mem.write_u64(0, 4, 0, 1), std::out_of_range);
  EXPECT_THROW(mem.write_u64(0, 0, 4090, 1), std::out_of_range);  // straddles
  EXPECT_THROW((void)mem.read_u64(4, 0), std::out_of_range);
  EXPECT_THROW((void)mem.page(4), std::out_of_range);
  EXPECT_THROW(GuestMemory(0, 1), std::invalid_argument);
  EXPECT_THROW(GuestMemory(1, 0), std::invalid_argument);
}

TEST(GuestMemory, DigestReflectsContent) {
  GuestMemory a(8, 1), b(8, 1);
  EXPECT_EQ(a.full_digest(), b.full_digest());
  a.write_u64(0, 2, 0, 77);
  EXPECT_NE(a.full_digest(), b.full_digest());
  EXPECT_NE(a.page_digest(2), b.page_digest(2));
  EXPECT_EQ(a.page_digest(3), b.page_digest(3));
  b.install_page(2, a.page(2));
  EXPECT_EQ(a.full_digest(), b.full_digest());
}

TEST(GuestMemory, ShadowLogMarksWrites) {
  GuestMemory mem(32, 2);
  common::DirtyBitmap bitmap(32);
  mem.enable_shadow_log(&bitmap);
  mem.write_u64(1, 7, 0, 1);
  EXPECT_TRUE(bitmap.test(7));
  mem.disable_shadow_log();
  mem.write_u64(1, 9, 0, 1);
  EXPECT_FALSE(bitmap.test(9));
}

TEST(GuestMemory, InstallPageBypassesDirtyTracking) {
  GuestMemory mem(8, 1);
  common::DirtyBitmap bitmap(8);
  mem.enable_shadow_log(&bitmap);
  std::vector<std::uint8_t> page(common::kPageSize, 0xab);
  mem.install_page(5, page);
  EXPECT_FALSE(bitmap.test(5));
  EXPECT_EQ(mem.page(5)[100], 0xab);
}

// A 256 MiB image backs only the pages written into it: 64 one-word stores
// and 10,000 zero-page installs stay far below one percent of the image.
TEST(GuestMemory, UntouchedPagesAreNotResident) {
  if (const std::string why = test::residency_unmeasurable(); !why.empty()) {
    GTEST_SKIP() << why;
  }
  constexpr std::uint64_t kPages = (256ULL << 20) / common::kPageSize;
  constexpr std::uint64_t kStride = kPages / 64;
  const std::uint64_t before = test::rss_anon_bytes().value();
  GuestMemory mem(kPages, 1);
  for (std::uint64_t i = 0; i < 64; ++i) {
    mem.write_u64(0, i * kStride, 8 * i, i + 1);
  }
  const std::vector<std::uint8_t> zero(common::kPageSize, 0);
  std::uint64_t installed = 0;
  for (common::Gfn g = 1; installed < 10000; ++g) {
    if (g % kStride == 0) continue;  // keep the written pages
    mem.install_page(g, zero);
    ++installed;
  }
  EXPECT_LT(test::rss_anon_bytes().value() - before, 8ULL << 20);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(mem.read_u64(i * kStride, 8 * i), i + 1) << i;
  }
  EXPECT_TRUE(is_zero_page(mem.page(1)));
}

TEST(GuestMemory, InstallZeroOverNonZeroWritesZeros) {
  GuestMemory mem(4, 1);
  mem.install_page(2, std::vector<std::uint8_t>(common::kPageSize, 0x5a));
  mem.install_page(2, std::vector<std::uint8_t>(common::kPageSize, 0));
  const auto page = mem.page(2);
  EXPECT_TRUE(std::all_of(page.begin(), page.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST(GuestMemory, InstallZeroOverZeroStaysZero) {
  GuestMemory mem(4, 1);
  mem.install_page(1, std::vector<std::uint8_t>(common::kPageSize, 0));
  const auto page = mem.page(1);
  EXPECT_TRUE(std::all_of(page.begin(), page.end(),
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_EQ(mem.page_digest(1), kZeroPageDigest);
}

// --- Backed flag ----------------------------------------------------------------

TEST(GuestMemory, BackedFlagFollowsStoresAndNonZeroInstalls) {
  GuestMemory mem(8, 1);
  for (common::Gfn g = 0; g < 8; ++g) EXPECT_FALSE(mem.backed(g)) << g;
  mem.write_u64(0, 1, 0, 0);  // a store backs the page, whatever it stores
  mem.install_page(2, std::vector<std::uint8_t>(common::kPageSize, 0));
  mem.install_page(3, std::vector<std::uint8_t>(common::kPageSize, 0x11));
  (void)mem.page_mut(4);
  (void)mem.page(5);
  EXPECT_TRUE(mem.backed(1));
  EXPECT_FALSE(mem.backed(2));
  EXPECT_TRUE(mem.backed(3));
  EXPECT_TRUE(mem.backed(4));
  EXPECT_FALSE(mem.backed(5));
  // Nothing clears the flag; the zeroed page still digests as zero.
  mem.install_page(3, std::vector<std::uint8_t>(common::kPageSize, 0));
  EXPECT_TRUE(mem.backed(3));
  EXPECT_EQ(mem.page_digest(3), kZeroPageDigest);
  EXPECT_THROW((void)mem.backed(8), std::out_of_range);
  EXPECT_THROW((void)mem.page_digest(8), std::out_of_range);
}

TEST(GuestMemory, AnyBackedAnswersARangeFromTheFlags) {
  GuestMemory mem(100, 1);
  EXPECT_FALSE(mem.any_backed(0, 100));
  (void)mem.page_mut(70);  // backed, though it still holds zeros
  EXPECT_TRUE(mem.any_backed(0, 100));
  EXPECT_TRUE(mem.any_backed(70, 1));
  EXPECT_TRUE(mem.any_backed(64, 36));
  EXPECT_FALSE(mem.any_backed(0, 70));
  EXPECT_FALSE(mem.any_backed(71, 29));
  EXPECT_FALSE(mem.any_backed(100, 0));  // an empty range holds nothing
  EXPECT_THROW((void)mem.any_backed(90, 11), std::out_of_range);
  EXPECT_THROW((void)mem.any_backed(100, 1), std::out_of_range);
}

TEST(GuestMemory, CopyPageCopiesContentAndBacking) {
  GuestMemory src(4, 1), dst(4, 1);
  src.write_u64(0, 1, 64, 0x1234);
  dst.install_page(2, std::vector<std::uint8_t>(common::kPageSize, 0x77));
  for (common::Gfn g = 0; g < 4; ++g) dst.copy_page(g, src);
  EXPECT_FALSE(dst.backed(0));  // both ends untouched: nothing happens
  EXPECT_TRUE(dst.backed(1));
  EXPECT_TRUE(dst.backed(2));   // zeroed from an unbacked source
  EXPECT_FALSE(dst.backed(3));
  EXPECT_TRUE(std::ranges::equal(dst.page(1), src.page(1)));
  EXPECT_TRUE(is_zero_page(dst.page(2)));
  EXPECT_EQ(dst.full_digest(), src.full_digest());
  // A backed source holding zeros leaves an unbacked destination unbacked.
  src.install_page(1, std::vector<std::uint8_t>(common::kPageSize, 0));
  GuestMemory fresh(4, 1);
  fresh.copy_page(1, src);
  EXPECT_FALSE(fresh.backed(1));
  GuestMemory small(2, 1);
  EXPECT_THROW(small.copy_page(3, src), std::out_of_range);
  EXPECT_THROW(src.copy_page(3, small), std::out_of_range);
}

// A page written and then zeroed stays backed but holds no data, so the
// snapshot, which stores only non-zero pages, leaves it out.
TEST(GuestMemory, ZeroedBackedPageStaysOutOfSnapshot) {
  GuestMemory mem(4, 1);
  mem.write_u64(0, 2, 0, 9);
  mem.write_u64(0, 2, 0, 0);
  mem.write_u64(0, 3, 8, 5);
  ASSERT_TRUE(mem.backed(2));
  const auto snap = rep::decode_snapshot(
      rep::encode_snapshot(1, mem, VirtualDisk(64)));
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ((*snap).pages.size(), 1u);
  EXPECT_EQ((*snap).pages[0].first, 3u);
}

// Differential oracle for the backed flag: a seeded random mix of guest
// stores, installs (zero and non-zero, over backed and unbacked pages),
// image-to-image copies and host writes through page_mut, after which every
// flag-answered digest must equal XXH64 of the bytes, every page holding a
// non-zero byte must be backed, and the snapshot must hold exactly the pages
// a full scan finds non-zero.
TEST(GuestMemory, BackedFlagAgreesWithBytesUnderRandomOperations) {
  constexpr std::uint64_t kPages = 24;
  GuestMemory a(kPages, 2), b(kPages, 1);
  GuestMemory* images[] = {&a, &b};
  const VirtualDisk disk(64);
  sim::Rng rng(2606);
  std::vector<std::uint8_t> data(common::kPageSize);
  const auto check = [&](int step) {
    for (const GuestMemory* m : images) {
      for (common::Gfn g = 0; g < kPages; ++g) {
        ASSERT_EQ(m->page_digest(g), common::xxh64(m->page(g)))
            << "step " << step << " gfn " << g;
        if (!is_zero_page(m->page(g))) {
          ASSERT_TRUE(m->backed(g)) << "step " << step << " gfn " << g;
        }
      }
    }
    std::vector<std::pair<common::Gfn, std::vector<std::uint8_t>>> scanned;
    for (common::Gfn g = 0; g < kPages; ++g) {
      if (!is_zero_page(a.page(g))) {
        scanned.emplace_back(g, std::vector<std::uint8_t>(a.page(g).begin(),
                                                          a.page(g).end()));
      }
    }
    const auto snap =
        rep::decode_snapshot(rep::encode_snapshot(step, a, disk));
    ASSERT_TRUE(snap.ok()) << "step " << step;
    ASSERT_EQ((*snap).pages, scanned) << "step " << step;
  };
  for (int step = 0; step < 600; ++step) {
    GuestMemory& m = *images[rng.uniform(2)];
    const common::Gfn g = rng.uniform(kPages);
    switch (rng.uniform(5)) {
      case 0:  // a guest store, zero one time in three
        m.write_u64(0, g, 8 * rng.uniform(common::kPageSize / 8),
                    rng.uniform(3) == 0 ? 0 : rng.next_u64());
        break;
      case 1:  // install of an all-zero page
        std::ranges::fill(data, 0);
        m.install_page(g, data);
        break;
      case 2: {  // install of a page with a few non-zero bytes
        std::ranges::fill(data, 0);
        for (std::uint64_t i = 1 + rng.uniform(3); i > 0; --i) {
          data[rng.uniform(common::kPageSize)] =
              static_cast<std::uint8_t>(1 + rng.uniform(255));
        }
        m.install_page(g, data);
        break;
      }
      case 3:  // copy the same page from the other image
        m.copy_page(g, &m == &a ? b : a);
        break;
      default:  // a host write through page_mut, zero one time in four
        m.page_mut(g)[rng.uniform(common::kPageSize)] =
            static_cast<std::uint8_t>(rng.uniform(4) == 0 ? 0
                                                          : rng.next_u64());
        break;
    }
    check(step);
    if (HasFatalFailure()) return;
  }
}

// Over a zero page, a page with one non-zero byte at any offset is copied
// byte for byte; zeroing it again restores the zero page.
TEST(GuestMemory, InstallCopiesAPageWithOneNonZeroByteAtAnyOffset) {
  GuestMemory mem(2, 1);
  std::vector<std::uint8_t> data(common::kPageSize, 0);
  const std::vector<std::uint8_t> zero(common::kPageSize, 0);
  for (std::size_t offset = 0; offset < common::kPageSize; ++offset) {
    data[offset] = static_cast<std::uint8_t>(1 + offset % 255);
    mem.install_page(1, data);
    ASSERT_TRUE(std::ranges::equal(mem.page(1), data)) << "offset " << offset;
    data[offset] = 0;
    mem.install_page(1, zero);
    ASSERT_TRUE(std::ranges::equal(mem.page(1), zero)) << "offset " << offset;
  }
}

TEST(GuestMemory, PmlAttributesWritesToTheRightVcpu) {
  GuestMemory mem(64, 4);
  std::vector<PmlRing> rings(4);
  for (auto& r : rings) r.set_page_count(64);
  mem.enable_pml(rings);
  mem.write_u64(2, 10, 0, 1);
  mem.write_u64(0, 20, 0, 1);
  EXPECT_EQ(rings[2].pending(), 1u);
  EXPECT_EQ(rings[0].pending(), 1u);
  EXPECT_EQ(rings[1].pending(), 0u);
  EXPECT_THROW(mem.enable_pml(std::span<PmlRing>(rings.data(), 2)),
               std::invalid_argument);
}

// --- PmlRing ------------------------------------------------------------------------

TEST(PmlRing, LogsOncePerPageUntilDrained) {
  PmlRing ring;
  ring.set_page_count(100);
  ring.log(5);
  ring.log(5);  // dirty bit already set: suppressed
  ring.log(6);
  EXPECT_EQ(ring.pending(), 2u);

  std::vector<common::Gfn> out;
  EXPECT_EQ(ring.drain(out), 2u);
  EXPECT_EQ(out, (std::vector<common::Gfn>{5, 6}));
  // Draining re-arms logging.
  ring.log(5);
  EXPECT_EQ(ring.pending(), 1u);
}

TEST(PmlRing, DrainMaxRespectsLimit) {
  PmlRing ring;
  ring.set_page_count(100);
  for (common::Gfn g = 0; g < 10; ++g) ring.log(g);
  std::vector<common::Gfn> out;
  EXPECT_EQ(ring.drain(out, 4), 4u);
  EXPECT_EQ(ring.pending(), 6u);
}

TEST(PmlRing, HardwareFlushVmexits) {
  PmlRing ring;  // no page-count filter: every log is an entry
  for (std::size_t i = 0; i < PmlRing::kHardwareEntries * 3; ++i) {
    ring.log(i);
  }
  EXPECT_EQ(ring.flush_vmexits(), 3u);
}

TEST(PmlRing, ClearRearmsFilter) {
  PmlRing ring;
  ring.set_page_count(10);
  ring.log(3);
  ring.clear();
  EXPECT_EQ(ring.pending(), 0u);
  ring.log(3);
  EXPECT_EQ(ring.pending(), 1u);
}

// --- DirtyLogFacility ----------------------------------------------------------------

TEST(DirtyLogFacility, BitmapLifecycle) {
  Vm vm(make_vm_spec("t", 2, 1ULL << 20));
  DirtyLogFacility logs;
  EXPECT_EQ(logs.bitmap(vm), nullptr);
  common::DirtyBitmap& bm = logs.enable_bitmap(vm);
  EXPECT_EQ(&bm, logs.bitmap(vm));
  EXPECT_TRUE(vm.memory().shadow_log_enabled());
  vm.memory().write_u64(0, 1, 0, 1);
  EXPECT_TRUE(bm.test(1));
  logs.disable_bitmap(vm);
  EXPECT_FALSE(vm.memory().shadow_log_enabled());
  // Scratch matches geometry.
  EXPECT_EQ(logs.scratch_bitmap(vm).size_pages(), vm.memory().pages());
}

// --- Vm ---------------------------------------------------------------------------

TEST(Vm, InitialStatePerVcpu) {
  Vm vm(make_vm_spec("t", 4, 1ULL << 20));
  EXPECT_EQ(vm.cpus().size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(vm.cpus()[i].lapic.id, i);
  }
  EXPECT_EQ(vm.state(), VmState::kCreated);
}

class CountingProgram : public GuestProgram {
 public:
  void tick(GuestEnv&, sim::Duration dt) override { total += dt; }
  void on_packet(GuestEnv&, const net::Packet&) override { ++packets; }
  [[nodiscard]] std::unique_ptr<GuestProgram> clone() const override {
    return std::make_unique<CountingProgram>(*this);
  }
  sim::Duration total{};
  int packets = 0;
};

TEST(Vm, RunSliceAdvancesProgramAndArchState) {
  Vm vm(make_vm_spec("t", 2, 1ULL << 20));
  auto prog = std::make_unique<CountingProgram>();
  auto* raw = prog.get();
  vm.attach_program(std::move(prog));
  vm.set_state(VmState::kRunning);
  sim::Rng rng(1);
  const std::uint64_t tsc_before = vm.cpus()[0].tsc;
  vm.run_slice(sim::TimePoint{}, sim::from_millis(10), rng);
  EXPECT_EQ(raw->total, sim::from_millis(10));
  EXPECT_GT(vm.cpus()[0].tsc, tsc_before);
  EXPECT_EQ(vm.guest_time(), sim::from_millis(10));
}

TEST(Vm, PausedPacketsQueueUntilResume) {
  Vm vm(make_vm_spec("t", 1, 1ULL << 20));
  auto prog = std::make_unique<CountingProgram>();
  auto* raw = prog.get();
  vm.attach_program(std::move(prog));
  sim::Rng rng(1);
  vm.set_state(VmState::kRunning);
  vm.run_slice(sim::TimePoint{}, sim::from_millis(1), rng);  // starts program

  vm.set_state(VmState::kPaused);
  vm.deliver_packet(sim::TimePoint{}, rng, net::Packet{});
  EXPECT_EQ(raw->packets, 0);  // held in the rx ring

  vm.set_state(VmState::kRunning);
  vm.run_slice(sim::TimePoint{}, sim::from_millis(1), rng);
  EXPECT_EQ(raw->packets, 1);  // flushed on resume
}

TEST(Vm, CrashedVmIgnoresPackets) {
  Vm vm(make_vm_spec("t", 1, 1ULL << 20));
  vm.panic();
  EXPECT_EQ(vm.state(), VmState::kCrashed);
  sim::Rng rng(1);
  vm.deliver_packet(sim::TimePoint{}, rng, net::Packet{});  // no crash
}

TEST(Vm, ClearDevicesRemovesAll) {
  sim::Simulation s;
  xen::XenHypervisor hv(s, sim::Rng(1));
  Vm& vm = hv.create_vm(make_vm_spec("t", 1, 1ULL << 20));
  EXPECT_EQ(vm.devices().size(), 3u);
  EXPECT_NE(vm.net_device(), nullptr);
  EXPECT_NE(vm.block_device(), nullptr);
  EXPECT_EQ(vm.clear_devices(), 3u);
  EXPECT_EQ(vm.net_device(), nullptr);
}

// --- Hypervisor base behaviour --------------------------------------------------------

TEST(Hypervisor, LifecycleAndTicks) {
  sim::Simulation s;
  xen::XenHypervisor hv(s, sim::Rng(1));
  Vm& vm = hv.create_vm(make_vm_spec("t", 2, 1ULL << 20));
  auto prog = std::make_unique<CountingProgram>();
  auto* raw = prog.get();
  vm.attach_program(std::move(prog));

  hv.start(vm);
  EXPECT_EQ(vm.state(), VmState::kRunning);
  s.run_for(sim::from_millis(100));
  EXPECT_GE(raw->total, sim::from_millis(80));

  hv.pause(vm);
  const sim::Duration at_pause = raw->total;
  s.run_for(sim::from_millis(100));
  EXPECT_EQ(raw->total, at_pause);  // no progress while paused

  hv.resume(vm);
  s.run_for(sim::from_millis(100));
  EXPECT_GT(raw->total, at_pause);
}

TEST(Hypervisor, StartFromWrongStateThrows) {
  sim::Simulation s;
  xen::XenHypervisor hv(s, sim::Rng(1));
  Vm& vm = hv.create_vm(make_vm_spec("t", 1, 1ULL << 20));
  hv.start(vm);
  EXPECT_THROW(hv.start(vm), std::logic_error);
}

TEST(Hypervisor, StarvationSlowsGuest) {
  sim::Simulation s;
  xen::XenHypervisor hv(s, sim::Rng(1));
  Vm& vm = hv.create_vm(make_vm_spec("t", 1, 1ULL << 20));
  auto prog = std::make_unique<CountingProgram>();
  auto* raw = prog.get();
  vm.attach_program(std::move(prog));
  hv.start(vm);

  hv.inject_fault(FaultKind::kStarvation);
  EXPECT_TRUE(hv.operational());  // degraded but alive
  s.run_for(sim::from_seconds(1));
  // Guest receives ~1/10 of its CPU time.
  EXPECT_LT(raw->total, sim::from_millis(150));
  EXPECT_GT(raw->total, sim::from_millis(50));
}

TEST(Hypervisor, CrashFreezesGuestsAndBlocksOperations) {
  sim::Simulation s;
  xen::XenHypervisor hv(s, sim::Rng(1));
  Vm& vm = hv.create_vm(make_vm_spec("t", 1, 1ULL << 20));
  auto prog = std::make_unique<CountingProgram>();
  auto* raw = prog.get();
  vm.attach_program(std::move(prog));
  hv.start(vm);
  s.run_for(sim::from_millis(50));

  hv.inject_fault(FaultKind::kCrash);
  EXPECT_FALSE(hv.operational());
  const sim::Duration at_crash = raw->total;
  s.run_for(sim::from_seconds(1));
  EXPECT_EQ(raw->total, at_crash);
  EXPECT_THROW(hv.create_vm(make_vm_spec("t2", 1, 1ULL << 20)),
               std::runtime_error);
}

TEST(Hypervisor, DestroyVmCancelsTicks) {
  sim::Simulation s;
  xen::XenHypervisor hv(s, sim::Rng(1));
  Vm& vm = hv.create_vm(make_vm_spec("t", 1, 1ULL << 20));
  hv.start(vm);
  hv.destroy_vm(vm);
  EXPECT_TRUE(hv.vms().empty());
  s.run();  // no dangling tick events firing into freed memory
}

}  // namespace
}  // namespace here::hv
