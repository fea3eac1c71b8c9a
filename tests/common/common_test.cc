// Unit and property tests for common utilities: units, FNV-1a, XXH64 and
// the page digest, CRC32C, the concurrent dirty bitmap, and the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include "common/crc32c.h"
#include "common/dirty_bitmap.h"
#include "common/fnv.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "common/xxh64.h"
#include "hv/guest_memory.h"
#include "sim/rng.h"

namespace here::common {
namespace {

// --- Units ------------------------------------------------------------------------

TEST(Units, LiteralsAndConversions) {
  EXPECT_EQ(4_KiB, 4096u);
  EXPECT_EQ(2_MiB, 2097152u);
  EXPECT_EQ(1_GiB, 1073741824u);
  EXPECT_EQ(bytes_to_pages(1), 1u);
  EXPECT_EQ(bytes_to_pages(kPageSize), 1u);
  EXPECT_EQ(bytes_to_pages(kPageSize + 1), 2u);
  EXPECT_EQ(pages_to_bytes(3), 3 * kPageSize);
  EXPECT_EQ(kPagesPerRegion, 512u);  // 2 MiB / 4 KiB
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(3 * 1048576), "3.00 MiB");
  EXPECT_EQ(format_bytes(5368709120ULL), "5.00 GiB");
}

// --- CRC32C -------------------------------------------------------------------------

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

std::uint32_t table_crc(std::span<const std::uint8_t> data) {
  return crc32c_final(detail::crc32c_update_table(crc32c_init(), data));
}

// RFC 3720 appendix B.4 vectors plus the common "123456789" check value,
// through both the dispatched path and the table oracle.
// Standard 64-bit FNV-1a vectors (the reference implementation's test
// suite), through both the byte-span and the string overloads.
TEST(Fnv1a, KnownVectors) {
  EXPECT_EQ(common::fnv1a(std::string_view{}), 0xcbf29ce484222325ULL);
  EXPECT_EQ(common::fnv1a(std::string_view{"a"}), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(common::fnv1a(std::string_view{"foobar"}), 0x85944171f73967e8ULL);
  const std::uint8_t foobar[] = {'f', 'o', 'o', 'b', 'a', 'r'};
  EXPECT_EQ(common::fnv1a(std::span<const std::uint8_t>(foobar)),
            0x85944171f73967e8ULL);
  // Folding is incremental: a split input hashes like the whole.
  EXPECT_EQ(common::fnv1a(std::string_view{"bar"},
                          common::fnv1a(std::string_view{"foo"})),
            0x85944171f73967e8ULL);
}

TEST(Fnv1a, U64FoldIsTheLittleEndianByteFold) {
  const std::uint64_t v = 0x0123456789abcdefULL;
  const std::uint8_t le[] = {0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01};
  for (const std::uint64_t seed :
       {common::kFnvOffset, common::kFnvStreamOffset}) {
    EXPECT_EQ(common::fnv1a_u64(seed, v),
              common::fnv1a(std::span<const std::uint8_t>(le), seed));
  }
  EXPECT_NE(common::kFnvStreamOffset, common::kFnvOffset);
}

std::uint64_t xxh64_text(std::string_view text) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(text.data());
  return xxh64(std::span<const std::uint8_t>(bytes, text.size()));
}

std::vector<std::uint8_t> patterned_page() {
  std::vector<std::uint8_t> page(kPageSize);
  for (std::size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  return page;
}

// Published XXH64 vectors (seed 0). The 39-byte sentence covers the
// four-lane stripe loop and the 8-, 4- and 1-byte tails.
TEST(Xxh64, KnownVectors) {
  EXPECT_EQ(xxh64_text(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(xxh64_text("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(xxh64_text("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(xxh64_text("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ULL);
}

// Two pinned 4 KiB pages: the page digest is XXH64 of the page bytes.
TEST(PageDigest, PinnedPages) {
  const std::vector<std::uint8_t> zero(kPageSize, 0);
  EXPECT_EQ(hv::page_digest(zero), 0xac869b6f32d8bbdbULL);
  EXPECT_EQ(hv::page_digest(patterned_page()), 0xe21174be82dc78d9ULL);
}

TEST(PageDigest, GuestMemoryDigestsThePageBytes) {
  hv::GuestMemory mem(4, 1);
  const std::vector<std::uint8_t> page = patterned_page();
  mem.install_page(2, page);
  mem.write_u64(0, 3, 128, 0x0123456789abcdefULL);
  for (Gfn g = 0; g < mem.pages(); ++g) {
    EXPECT_EQ(mem.page_digest(g), hv::page_digest(mem.page(g))) << g;
  }
  EXPECT_EQ(mem.page_digest(2), 0xe21174be82dc78d9ULL);
}

// The pinned zero-page constant, which GuestMemory returns for a page it
// never backed, is exactly what hashing would return: XXH64 of 4,096 zero
// bytes. A page one byte away from zero at any offset is hashed.
TEST(PageDigest, ZeroPageConstantIsTheXxh64OfZeros) {
  const std::vector<std::uint8_t> zero(kPageSize, 0);
  EXPECT_EQ(common::xxh64(zero), 0xac869b6f32d8bbdbULL);
  EXPECT_EQ(hv::kZeroPageDigest, 0xac869b6f32d8bbdbULL);
}

TEST(PageDigest, EqualsXxh64WithOneNonZeroByteAtEveryOffset) {
  std::vector<std::uint8_t> page(kPageSize, 0);
  for (std::size_t offset = 0; offset < kPageSize; ++offset) {
    page[offset] = 0x01;
    ASSERT_EQ(hv::page_digest(page), common::xxh64(page)) << offset;
    page[offset] = 0;
  }
}

// Any single-bit flip at the page's first and last byte, and the top bit of
// every 64-bit word, changes the digest.
TEST(PageDigest, SingleBitFlipsChangeTheDigest) {
  std::vector<std::uint8_t> page = patterned_page();
  const std::uint64_t base = hv::page_digest(page);
  const auto flips = [&](std::size_t byte, std::uint8_t mask) {
    page[byte] ^= mask;
    const std::uint64_t flipped = hv::page_digest(page);
    page[byte] ^= mask;
    return flipped != base;
  };
  for (int bit = 0; bit < 8; ++bit) {
    const auto mask = static_cast<std::uint8_t>(1u << bit);
    EXPECT_TRUE(flips(0, mask)) << "byte 0 bit " << bit;
    EXPECT_TRUE(flips(kPageSize - 1, mask)) << "byte 4095 bit " << bit;
  }
  for (std::size_t word = 0; word < kPageSize / 8; ++word) {
    // Bit 63 of a little-endian word is the top bit of its last byte.
    EXPECT_TRUE(flips(word * 8 + 7, 0x80)) << "word " << word;
  }
  EXPECT_EQ(hv::page_digest(page), base);
}

TEST(Crc32c, KnownVectors) {
  std::vector<std::uint8_t> ascending(32);
  std::iota(ascending.begin(), ascending.end(), std::uint8_t{0});
  const std::string_view check = "123456789";
  const std::vector<std::uint8_t> digits(check.begin(), check.end());
  const std::vector<std::pair<std::vector<std::uint8_t>, std::uint32_t>> cases = {
      {std::vector<std::uint8_t>(32, 0x00), 0x8A9136AAu},
      {std::vector<std::uint8_t>(32, 0xFF), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {digits, 0xE3069283u},
  };
  for (const auto& [bytes, expect] : cases) {
    EXPECT_EQ(crc32c(bytes), expect);
    EXPECT_EQ(table_crc(bytes), expect);
  }
  EXPECT_EQ(crc32c({}), 0u);
}

// The dispatched kernel (three-way or single-stream SSE4.2 where the CPU
// has it) equals the table loop for every length up to a page and a byte,
// from every start misalignment, from an arbitrary running state.
TEST(Crc32c, DispatchedMatchesTableAtEveryLengthAndAlignment) {
  const std::vector<std::uint8_t> buf = random_bytes(4097 + 8, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4097; ++len) {
      const std::span<const std::uint8_t> data(buf.data() + offset, len);
      const auto state = static_cast<std::uint32_t>(len * 0x9E3779B9u + offset);
      ASSERT_EQ(crc32c_update(state, data),
                detail::crc32c_update_table(state, data))
          << "offset " << offset << " length " << len;
    }
  }
}

// The three-way kernel cuts its input into blocks of three 1,360-byte
// streams. Every length from 0 to three blocks and 17 bytes past them, from
// start offsets 0-7, covers no block, one or more whole blocks, and every
// tail the single stream finishes. The table loop extends its value by one
// byte per length, so the oracle costs one pass per offset.
TEST(Crc32c, DispatchedMatchesTablePastThreeBlocks) {
  constexpr std::size_t kBlock = 3 * 1360;
  constexpr std::size_t kMaxLen = 3 * kBlock + 17;
  const std::vector<std::uint8_t> buf = random_bytes(kMaxLen + 8, 2);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const auto state = static_cast<std::uint32_t>(~offset * 0x85EBCA6Bu);
    std::uint32_t oracle = state;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) {
        oracle = detail::crc32c_update_table(oracle, {&buf[offset + len - 1], 1});
      }
      ASSERT_EQ(crc32c_update(state, {buf.data() + offset, len}), oracle)
          << "offset " << offset << " length " << len;
    }
  }
}

// One stream fed across calls of mixed sizes — bytes, words, pages, whole
// and partial blocks — equals the one-shot value over the same bytes.
TEST(Crc32c, ChainedMixedSizesMatchOneShot) {
  const std::vector<std::uint8_t> buf = random_bytes(1 << 20, 3);
  const std::size_t sizes[] = {1, 7, 4080, 8, 4096, 0, 12240, 3, 65536, 4104};
  std::uint32_t state = crc32c_init();
  std::size_t pos = 0;
  for (std::size_t i = 0; pos < buf.size(); ++i) {
    const std::size_t take =
        std::min(buf.size() - pos, sizes[i % std::size(sizes)]);
    state = crc32c_update(state, {buf.data() + pos, take});
    pos += take;
  }
  EXPECT_EQ(crc32c_final(state), crc32c(buf));
  EXPECT_EQ(crc32c(buf), table_crc(buf));
}

TEST(Crc32c, IncrementalSplitsMatchOneShot) {
  sim::Rng rng(5);
  for (int trial = 0; trial < 64; ++trial) {
    const std::vector<std::uint8_t> buf =
        random_bytes(1 + rng.uniform(20000), 100 + trial);
    std::uint32_t state = crc32c_init();
    for (std::size_t pos = 0; pos < buf.size();) {
      const std::size_t take =
          std::min<std::size_t>(buf.size() - pos, rng.uniform(300));
      state = crc32c_update(state, {buf.data() + pos, take});
      pos += take;
    }
    ASSERT_EQ(crc32c_final(state), table_crc(buf)) << "trial " << trial;
  }
}

// --- DirtyBitmap --------------------------------------------------------------------

TEST(DirtyBitmap, SetTestClear) {
  DirtyBitmap bm(200);
  EXPECT_EQ(bm.count(), 0u);
  bm.set(0);
  bm.set(63);
  bm.set(64);
  bm.set(199);
  EXPECT_TRUE(bm.test(0));
  EXPECT_TRUE(bm.test(63));
  EXPECT_TRUE(bm.test(64));
  EXPECT_TRUE(bm.test(199));
  EXPECT_FALSE(bm.test(1));
  EXPECT_EQ(bm.count(), 4u);
  bm.clear();
  EXPECT_EQ(bm.count(), 0u);
}

TEST(DirtyBitmap, TestAndClear) {
  DirtyBitmap bm(100);
  bm.set(42);
  EXPECT_TRUE(bm.test_and_clear(42));
  EXPECT_FALSE(bm.test_and_clear(42));
  EXPECT_FALSE(bm.test(42));
}

TEST(DirtyBitmap, CollectClearsAndReturnsSorted) {
  DirtyBitmap bm(1000);
  const std::set<Gfn> expect = {0, 1, 63, 64, 65, 512, 999};
  for (const Gfn g : expect) bm.set(g);
  std::vector<Gfn> out;
  EXPECT_EQ(bm.collect(0, 1000, out), expect.size());
  EXPECT_EQ(std::set<Gfn>(out.begin(), out.end()), expect);
  EXPECT_EQ(bm.count(), 0u);
}

TEST(DirtyBitmap, CollectRespectsRangeBounds) {
  DirtyBitmap bm(256);
  for (Gfn g = 0; g < 256; ++g) bm.set(g);
  std::vector<Gfn> out;
  // Sub-word-aligned range [70, 130): exactly 60 pages.
  EXPECT_EQ(bm.collect(70, 130, out), 60u);
  for (const Gfn g : out) {
    EXPECT_GE(g, 70u);
    EXPECT_LT(g, 130u);
  }
  // The rest must still be set.
  EXPECT_EQ(bm.count(), 256u - 60u);
}

TEST(DirtyBitmap, CollectWithoutClearing) {
  DirtyBitmap bm(128);
  bm.set(5);
  std::vector<Gfn> out;
  EXPECT_EQ(bm.collect(0, 128, out, /*clear_found=*/false), 1u);
  EXPECT_TRUE(bm.test(5));
}

TEST(DirtyBitmap, ExchangeInto) {
  DirtyBitmap bm(128), scratch(128);
  bm.set(3);
  bm.set(100);
  scratch.set(50);  // stale content must be overwritten
  bm.exchange_into(scratch);
  EXPECT_EQ(bm.count(), 0u);
  EXPECT_TRUE(scratch.test(3));
  EXPECT_TRUE(scratch.test(100));
  EXPECT_FALSE(scratch.test(50));
  bm.set(3);  // a page dirtied again after the exchange is marked again
  EXPECT_TRUE(bm.test(3));
  EXPECT_EQ(bm.count(), 1u);
}

// Property: random dirty sets are recovered exactly (sweep over sizes that
// hit word boundaries).
class DirtyBitmapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DirtyBitmapProperty, RandomSetsRoundTrip) {
  const std::uint64_t pages = GetParam();
  DirtyBitmap bm(pages);
  sim::Rng rng(pages * 31 + 7);
  std::set<Gfn> expect;
  for (std::uint64_t i = 0; i < pages / 3 + 1; ++i) {
    const Gfn g = rng.uniform(pages);
    expect.insert(g);
    bm.set(g);
  }
  EXPECT_EQ(bm.count(), expect.size());
  std::vector<Gfn> out;
  bm.collect(0, pages, out);
  EXPECT_EQ(std::set<Gfn>(out.begin(), out.end()), expect);
  EXPECT_EQ(bm.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DirtyBitmapProperty,
                         ::testing::Values(1, 63, 64, 65, 127, 128, 1000,
                                           4096, 100000));

TEST(DirtyBitmap, ConcurrentSettersAreAllObserved) {
  constexpr std::uint64_t kPages = 1 << 16;
  DirtyBitmap bm(kPages);
  ThreadPool pool(4);
  pool.run_per_worker([&](std::size_t w) {
    for (std::uint64_t g = w; g < kPages; g += 4) bm.set(g);
  });
  EXPECT_EQ(bm.count(), kPages);
}

// --- ThreadPool ---------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEachIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, RunPerWorkerGivesDistinctIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(4);
  pool.run_per_worker([&](std::size_t w) { seen[w].fetch_add(1); });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, SubmitReturnsUsableFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([] {});
  fut.get();  // must not block forever
}

TEST(ThreadPool, ExceptionsPropagateThroughParallelFor) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [](std::size_t i) {
                          if (i == 5) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

}  // namespace
}  // namespace here::common
