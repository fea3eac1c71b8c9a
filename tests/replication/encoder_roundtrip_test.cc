// Content-aware encoder battery (ctest -L replication):
//   * property test over 50 seeded-random region contents (all-zero,
//     sparse-dirty, redirtied-identical, adversarial high-entropy): encode ->
//     frame -> transmit -> decode -> commit lands byte-identical to the
//     unencoded content, for every encoder alone and all stacked;
//   * per-class savings: the right encoder collapses the right content, and
//     nothing ever inflates (bytes_out <= bytes_in by construction);
//   * the zero test sees one non-zero byte at any offset of a page;
//   * the word-wise XOR+RLE encoder emits exactly the records of the
//     byte-at-a-time reference loop, and its records XOR'd into the base in
//     place rebuild the page; malformed records are refused by
//     xor_rle_verify;
//   * the primary's shadow tracks the replica's image across epochs of
//     in-place deltas;
//   * encoding is deterministic: same content, same frames, bit for bit;
//   * the version-0 wire stays byte-identical to the PR 3 framing (golden
//     recompute of the seal and the rolling digest);
//   * version negotiation: frames beyond the replica's decoder, or
//     disagreeing with the announced epoch version, are NACKed;
//   * end-to-end: an engine running all encoders still activates a replica
//     whose memory digest equals the committed image, and on a thin 10 GbE
//     wire the encoded stream's mean pause beats the null baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/status.h"
#include "common/units.h"
#include "hv/guest_memory.h"
#include "hv/hypervisor.h"
#include "replication/encoder.h"
#include "replication/staging.h"
#include "replication/testbed.h"
#include "replication/wire.h"
#include "sim/event_queue.h"
#include "sim/hardware_profile.h"
#include "sim/rng.h"
#include "simnet/fabric.h"
#include "workload/synthetic.h"

namespace here::rep {
namespace {

using common::kPageSize;
using common::kPagesPerRegion;

constexpr std::uint64_t kPages = 2048;  // 8 MiB: 4 regions of 512 pages

enum class ContentClass : std::uint32_t {
  kAllZero = 0,            // dirty pages rewritten to all zeros
  kSparseDirty = 1,        // a handful of bytes changed per dirty page
  kRedirtiedIdentical = 2, // dirty bit set, content equals the committed base
  kHighEntropy = 3,        // whole page replaced with fresh random bytes
};

std::vector<std::uint8_t> random_page(sim::Rng& rng) {
  std::vector<std::uint8_t> page(kPageSize);
  for (std::size_t i = 0; i < kPageSize; i += 8) {
    const std::uint64_t v = rng.next_u64();
    for (std::size_t b = 0; b < 8; ++b) {
      page[i + b] = static_cast<std::uint8_t>((v >> (b * 8)) & 0xFFu);
    }
  }
  return page;
}

struct TrialResult {
  EncodeStats stats;
  std::uint64_t dirty_pages = 0;
  // The sealed frames, for determinism comparisons.
  std::vector<wire::RegionFrame> frames;
  std::uint64_t digest = 0;
};

// One full roundtrip: build a committed base image on both sides, dirty a
// random page set per `cls`, encode with `cfg`, push every frame through a
// clean fabric data plane, decode-and-commit on the replica, then verify the
// replica equals the primary byte for byte.
TrialResult run_roundtrip(std::uint64_t seed, ContentClass cls,
                          const EncoderConfig& cfg) {
  sim::Rng rng(0x9e3779b97f4a7c15ULL ^ seed);
  hv::VmSpec spec = hv::make_vm_spec("t", 1, kPages * kPageSize);

  hv::GuestMemory primary(kPages, 1);
  ReplicaStaging staging(spec, 1);

  // Committed base: ~25% of pages carry random content, the rest stay zero.
  for (common::Gfn g = 0; g < kPages; ++g) {
    if (!rng.bernoulli(0.25)) continue;
    const std::vector<std::uint8_t> content = random_page(rng);
    primary.install_page(g, content);
    staging.install_seed_page(g, content);
  }
  staging.begin_epoch(0);
  EXPECT_TRUE(staging.commit().ok());  // baselines the region digests

  EncoderPipeline enc(cfg, kPages);
  enc.baseline(primary);

  // Dirty set: 64 distinct pages, mutated per the content class.
  std::set<common::Gfn> dirty;
  while (dirty.size() < 64) dirty.insert(rng.uniform(kPages));
  for (const common::Gfn g : dirty) {
    auto page = primary.page_mut(g);
    switch (cls) {
      case ContentClass::kAllZero:
        std::fill(page.begin(), page.end(), std::uint8_t{0});
        break;
      case ContentClass::kSparseDirty: {
        const std::uint64_t touches = 1 + rng.uniform(8);
        for (std::uint64_t i = 0; i < touches; ++i) {
          page[rng.uniform(kPageSize)] ^= static_cast<std::uint8_t>(
              1 + rng.uniform(255));
        }
        break;
      }
      case ContentClass::kRedirtiedIdentical:
        break;  // the guest rewrote the same values
      case ContentClass::kHighEntropy: {
        const std::vector<std::uint8_t> fresh = random_page(rng);
        std::copy(fresh.begin(), fresh.end(), page.begin());
        break;
      }
    }
  }

  // Encode one frame per dirty region, seal, fold — the engine's framing.
  TrialResult out;
  out.dirty_pages = dirty.size();
  EncodeWork work;
  std::uint64_t digest = wire::digest_init();
  const std::uint32_t regions = staging.region_count();
  for (std::uint32_t r = 0; r < regions; ++r) {
    wire::RegionFrame f;
    f.epoch = 1;
    f.region = r;
    f.version = wire::kWireVersionEncoded;
    for (const common::Gfn g : dirty) {
      if (g / kPagesPerRegion == r) f.gfns.push_back(g);
    }
    if (f.gfns.empty()) continue;
    f.seq = out.frames.size();
    enc.encode_region(primary, f, work);
    wire::seal_frame(f);
    digest = wire::digest_fold(digest, f);
    out.frames.push_back(std::move(f));
  }
  out.digest = digest;

  // Transmit across a clean data plane (pristine delivery), then commit.
  sim::Simulation sim;
  net::Fabric fabric(sim);
  const net::NodeId a = fabric.add_node("a", [](const net::Packet&) {});
  const net::NodeId b = fabric.add_node("b", [](const net::Packet&) {});
  fabric.connect(a, b, sim::grid5000_host().interconnect);

  staging.begin_epoch(1);
  staging.expect_epoch({1, out.frames.size(), digest,
                        wire::kWireVersionEncoded});
  for (const wire::RegionFrame& f : out.frames) {
    wire::RegionFrame rx = f;
    const net::FrameFate fate = fabric.transmit_frame(a, b, rx.bytes);
    EXPECT_FALSE(fate.lost);
    EXPECT_FALSE(fate.damaged());
    EXPECT_EQ(staging.receive_frame(rx), FrameVerdict::kOk);
  }
  const auto committed = staging.commit();
  EXPECT_TRUE(committed.ok()) << committed.status().to_string();
  enc.commit_epoch();

  // The decisive property: the replica's image equals the primary's.
  for (common::Gfn g = 0; g < kPages; ++g) {
    if (staging.memory().page_digest(g) != primary.page_digest(g)) {
      ADD_FAILURE() << "page " << g << " diverged (seed " << seed << ")";
      break;
    }
  }
  out.stats = enc.stats();
  return out;
}

const EncoderConfig kZeroOnly{.zero_elide = true};
const EncoderConfig kDeltaOnly{.delta = true};
const EncoderConfig kSkipOnly{.hash_skip = true};

// --- The 50-seed property battery: every encoder, every content class ---------

TEST(EncoderRoundtrip, FiftySeedsAllClassesAllEncodersByteIdentical) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const auto cls = static_cast<ContentClass>(seed % 4);
    for (const EncoderConfig& cfg :
         {kZeroOnly, kDeltaOnly, kSkipOnly, EncoderConfig::all()}) {
      const TrialResult r = run_roundtrip(seed, cls, cfg);
      // Nothing ever inflates: an encoder that would lose falls back to raw.
      EXPECT_LE(r.stats.bytes_out, r.stats.bytes_in) << "seed " << seed;
      EXPECT_EQ(r.stats.pages_in, r.dirty_pages);
    }
  }
}

TEST(EncoderRoundtrip, ZeroElisionCollapsesAllZeroContent) {
  const TrialResult r = run_roundtrip(4, ContentClass::kAllZero, kZeroOnly);
  EXPECT_EQ(r.stats.pages_zero, r.dirty_pages);
  EXPECT_EQ(r.stats.bytes_out, 0u);  // zero pages ship no payload at all
}

// The word-wise zero test sees a single set bit anywhere in the page, low
// or high, and accepts the all-zero page.
TEST(EncoderRoundtrip, ZeroTestSeesOneNonZeroByteAtEveryOffset) {
  std::vector<std::uint8_t> page(kPageSize, 0);
  EXPECT_TRUE(hv::is_zero_page(page));
  for (std::size_t offset = 0; offset < page.size(); ++offset) {
    for (const std::uint8_t value : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      page[offset] = value;
      ASSERT_FALSE(hv::is_zero_page(page)) << "offset " << offset;
      page[offset] = 0;
    }
  }
  EXPECT_TRUE(hv::is_zero_page(page));
}

TEST(EncoderRoundtrip, HashSkipCollapsesRedirtiedIdenticalContent) {
  const TrialResult r =
      run_roundtrip(6, ContentClass::kRedirtiedIdentical, kSkipOnly);
  EXPECT_EQ(r.stats.pages_skipped, r.dirty_pages);
  EXPECT_EQ(r.stats.bytes_out, 0u);
}

TEST(EncoderRoundtrip, DeltaCollapsesSparseDirtyContent) {
  const TrialResult r = run_roundtrip(5, ContentClass::kSparseDirty, kDeltaOnly);
  EXPECT_EQ(r.stats.pages_delta, r.dirty_pages);
  // A handful of touched bytes per page: the delta is tiny.
  EXPECT_LT(r.stats.bytes_out, r.stats.bytes_in / 10);
}

TEST(EncoderRoundtrip, HighEntropyContentFallsBackToRawWithoutInflation) {
  const TrialResult r =
      run_roundtrip(7, ContentClass::kHighEntropy, EncoderConfig::all());
  // Fresh random bytes defeat every encoder; the stream must not inflate.
  EXPECT_EQ(r.stats.pages_raw, r.dirty_pages);
  EXPECT_EQ(r.stats.bytes_out, r.stats.bytes_in);
}

TEST(EncoderRoundtrip, StackedEncodersPickTheRightTransformPerPage) {
  // Sparse-dirty under the full stack: deltas dominate, nothing inflates.
  const TrialResult r =
      run_roundtrip(9, ContentClass::kSparseDirty, EncoderConfig::all());
  EXPECT_GT(r.stats.pages_delta, 0u);
  EXPECT_LT(r.stats.bytes_out, r.stats.bytes_in);
}

// --- The word-wise XOR+RLE encoder against the byte-loop reference -----------

// The original byte-at-a-time encoder, kept here as the oracle: the
// word-wise one must emit the same records byte for byte.
std::vector<std::uint8_t> reference_xor_rle_encode(
    const std::vector<std::uint8_t>& page,
    const std::vector<std::uint8_t>& base) {
  constexpr std::size_t kBreakEven = 4;
  const auto put_u16 = [](std::vector<std::uint8_t>& out, std::size_t v) {
    out.push_back(static_cast<std::uint8_t>(v & 0xFFu));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
  };
  std::vector<std::uint8_t> out;
  std::size_t i = 0;
  while (i < kPageSize && out.size() < kPageSize) {
    std::size_t zeros = 0;
    while (i + zeros < kPageSize && page[i + zeros] == base[i + zeros]) ++zeros;
    if (i + zeros >= kPageSize) break;
    std::size_t lit_end = i + zeros;
    std::size_t gap = 0;
    while (lit_end + gap < kPageSize) {
      if (page[lit_end + gap] == base[lit_end + gap]) {
        ++gap;
        if (gap >= kBreakEven) break;
      } else {
        lit_end += gap + 1;
        gap = 0;
      }
    }
    put_u16(out, zeros);
    put_u16(out, lit_end - (i + zeros));
    for (std::size_t k = i + zeros; k < lit_end; ++k) {
      out.push_back(static_cast<std::uint8_t>(page[k] ^ base[k]));
    }
    i = lit_end;
  }
  return out;
}

// Encodes `page` against `base` with both encoders, requires identical
// records, and, when the delta pays, that it rebuilds the page in place.
void expect_matches_reference(const std::vector<std::uint8_t>& page,
                              const std::vector<std::uint8_t>& base,
                              const std::string& what) {
  const std::vector<std::uint8_t> got = xor_rle_encode(page, base);
  ASSERT_EQ(got, reference_xor_rle_encode(page, base)) << what;
  if (got.size() >= kPageSize) return;  // the caller ships raw
  ASSERT_TRUE(xor_rle_verify(got).ok()) << what;
  std::vector<std::uint8_t> rebuilt = base;
  xor_rle_apply_in_place(got, rebuilt);
  ASSERT_EQ(rebuilt, page) << what;
}

TEST(XorRleOracle, SeededPagesMatchTheByteLoopReference) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    sim::Rng rng(0x51ed270b27ULL ^ seed);
    const std::vector<std::uint8_t> base =
        seed % 3 == 0 ? std::vector<std::uint8_t>(kPageSize, 0)
                      : random_page(rng);
    std::vector<std::uint8_t> page = base;
    // From one touched byte up to most of the page, in runs of 1-16 bytes
    // at random offsets, so gaps of every length up to a word and beyond
    // occur.
    const std::uint64_t runs = 1 + rng.uniform(seed % 5 == 0 ? 600 : 24);
    for (std::uint64_t r = 0; r < runs; ++r) {
      const std::size_t at = rng.uniform(kPageSize);
      const std::size_t len = 1 + rng.uniform(16);
      for (std::size_t k = at; k < std::min(at + len, kPageSize); ++k) {
        page[k] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
      }
    }
    expect_matches_reference(page, base, "seed " + std::to_string(seed));
  }
}

TEST(XorRleOracle, EdgeCasesMatchTheByteLoopReference) {
  sim::Rng rng(77);
  const std::vector<std::uint8_t> base = random_page(rng);
  const auto changed = [&](std::initializer_list<std::size_t> offsets) {
    std::vector<std::uint8_t> page = base;
    for (const std::size_t o : offsets) page[o] ^= 0x5a;
    return page;
  };
  expect_matches_reference(changed({0}), base, "first byte");
  expect_matches_reference(changed({kPageSize - 1}), base, "last byte");
  expect_matches_reference(changed({0, kPageSize - 1}), base, "both ends");
  // A gap of 3 equal bytes stays inside one literal; a gap of 4 splits it.
  expect_matches_reference(changed({100, 104}), base, "gap of 3");
  expect_matches_reference(changed({100, 105}), base, "gap of 4");
  expect_matches_reference(changed({4090, 4094}), base, "gap of 3 at the end");
  expect_matches_reference(changed({7, 8, 15, 16}), base, "word edges");
  EXPECT_EQ(xor_rle_encode(changed({100, 104}), base).size(), 4u + 5u);
  EXPECT_EQ(xor_rle_encode(changed({100, 105}), base).size(), 2 * (4u + 1u));

  // Identical pages encode to nothing.
  expect_matches_reference(base, base, "identical");
  EXPECT_TRUE(xor_rle_encode(base, base).empty());

  // Every byte differs: the output reaches kPageSize and the caller ships
  // raw.
  std::vector<std::uint8_t> inverted = base;
  for (std::uint8_t& b : inverted) b = static_cast<std::uint8_t>(~b);
  expect_matches_reference(inverted, base, "all different");
  EXPECT_GE(xor_rle_encode(inverted, base).size(), kPageSize);
}

TEST(XorRleOracle, VerifyRefusesMalformedRecords) {
  EXPECT_TRUE(xor_rle_verify({}).ok());
  // A header cut short.
  const std::vector<std::uint8_t> truncated = {0x01, 0x00, 0x01};
  EXPECT_EQ(xor_rle_verify(truncated).code(), StatusCode::kDataLoss);
  // zero-run 4000 + literal 200 runs past the page.
  const std::vector<std::uint8_t> overrun = {0xa0, 0x0f, 0xc8, 0x00};
  EXPECT_EQ(xor_rle_verify(overrun).code(), StatusCode::kDataLoss);
  // A literal longer than the bytes that follow it.
  const std::vector<std::uint8_t> short_literal = {0x00, 0x00, 0x03, 0x00,
                                                   0x01};
  EXPECT_EQ(xor_rle_verify(short_literal).code(), StatusCode::kDataLoss);
  std::vector<std::uint8_t> page(kPageSize, 0);
  EXPECT_THROW(xor_rle_apply_in_place(overrun, page), std::out_of_range);
}

// Three epochs of sparse writes to the same pages: every epoch's deltas are
// against the shadow the previous commit left by XOR'ing in place, so the
// replica accepts each epoch's bases and ends byte-identical.
TEST(EncoderRoundtrip, ShadowTracksTheReplicaAcrossDeltaEpochs) {
  hv::VmSpec spec = hv::make_vm_spec("t", 1, kPages * kPageSize);
  hv::GuestMemory primary(kPages, 1);
  ReplicaStaging staging(spec, 1);
  sim::Rng rng(2024);
  for (const common::Gfn g : {3, 4, 600}) {
    const std::vector<std::uint8_t> content = random_page(rng);
    primary.install_page(g, content);
    staging.install_seed_page(g, content);
  }
  staging.begin_epoch(0);
  ASSERT_TRUE(staging.commit().ok());
  EncoderPipeline enc(EncoderConfig::all(), kPages);
  enc.baseline(primary);

  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    // Pages 3 and 600 change sparsely, 4 is rewritten unchanged, and 9
    // gets its first bytes.
    for (const common::Gfn g : {3, 600, 9}) {
      primary.page_mut(g)[rng.uniform(kPageSize)] ^= 0x11;
    }
    std::vector<wire::RegionFrame> frames;
    std::uint64_t digest = wire::digest_init();
    EncodeWork work;
    for (const std::vector<common::Gfn>& gfns :
         {std::vector<common::Gfn>{3, 4, 9}, std::vector<common::Gfn>{600}}) {
      wire::RegionFrame f;
      f.epoch = epoch;
      f.seq = frames.size();
      f.region = static_cast<std::uint32_t>(gfns.front() / kPagesPerRegion);
      f.gfns = gfns;
      enc.encode_region(primary, f, work);
      wire::seal_frame(f);
      digest = wire::digest_fold(digest, f);
      frames.push_back(std::move(f));
    }
    staging.begin_epoch(epoch);
    staging.expect_epoch(
        {epoch, frames.size(), digest, wire::kWireVersionEncoded});
    for (const wire::RegionFrame& f : frames) {
      ASSERT_EQ(staging.receive_frame(f), FrameVerdict::kOk);
    }
    const auto committed = staging.commit();
    ASSERT_TRUE(committed.ok()) << committed.status().to_string();
    enc.commit_epoch();
    EXPECT_EQ(staging.memory().full_digest(), primary.full_digest())
        << "epoch " << epoch;
  }
  EXPECT_GT(enc.stats().pages_delta, 0u);
  EXPECT_GT(enc.stats().pages_skipped, 0u);
}

// --- Determinism: same content encodes to bit-identical frames ----------------

TEST(EncoderRoundtrip, SameSeedEncodesBitIdenticalFrames) {
  for (const std::uint64_t seed : {11ULL, 13ULL}) {
    const auto cls = static_cast<ContentClass>(seed % 4);
    const TrialResult a = run_roundtrip(seed, cls, EncoderConfig::all());
    const TrialResult b = run_roundtrip(seed, cls, EncoderConfig::all());
    ASSERT_EQ(a.frames.size(), b.frames.size());
    EXPECT_EQ(a.digest, b.digest);
    for (std::size_t i = 0; i < a.frames.size(); ++i) {
      EXPECT_EQ(a.frames[i].crc, b.frames[i].crc);
      EXPECT_EQ(a.frames[i].bytes, b.frames[i].bytes);
      ASSERT_EQ(a.frames[i].pages.size(), b.frames[i].pages.size());
      for (std::size_t k = 0; k < a.frames[i].pages.size(); ++k) {
        EXPECT_EQ(a.frames[i].pages[k].enc, b.frames[i].pages[k].enc);
        EXPECT_EQ(a.frames[i].pages[k].length, b.frames[i].pages[k].length);
        EXPECT_EQ(a.frames[i].pages[k].aux, b.frames[i].pages[k].aux);
      }
    }
  }
}

// --- Version 0 stays byte-identical to the PR 3 wire --------------------------

TEST(EncoderRoundtrip, NullEncoderWireIsByteIdenticalToRawFraming) {
  wire::RegionFrame f;
  f.epoch = 3;
  f.seq = 7;
  f.region = 1;
  f.gfns = {600, 601};
  f.bytes.assign(2 * kPageSize, 0x5a);
  ASSERT_EQ(f.version, wire::kWireVersionRaw);  // the default
  wire::seal_frame(f);
  // Golden recompute of the PR 3 rules: the CRC is CRC32C over the payload
  // alone, and the rolling digest folds exactly (seq, region, gfn count,
  // crc) — no version, no byte count.
  EXPECT_EQ(f.crc, common::crc32c(f.bytes));
  std::uint64_t acc = 1469598103934665603ULL;
  const auto fold = [&acc](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      acc ^= (v >> (i * 8)) & 0xFFu;
      acc *= 1099511628211ULL;
    }
  };
  fold(f.seq);
  fold(f.region);
  fold(f.gfns.size());
  fold(f.crc);
  EXPECT_EQ(wire::digest_fold(wire::digest_init(), f), acc);
  EXPECT_TRUE(wire::frame_intact(f));
}

// --- Version negotiation at the replica's door --------------------------------

TEST(EncoderRoundtrip, FrameBeyondSupportedVersionIsNacked) {
  hv::VmSpec spec = hv::make_vm_spec("t", 1, kPages * kPageSize);
  ReplicaStaging staging(spec, 1);
  staging.begin_epoch(1);
  wire::RegionFrame f;
  f.epoch = 1;
  f.seq = 0;
  f.region = 0;
  f.version = ReplicaStaging::supported_wire_version() + 1;
  f.gfns = {4};
  f.bytes.assign(kPageSize, 0x11);
  wire::seal_frame(f);
  EXPECT_EQ(staging.receive_frame(f), FrameVerdict::kCorrupt);
  EXPECT_TRUE(staging.corrupt_regions().contains(0u));
}

TEST(EncoderRoundtrip, FrameVersionDisagreeingWithHeaderIsNacked) {
  hv::VmSpec spec = hv::make_vm_spec("t", 1, kPages * kPageSize);
  ReplicaStaging staging(spec, 1);
  staging.begin_epoch(1);
  // The header announced an encoded epoch; a raw frame (downgrade splice)
  // must not slip in, however intact it is on its own.
  wire::RegionFrame f;
  f.epoch = 1;
  f.seq = 0;
  f.region = 0;
  f.gfns = {4};
  f.bytes.assign(kPageSize, 0x11);
  wire::seal_frame(f);
  ASSERT_TRUE(wire::frame_intact(f));
  staging.expect_epoch({1, 1, 0, wire::kWireVersionEncoded});
  EXPECT_EQ(staging.receive_frame(f), FrameVerdict::kCorrupt);
}

// --- End-to-end through the engine --------------------------------------------

TestbedConfig encoder_bed_config() {
  TestbedConfig config;
  config.vm_spec = hv::make_vm_spec("vm", 4, 64ULL << 20);
  config.engine.mode = EngineMode::kHere;
  config.engine.checkpoint_threads = 4;
  config.engine.period.t_max = sim::from_millis(200);
  return config;
}

TEST(EncoderRoundtrip, EngineWithAllEncodersActivatesDigestIdenticalReplica) {
  TestbedConfig config = encoder_bed_config();
  config.engine.encoders = EncoderConfig::all();
  Testbed bed(config);
  hv::Vm& vm = bed.create_vm(
      std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(30)));
  bed.protect(vm);
  bed.run_until_seeded();
  bed.simulation().run_for(sim::from_seconds(4));

  const EngineStats& mid = bed.engine().stats();
  ASSERT_GT(mid.checkpoints.size(), 2u);
  EXPECT_GT(mid.encode.pages_in, 0u);
  EXPECT_LT(mid.encode.bytes_out, mid.encode.bytes_in);
  // The synthetic writer touches 8 bytes per store: deltas dominate.
  EXPECT_GT(mid.encode.pages_delta, 0u);

  bed.engine().trigger_failover("test: verify encoded-stream image");
  ASSERT_TRUE(bed.run_until([&] { return bed.engine().failed_over(); },
                            sim::from_seconds(5)));
  const EngineStats& stats = bed.engine().stats();
  EXPECT_EQ(stats.replica_digest_at_activation,
            stats.committed_digest_at_activation);
  EXPECT_NE(stats.replica_digest_at_activation, 0u);
}

TEST(EncoderRoundtrip, EncodedStreamBeatsNullBaselineOnThin10GbEWire) {
  // The acceptance experiment: sparse-dirty workload, the wire throttled to
  // 10 GbE (where the null stream is wire-bound), all encoders on. The
  // encoded stream trades a little encode CPU for far fewer wire bytes, so
  // the mean pause must come out strictly lower.
  const auto mean_pause = [](const EncoderConfig& encoders) {
    TestbedConfig config = encoder_bed_config();
    config.engine.encoders = encoders;
    config.engine.time_model.wire_bytes_per_second = 1.25e9;  // 10 GbE
    Testbed bed(config);
    hv::Vm& vm = bed.create_vm(
        std::make_unique<wl::SyntheticProgram>(wl::memory_microbench(30)));
    bed.protect(vm);
    bed.run_until_seeded();
    bed.simulation().run_for(sim::from_seconds(5));
    const EngineStats& stats = bed.engine().stats();
    EXPECT_GT(stats.checkpoints.size(), 2u);
    sim::Duration total{};
    for (const CheckpointRecord& c : stats.checkpoints) total += c.pause;
    return sim::to_seconds(total) /
           static_cast<double>(stats.checkpoints.size());
  };
  const double null_pause = mean_pause(EncoderConfig{});
  const double encoded_pause = mean_pause(EncoderConfig::all());
  EXPECT_LT(encoded_pause, null_pause);
}

}  // namespace
}  // namespace here::rep
