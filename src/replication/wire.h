// Checkpoint wire format: verified framing for the continuous-replication
// data plane.
//
// PR 2 hardened the control plane; this layer stops trusting the
// interconnect byte-for-byte. Each epoch ships as an *epoch header* plus one
// frame per dirty 2 MiB region:
//
//   EpochHeader  { epoch, frame count, whole-epoch rolling digest }
//   RegionFrame  { epoch, seq, region, gfn list, page bytes, CRC32C }
//
// The CRC32C covers the real page payload bytes; the rolling digest folds
// every frame's (seq, region, page count, crc) in sequence order, so a
// substituted, dropped or reordered-and-lost frame cannot commit. The
// replica verifies each frame on arrival (ReplicaStaging::receive_frame),
// NACKs corrupt regions for selective retransmission, and refuses to commit
// an epoch whose recomputed digest does not match the header
// (docs/ARCHITECTURE.md, "Checkpoint wire format").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/crc32c.h"
#include "common/units.h"

namespace here::rep::wire {

// Stream versions, negotiated per protection (see docs/ARCHITECTURE.md,
// "Encoding header & negotiation"): the primary proposes
// min(its capability, the replica's advertised maximum) and announces the
// result in the epoch header; every frame of the epoch carries it. Version 0
// is the PR 3 raw framing, bit-identical on the wire to a build without
// encoders; version 1 adds the per-page encoding header below.
inline constexpr std::uint16_t kWireVersionRaw = 0;
inline constexpr std::uint16_t kWireVersionEncoded = 1;

// Per-page transform applied by the content-aware encoder stage
// (src/replication/encoder.h). Raw pages ship kPageSize payload bytes;
// zero/skip pages ship none; delta pages ship an XOR+RLE record stream.
enum class PageEncoding : std::uint8_t {
  kRaw = 0,
  kZero = 1,   // all-zero page, elided
  kDelta = 2,  // XOR+RLE against the committed shadow; aux = base digest
  kSkip = 3,   // content equals the committed reference; aux = content digest
};

// Version-1 per-page encoding header. `aux` carries the base/content digest
// delta and skip pages are verified against before the replica applies
// anything (refuse-before-apply covers stale encoder bases).
struct PageMeta {
  PageEncoding enc = PageEncoding::kRaw;
  std::uint32_t length = 0;  // encoded payload bytes for this page
  std::uint64_t aux = 0;
};

// One 2 MiB region's dirty pages, framed for the interconnect. Version 0:
// `bytes` holds gfns.size() * kPageSize payload bytes in gfn-list order and
// `pages` stays empty. Version 1: one PageMeta per gfn and `bytes` holds the
// concatenated *encoded* payloads (the CRC and rolling digest seal encoded
// bytes; committed digests remain over decoded page content).
struct RegionFrame {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;     // frame sequence number within the epoch
  std::uint32_t region = 0;  // region index: first gfn / kPagesPerRegion
  std::uint16_t version = kWireVersionRaw;
  std::vector<common::Gfn> gfns;
  std::vector<PageMeta> pages;  // version >= 1 only
  std::vector<std::uint8_t> bytes;
  std::uint32_t crc = 0;  // CRC32C as emitted by the primary (see seal_frame)

  [[nodiscard]] std::uint64_t payload_bytes() const { return bytes.size(); }
};

// Epoch header, sent ahead of the frames. The digest commits the primary to
// the exact frame sequence; the replica recomputes it from verified frames.
// `version` is the negotiated stream version for every frame of the epoch.
struct EpochHeader {
  std::uint64_t epoch = 0;
  std::uint64_t frames = 0;
  std::uint64_t digest = 0;
  std::uint16_t version = kWireVersionRaw;
};

// Stamps `frame.crc` (done once, on the pristine bytes, before the frame
// touches the wire). Version 0 seals the payload bytes; version 1 seals the
// serialized page-encoding headers followed by the payload, so meta
// substitution is as detectable as payload corruption.
void seal_frame(RegionFrame& frame);

// Frame-level verification: payload length must agree with the encoding
// headers (truncation), the headers must be well-formed, and the CRC32C must
// match the seal (bit errors).
[[nodiscard]] bool frame_intact(const RegionFrame& frame);

// Whole-epoch rolling digest (FNV-1a folding), order-sensitive in `seq`.
[[nodiscard]] std::uint64_t digest_init();
[[nodiscard]] std::uint64_t digest_fold(std::uint64_t acc,
                                        const RegionFrame& frame);

}  // namespace here::rep::wire
