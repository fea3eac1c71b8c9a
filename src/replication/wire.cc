#include "replication/wire.h"

#include "common/fnv.h"

namespace here::rep::wire {
namespace {

// Serialized little-endian PageMeta record fed into the version-1 CRC.
std::uint32_t fold_page_meta(std::uint32_t crc, const PageMeta& meta) {
  std::uint8_t rec[13];
  rec[0] = static_cast<std::uint8_t>(meta.enc);
  for (int i = 0; i < 4; ++i) {
    rec[1 + i] = static_cast<std::uint8_t>((meta.length >> (i * 8)) & 0xFFu);
  }
  for (int i = 0; i < 8; ++i) {
    rec[5 + i] = static_cast<std::uint8_t>((meta.aux >> (i * 8)) & 0xFFu);
  }
  return common::crc32c_update(crc, rec);
}

std::uint32_t frame_crc(const RegionFrame& frame) {
  if (frame.version == kWireVersionRaw) return common::crc32c(frame.bytes);
  std::uint32_t crc = common::crc32c_init();
  for (const PageMeta& meta : frame.pages) crc = fold_page_meta(crc, meta);
  crc = common::crc32c_update(crc, frame.bytes);
  return common::crc32c_final(crc);
}

}  // namespace

void seal_frame(RegionFrame& frame) { frame.crc = frame_crc(frame); }

bool frame_intact(const RegionFrame& frame) {
  if (frame.version == kWireVersionRaw) {
    if (frame.bytes.size() != frame.gfns.size() * common::kPageSize) {
      return false;  // truncated (or padded) in flight
    }
    return common::crc32c(frame.bytes) == frame.crc;
  }
  // Version 1: the encoding headers define the expected payload length.
  if (frame.pages.size() != frame.gfns.size()) return false;
  std::uint64_t expected_bytes = 0;
  for (const PageMeta& meta : frame.pages) {
    switch (meta.enc) {
      case PageEncoding::kRaw:
        if (meta.length != common::kPageSize) return false;
        break;
      case PageEncoding::kZero:
      case PageEncoding::kSkip:
        if (meta.length != 0) return false;
        break;
      case PageEncoding::kDelta:
        if (meta.length >= common::kPageSize) return false;
        break;
      default:
        return false;
    }
    expected_bytes += meta.length;
  }
  if (frame.bytes.size() != expected_bytes) return false;
  return frame_crc(frame) == frame.crc;
}

std::uint64_t digest_init() { return common::kFnvStreamOffset; }

std::uint64_t digest_fold(std::uint64_t acc, const RegionFrame& frame) {
  acc = common::fnv1a_u64(acc, frame.seq);
  acc = common::fnv1a_u64(acc, frame.region);
  acc = common::fnv1a_u64(acc, frame.gfns.size());
  acc = common::fnv1a_u64(acc, frame.crc);
  if (frame.version != kWireVersionRaw) {
    // Version-1 frames additionally commit to the stream version and the
    // encoded payload size; version-0 folds stay bit-identical to PR 3.
    acc = common::fnv1a_u64(acc, frame.version);
    acc = common::fnv1a_u64(acc, frame.bytes.size());
  }
  return acc;
}

}  // namespace here::rep::wire
