// 64-bit FNV-1a, the hash behind the tree's pinned small-input identities:
// the checkpoint stream's rolling digest, the fold of page digests into
// region references, the resume-probe token and placement keys. Page
// contents are digested with XXH64 instead (common/xxh64.h, behind
// hv::page_digest); FNV-1a folds those digests but never reads page bytes.
//
// Two offset bases are in use. kFnvOffset is the standard one. The
// replication stream (wire digest, staging region references, probe tokens)
// was defined with kFnvStreamOffset, a basis one decimal digit short of the
// standard value; the golden v0 wire pins it, so it stays.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace here::common {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvStreamOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

// Folds `bytes` into the running hash `h`.
inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                           std::uint64_t h = kFnvOffset) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv1a(std::string_view text,
                           std::uint64_t h = kFnvOffset) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(text.data());
  return fnv1a(std::span<const std::uint8_t>(bytes, text.size()), h);
}

// Folds the eight little-endian bytes of `value` into `h`.
constexpr std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (i * 8)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace here::common
